"""Command-line driver for the compile/verify/solve pipeline.

Subcommands
    compile    build an encoder from a pair of polynomial documents
    matrices   emit the two generator matrices of an encoder
    oracle     brute-force the arithmetic equation over a bounded box
    solve      bounded shortlex search for equation witnesses
    verify     run one of the structural check suites
    report     compare solver verdicts against the oracle over many points

Exit codes
    0   success (witness found, suite passed, artifact written)
    2   bad input (unreadable files, malformed documents, invalid flags)
    3   resource budget exceeded (expansion cap or alphabet budget)
    4   suite failure or solver/oracle disagreement
    5   search exhausted without a conclusion (no witness within bounds)

Inputs given to --p/--q/--encoder are file paths, or inline JSON when the
argument starts with "{".  The environment variables DIOMORPH_EXPANSION_CAP
and DIOMORPH_ALPHABET_BUDGET override the default resource limits; explicit
flags override the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import encode, interchange, poly, solve
from .errors import AlphabetBudgetExceeded, ExpansionCapExceeded

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_SUITE_FAILURE = 4
EXIT_EXHAUSTED = 5

SUITES = ("conditions", "staged", "collapse", "functoriality")


# ---------------------------------------------------------------- plumbing


def _flag_or_env(flag: int | None, name: str) -> int | None:
    """The flag's value if given, else the environment variable ``name``, else None."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"environment variable {name} must be >= 1, got {value}")
    return value


def _read_doc(source: str) -> dict:
    """Load a JSON document from a path, or inline if it starts with '{'."""
    if source.lstrip().startswith("{"):
        text = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {source}: {exc}")
    try:
        doc = interchange.loads(text)
    except ValueError as exc:
        raise ValueError(f"malformed JSON in {source!r}: {exc}")
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object in {source!r}")
    return doc


def _load_polynomial(source: str) -> poly.Polynomial:
    try:
        return interchange.polynomial_from_doc(_read_doc(source))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a polynomial document: {source!r} ({exc})")


def _load_encoder(source: str) -> encode.Encoder:
    try:
        return interchange.encoder_from_doc(_read_doc(source))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not an encoder document: {source!r} ({exc})")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _result_text(result: solve.SolveResult, fmt: str) -> str:
    if fmt == "machine":
        return interchange.dumps(result.to_doc())
    if result.pair is not None:
        what = "pair " + " | ".join(
            " ".join(map(str, side)) if side else "(empty)" for side in result.pair
        )
    elif result.witness is not None:
        what = "witness " + (" ".join(map(str, result.witness)) or "(empty)")
    else:
        what = "no witness within bound"
    lines = [
        f"outcome: {result.outcome} ({result.level} level, method {result.method},"
        f" bound {result.max_len})",
        what,
    ]
    if result.detail:
        lines.append(f"detail: {result.detail}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- subcommands


def _cmd_compile(args: argparse.Namespace) -> int:
    p = _load_polynomial(args.p)
    q = _load_polynomial(args.q)
    if args.t is not None and args.t != p.arity:
        raise ValueError(f"-t {args.t} does not match polynomial arity {p.arity}")
    budget = _flag_or_env(args.alphabet_budget, "DIOMORPH_ALPHABET_BUDGET")
    enc = encode.build_encoder(p, q, budget=budget)
    _write_output(interchange.dumps(interchange.encoder_to_doc(enc)), args.output)
    return EXIT_OK


def _cmd_matrices(args: argparse.Namespace) -> int:
    enc = _load_encoder(args.encoder)
    m1, m2 = encode.matrices(enc)
    doc = {
        "dimension": enc.dimension,
        "g1": interchange.matrix_to_doc(m1),
        "g2": interchange.matrix_to_doc(m2),
    }
    _write_output(interchange.dumps(doc), args.output)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    p = _load_polynomial(args.p)
    q = _load_polynomial(args.q)
    witness = solve.diophantine_oracle(p, q, args.n, args.s, args.bound)
    if args.format == "machine":
        doc = {
            "n": args.n,
            "s": args.s,
            "bound": args.bound,
            "witness": list(witness) if witness is not None else None,
        }
        _write_output(interchange.dumps(doc), args.output)
    else:
        if witness is None:
            text = (
                f"no solution with remaining arguments in 1..{args.bound}"
                f" at (n,s)=({args.n},{args.s})\n"
            )
        else:
            shown = ",".join(map(str, witness)) if witness else "()"
            text = f"solution: remaining arguments ({shown}) at (n,s)=({args.n},{args.s})\n"
        _write_output(text, args.output)
    return EXIT_OK if witness is not None else EXIT_EXHAUSTED


def _cmd_solve(args: argparse.Namespace) -> int:
    enc = _load_encoder(args.encoder)
    cap = _flag_or_env(args.cap, "DIOMORPH_EXPANSION_CAP")
    levels = ("matrix", "morphism") if args.level == "both" else (args.level,)
    pt = solve.point(enc, args.n, args.s, args.max_len)
    results: list[solve.SolveResult] = []
    for level in levels:
        if level == "matrix":
            results.append((solve.solve_two_unknowns if args.two else solve.solve_one_unknown)(pt))
        elif args.two:
            results.append(solve.solve_two_unknowns_words(pt))
        else:
            results.append(solve.solve_one_unknown_words(pt, cap=cap))
    if args.format == "machine" and len(results) == 2:
        text = interchange.dumps(
            {level: r.to_doc() for level, r in zip(levels, results)}
        )
    else:
        text = "".join(_result_text(r, args.format) for r in results)
    _write_output(text, args.output)
    if len(results) == 2 and results[0].found != results[1].found:
        sys.stderr.write("error: matrix and morphism levels disagree\n")
        return EXIT_SUITE_FAILURE
    return EXIT_OK if results[0].found else EXIT_EXHAUSTED


def _cmd_verify(args: argparse.Namespace) -> int:
    enc = _load_encoder(args.encoder)
    cap = _flag_or_env(args.cap, "DIOMORPH_EXPANSION_CAP")
    if args.suite == "conditions":
        report = encode.condition_suite(enc)
    elif args.suite == "staged":
        report = encode.staged_evaluation_suite(enc, bound=args.bound, cap=cap)
    elif args.suite == "collapse":
        report = encode.annihilation_suite(enc, max_len=args.max_len)
    else:
        report = encode.functoriality_suite(enc, max_len=args.max_len, cap=cap)
    _write_output(report.render(args.format), args.output)
    return EXIT_OK if report.passed else EXIT_SUITE_FAILURE


def _parse_points(args: argparse.Namespace) -> list[tuple[int, int]]:
    points: list[tuple[int, int]] = []
    for spec_text in args.point or []:
        pieces = spec_text.split(",")
        if len(pieces) != 2:
            raise ValueError(f"--point expects 'n,s', got {spec_text!r}")
        try:
            points.append((int(pieces[0]), int(pieces[1])))
        except ValueError:
            raise ValueError(f"--point expects integers, got {spec_text!r}")
    if args.s_from is not None or args.s_to is not None:
        if args.s_from is None or args.s_to is None:
            raise ValueError("--s-from and --s-to must be given together")
        if args.s_to < args.s_from:
            raise ValueError("--s-to must be >= --s-from")
        points.extend((args.n, s) for s in range(args.s_from, args.s_to + 1))
    if not points:
        raise ValueError("no points given: use --point n,s or --s-from/--s-to")
    return points


def _cmd_report(args: argparse.Namespace) -> int:
    p = _load_polynomial(args.p)
    q = _load_polynomial(args.q)
    enc = _load_encoder(args.encoder) if args.encoder else None
    points = _parse_points(args)
    report = solve.equivalence_report(
        p,
        q,
        points,
        args.oracle_bound,
        args.solver_bound,
        cap=_flag_or_env(args.cap, "DIOMORPH_EXPANSION_CAP"),
        encoder=enc,
    )
    _write_output(report.render(args.format), args.output)
    return EXIT_OK if report.all_agree else EXIT_SUITE_FAILURE


# ----------------------------------------------------------------- parser


def _positive(text_value: str) -> int:
    value = int(text_value)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative(text_value: str) -> int:
    value = int(text_value)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diomorph",
        description="Compile polynomial pairs into monoid encodings and test "
        "equation solvability against a brute-force arithmetic oracle.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p_: argparse.ArgumentParser) -> None:
        p_.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    def add_format(p_: argparse.ArgumentParser) -> None:
        p_.add_argument(
            "--format",
            choices=("human", "machine"),
            default="human",
            help="human-readable text or deterministic JSON",
        )

    c = sub.add_parser("compile", help="build an encoder from two polynomial documents")
    c.add_argument("--p", required=True, help="first polynomial (path or inline JSON)")
    c.add_argument("--q", required=True, help="second polynomial (path or inline JSON)")
    c.add_argument("-t", type=_positive, default=None, help="expected arity (validated)")
    c.add_argument("--alphabet-budget", type=_positive, default=None)
    add_common(c)
    c.set_defaults(func=_cmd_compile)

    m = sub.add_parser("matrices", help="emit the generator matrices of an encoder")
    m.add_argument("--encoder", required=True, help="encoder document (path or inline JSON)")
    add_common(m)
    m.set_defaults(func=_cmd_matrices)

    o = sub.add_parser("oracle", help="brute-force the arithmetic equation over a box")
    o.add_argument("--p", required=True)
    o.add_argument("--q", required=True)
    o.add_argument("-n", type=_positive, required=True, help="first argument value")
    o.add_argument("-s", type=_positive, required=True, help="second argument value")
    o.add_argument("-B", "--bound", type=_positive, required=True, help="box bound")
    add_format(o)
    add_common(o)
    o.set_defaults(func=_cmd_oracle)

    s = sub.add_parser("solve", help="bounded shortlex search for equation witnesses")
    s.add_argument("--encoder", required=True)
    s.add_argument("-n", type=_positive, required=True)
    s.add_argument("-s", type=_positive, required=True)
    s.add_argument("--max-len", type=_nonnegative, required=True, help="word length bound")
    s.add_argument("--two", action="store_true", help="search a pair of unknowns")
    s.add_argument(
        "--level",
        choices=("matrix", "morphism", "both"),
        default="matrix",
        help="where equality is tested",
    )
    s.add_argument("--cap", type=_positive, default=None,
                   help="expansion cap of the one-unknown morphism-level search only "
                   "(--level morphism or both, without --two)")
    add_format(s)
    add_common(s)
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="run a structural check suite on an encoder")
    v.add_argument("--encoder", required=True)
    v.add_argument("--suite", choices=SUITES, required=True)
    v.add_argument("--bound", type=_positive, default=2, help="argument box for staged checks")
    v.add_argument("--max-len", type=_positive, default=3, help="word bound for collapse/functoriality")
    v.add_argument("--cap", type=_positive, default=None,
                   help="expansion cap of the staged and functoriality suites")
    add_format(v)
    add_common(v)
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("report", help="compare solver verdicts against the oracle")
    r.add_argument("--p", required=True)
    r.add_argument("--q", required=True)
    r.add_argument("--encoder", default=None, help="reuse a compiled encoder document")
    r.add_argument("--point", action="append", help="a point 'n,s' (repeatable)")
    r.add_argument("-n", type=_positive, default=1, help="n for --s-from/--s-to ranges")
    r.add_argument("--s-from", type=_positive, default=None)
    r.add_argument("--s-to", type=_positive, default=None)
    r.add_argument("--oracle-bound", type=_positive, required=True)
    r.add_argument("--solver-bound", type=_nonnegative, required=True)
    r.add_argument("--cap", type=_positive, default=None,
                   help="expansion cap of the morphism-level witness confirmation")
    add_format(r)
    add_common(r)
    r.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExpansionCapExceeded, AlphabetBudgetExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
