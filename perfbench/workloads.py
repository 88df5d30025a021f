"""Benchmark instances, the CLI calls of each workload, and reference checks.

Every expected value here is computed from hand-written arithmetic on the
instance's polynomials (plain Python functions below), never by the program
under test.  Polynomial documents are written out by hand as plain JSON so
that the program receives only generated inputs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Sequence

REPORT_ORACLE_BOUND = 5
REPORT_SOLVER_BOUND = 12
# s = 1 runs every path, word confirmation included; squares is found again
# at s = 4; trivial at s = 3 confirms its witness on words near the expansion
# cap; empty is never found.  Kept small so that a pass fits twice in a run,
# with two calls of similar time in the middle to steady the median.
REPORT_POINTS = {"squares": (1, 4), "trivial": (1, 3), "empty": (1, 2), "toy": (1, 2)}
COLLAPSE_MAX_LEN = 3
STAGED_BOUND = 1
FUNCTORIALITY_MAX_LEN = 4


@dataclass(frozen=True)
class Instance:
    name: str
    arity: int
    p_terms: tuple[tuple[int, tuple[int, ...]], ...]  # (coefficient, exponents)
    q_terms: tuple[tuple[int, tuple[int, ...]], ...]
    p: Callable[[Sequence[int]], int]
    q: Callable[[Sequence[int]], int]


# The three 3-variable pairs of tests/conftest.py, and the 2-variable toy pair.
SQUARES = Instance("squares", 3, ((1, (0, 1, 0)),), ((1, (0, 0, 2)),),
                   lambda x: x[1], lambda x: x[2] ** 2)
TRIVIAL = Instance("trivial", 3, ((1, (0, 0, 1)),), ((1, (0, 0, 1)),),
                   lambda x: x[2], lambda x: x[2])
EMPTY = Instance("empty", 3, ((1, (0, 1, 0)), (1, (0, 0, 1))), ((1, (0, 0, 1)),),
                 lambda x: x[2] + x[1], lambda x: x[2])
TOY = Instance("toy", 2, ((1, (0, 1)),), ((1, (1, 0)),),
               lambda x: x[1], lambda x: x[0])

INSTANCES = (SQUARES, TRIVIAL, EMPTY)


def polynomial_doc(arity: int, terms) -> str:
    return json.dumps({
        "arity": arity,
        "monomials": [{"coeff": str(c), "exponents": list(e)} for c, e in terms],
    })


# ---------------------------------------------------------------- arithmetic


def pairing(a: int, b: int) -> int:
    return (a + b) ** 2 + a


def tupled(args: Sequence[int]) -> int:
    """Nested pairing ((x1, x2), x3), ...: the encoder's injective tupling."""
    acc = pairing(args[0], args[1])
    for a in args[2:]:
        acc = pairing(acc, a)
    return acc


def chain(point: Sequence[int]) -> tuple[int, ...]:
    """Generator word g1^m1 g2 g1^m2 g2 ... for an argument tuple."""
    out: list[int] = []
    for m in point:
        out += [1] * m + [2]
    return tuple(out)


def parse_chain(word: Sequence[int]) -> tuple[int, ...] | None:
    """Inverse of chain(); None when the word does not have that shape."""
    blocks, run = [], 0
    for g in word:
        if g == 1:
            run += 1
        elif g == 2 and run:
            blocks.append(run)
            run = 0
        else:
            return None
    return tuple(blocks) if run == 0 else None


def first_witness(inst: Instance, s: int, max_len: int) -> tuple[int, ...] | None:
    """Shortlex-least chain word x with p = q at (1, s) + parse(x), |x| <= max_len."""
    k = inst.arity - 2
    best = None
    for rest in product(range(1, max_len + 1), repeat=k):
        w = chain(rest)
        if len(w) > max_len:
            continue
        point = (1, s) + rest
        if inst.p(point) == inst.q(point) and (
            best is None or (len(w), w) < (len(best), best)
        ):
            best = w
    return best


def oracle_witness(inst: Instance, s: int, bound: int) -> list[int] | None:
    for rest in product(range(1, bound + 1), repeat=inst.arity - 2):
        point = (1, s) + rest
        if inst.p(point) == inst.q(point):
            return list(rest)
    return None


# ---------------------------------------------------------- reference checks


def _parikh(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for token in text.split():
        letter, _, n = token.partition("^")
        counts[letter] = counts.get(letter, 0) + (int(n) if n else 1)
    return counts


def check_encoder(inst: Instance, data: bytes) -> list[str]:
    """Letter counts of c0 along both equation sides match the tupled values."""
    doc = json.loads(data)
    problems = []
    if doc.get("format") != "diomorph-encoder" or doc.get("dimension") != inst.arity:
        return ["not an encoder document of the right dimension"]
    letters = doc["alphabet"]["letters"]
    if sum(doc["alphabet"]["level_sizes"]) != len(letters) or len(set(letters)) != len(letters):
        problems.append("alphabet levels do not cover the letters exactly once")
    tables = {g: {z: _parikh(w) for z, w in doc[f"g{g}"]["images"].items()} for g in (1, 2)}
    if set(tables[1]) != set(letters) or set(tables[2]) != set(letters):
        problems.append("image tables do not cover the alphabet")
        return problems

    def carry(vec: dict[str, int], gens: Sequence[int]) -> dict[str, int]:
        for g in gens:
            nxt: dict[str, int] = {}
            for z, n in vec.items():
                for y, m in tables[g][z].items():
                    nxt[y] = nxt.get(y, 0) + n * m
            vec = nxt
        return vec

    p_start = carry({"c0": 1}, (2, 2))
    q_start = carry({"c0": 1}, (2, 2, 2))
    for point in product((1, 2), repeat=inst.arity):
        for side, start, f in (("p", p_start, inst.p), ("q", q_start, inst.q)):
            got = carry(start, chain(point)).get("e", 0)
            want = tupled(point + (f(point),))
            if got != want:
                problems.append(f"{side}-side count of e at {point} is {got}, expected {want}")
    return problems


def check_report(inst: Instance, s: int, data: bytes) -> list[str]:
    """Verdicts, witnesses and oracle tuple against hand-written arithmetic."""
    doc = json.loads(data)
    problems = []
    if doc.get("all_agree") is not True:
        problems.append("all_agree is not true")
    rows = doc.get("rows", [])
    if len(rows) != 1 or (rows[0].get("n"), rows[0].get("s")) != (1, s):
        return problems + [f"expected one row for point (1, {s})"]
    row = rows[0]
    if row.get("agree") is not True:
        problems.append("row does not agree")
    if row.get("oracle_witness") != oracle_witness(inst, s, REPORT_ORACLE_BOUND):
        problems.append(f"oracle witness {row.get('oracle_witness')} is wrong")
    want = first_witness(inst, s, REPORT_SOLVER_BOUND)
    outcome = "exhausted" if want is None else "found"
    for key in ("matrix_one", "matrix_two", "morphism_one", "morphism_two"):
        result = row.get(key) or {}
        if result.get("outcome") != outcome:
            problems.append(f"{key}: outcome {result.get('outcome')}, expected {outcome}")
            continue
        if want is None:
            continue
        found = [result.get("witness")] if key.endswith("one") else result.get("pair") or []
        if found != ([list(want)] if key.endswith("one") else [list(want), list(want)]):
            problems.append(f"{key}: witness {found}, expected {list(want)}")
        for w in found:
            rest = parse_chain(w)
            point = (1, s) + (rest or ())
            if rest is None or len(point) != inst.arity or inst.p(point) != inst.q(point):
                problems.append(f"{key}: witness {w} does not solve p = q")
    return problems


def check_suite(inst: Instance, suite: str, data: bytes) -> list[str]:
    """Every check passes; check counts and collapse values follow from definitions."""
    doc = json.loads(data)
    checks = doc.get("checks", [])
    problems = []
    if doc.get("suite") != suite or doc.get("passed") is not True:
        problems.append(f"suite {suite} did not pass")
    if not checks or not all(c.get("passed") is True for c in checks):
        problems.append("a check failed or none ran")
    if suite == "functoriality":
        want = sum(2 ** k for k in range(1, FUNCTORIALITY_MAX_LEN + 1))
        if len(checks) != want:
            problems.append(f"{len(checks)} functoriality checks, expected {want}")
    elif suite == "collapse":
        words = 2 ** (COLLAPSE_MAX_LEN + 1) - 1
        pairs = sum(1 for c in checks if c["name"].startswith("pair "))
        if pairs != words * words:
            problems.append(f"{pairs} collapse pair checks, expected {words * words}")
    elif suite == "staged":
        finals = [c for c in checks if c["name"].startswith("final-value ")]
        if len(finals) != 2 * STAGED_BOUND ** inst.arity:
            problems.append(f"{len(finals)} final-value checks")
        for c in finals:
            side, point = re.match(r"final-value side=(\w) point=([\d,]+)", c["name"]).groups()
            point = tuple(int(v) for v in point.split(","))
            f = inst.p if side == "p" else inst.q
            want = tupled(point + (f(point),))
            values = [int(v) for v in re.findall(r"e\^(\d+)", c["detail"])]
            if not values or any(v != want for v in values):
                problems.append(f"{c['name']}: collapses to {values}, expected e^{want}")
    return problems


# ------------------------------------------------------------------ the calls


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, its output file and the check of that output."""

    key: str
    argv: tuple[str, ...]
    output: Path
    check: Callable[[bytes], list[str]]


class Files:
    """Paths of the documents a workload reads and writes, in one work directory."""

    def __init__(self, work: Path):
        self.work = work

    def poly(self, inst: Instance, side: str) -> Path:
        return self.work / f"{inst.name}.{side}.json"

    def encoder(self, inst: Instance) -> Path:
        return self.work / f"{inst.name}.encoder.json"

    def write_polynomials(self, instances: Sequence[Instance]) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for inst in instances:
            self.poly(inst, "p").write_text(polynomial_doc(inst.arity, inst.p_terms))
            self.poly(inst, "q").write_text(polynomial_doc(inst.arity, inst.q_terms))


def compile_op(files: Files, inst: Instance) -> Op:
    out = files.encoder(inst)
    argv = ("compile", "--p", str(files.poly(inst, "p")), "--q", str(files.poly(inst, "q")),
            "-t", str(inst.arity), "-o", str(out))
    return Op(f"compile:{inst.name}", argv, out, lambda data: check_encoder(inst, data))


def report_op(files: Files, inst: Instance, s: int) -> Op:
    out = files.work / f"report.{inst.name}.{s}.json"
    argv = ("report", "--p", str(files.poly(inst, "p")), "--q", str(files.poly(inst, "q")),
            "--encoder", str(files.encoder(inst)), "--point", f"1,{s}",
            "--oracle-bound", str(REPORT_ORACLE_BOUND),
            "--solver-bound", str(REPORT_SOLVER_BOUND), "--format", "machine", "-o", str(out))
    return Op(f"report:{inst.name}:1,{s}", argv, out, lambda data: check_report(inst, s, data))


def verify_op(files: Files, inst: Instance, suite: str) -> Op:
    flags = {
        "conditions": (),
        "collapse": ("--max-len", str(COLLAPSE_MAX_LEN)),
        "staged": ("--bound", str(STAGED_BOUND)),
        "functoriality": ("--max-len", str(FUNCTORIALITY_MAX_LEN)),
    }[suite]
    out = files.work / f"verify.{inst.name}.{suite}.json"
    argv = ("verify", "--encoder", str(files.encoder(inst)), "--suite", suite, *flags,
            "--format", "machine", "-o", str(out))
    return Op(f"verify:{inst.name}:{suite}", argv, out, lambda data: check_suite(inst, suite, data))


@dataclass(frozen=True)
class Workload:
    """Set-up compiles ``encoders``; one pass runs ``ops`` in seeded order."""

    name: str
    encoders: tuple[Instance, ...]
    ops: tuple[Op, ...]


def workload(name: str, files: Files, seed: int, instances: Sequence[Instance]) -> Workload:
    """The calls of one pass.  The seed fixes their order; the set of calls is
    fixed so that runs with different seeds do the same work."""
    if name == "compile":
        encoders, ops = (), [compile_op(files, inst) for inst in instances]
    elif name == "report":
        encoders = tuple(instances)
        ops = [report_op(files, inst, s) for inst in instances for s in REPORT_POINTS[inst.name]]
    elif name == "verify":
        encoders = tuple(instances[:1])
        ops = [verify_op(files, instances[0], suite)
               for suite in ("conditions", "collapse", "staged", "functoriality")]
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(ops)
    return Workload(name, encoders, tuple(ops))
