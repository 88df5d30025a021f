"""Bounded equation solvers over the generated monoids, and the arithmetic
oracle they are measured against.

The equation under study compares two one-sided composites built from the
encoder's generators: the double-raise side ``g2² · g1^n g2 · g1^s g2``
against the triple-raise side ``g2³ · g1^n g2 · g1^s g2``, each extended by
an unknown word over the generators.  Solvers search unknown words in
shortlex order (length first, then lexicographic with 1 < 2) up to a stated
bound and either return the first witness or report honest exhaustion —
"no solution within the bound" is never strengthened to "no solution".

Matrix level and morphism level share the same search state: both equation
sides keep all their letter counts in the four control rows, so the search
carries the pair (a·X, b·X) of thin matrices and extends it by one generator
at a time.  A subtree is pruned exactly when the left side has become the
zero matrix, which no extension can revive (such words never satisfy the
required nonannihilation).

The two levels differ in the success predicate.  Matrix level: the two
products are equal and nonzero.  Morphism level: additionally the images
behind the counts must agree as words.  For equation sides the letter
supports make that decidable without materializing anything: the compared
row (``c0``) draws on the two disjoint tagged halves of the alphabet, so
equal counts force both images into powers of the shared final letter
(where counts determine words); the remaining control rows arise from
identical letter trajectories on both sides.  The solver checks these
support facts from the data for every candidate; if they ever failed, it
would fall back to materializing the four control images under the
expansion cap rather than guess.

Where control images are materialized (to confirm a bridge verdict, or as
that fallback), the same trajectory argument saves work: the prefixes
``g2²`` and ``g2³`` only route each control letter to a single letter, and
only two distinct letters (``c2`` and ``c3``) come out, so the shared
suffix is applied twice rather than eight times.

Each point's equation is built once: the generator matrices are cached on
the encoder, and :func:`equivalence_report` computes the two sides once per
point and shares them with the four solvers it runs.  A found witness is
re-verified by folding the start matrix along it afresh, row by row with a
different kernel from the search's.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Iterator, Sequence

from . import matsem, poly
from .encode import (
    CONTROL_LETTERS,
    Encoder,
    apply_generator_word,
    argument_word,
    matrices,
    p_side_word,
    q_side_word,
)
from .errors import ExpansionCapExceeded
from .lang import Word, word
from .morph import apply


# ---------------------------------------------------------------------------
# Arithmetic oracle
# ---------------------------------------------------------------------------


def diophantine_oracle(
    p: poly.Polynomial, q: poly.Polynomial, n: int, s: int, bound: int
) -> tuple[int, ...] | None:
    """Least tuple (lexicographic) in {1..bound}^(t-2) solving p = q at (n, s, ...).

    Returns None when no tuple within the box works — a bounded statement,
    not a proof of unsolvability.
    """
    if p.arity != q.arity:
        raise ValueError("polynomial arities differ")
    if p.arity < 2:
        raise ValueError("the oracle fixes the first two arguments")
    if n < 1 or s < 1 or bound < 1:
        raise ValueError("arguments and bound must be positive")
    rest_len = p.arity - 2
    for rest in iter_product(range(1, bound + 1), repeat=rest_len):
        point = (n, s) + rest
        if poly.evaluate(p, point) == poly.evaluate(q, point):
            return rest
    return None


def witness_from_tuple(rest: Sequence[int]) -> tuple[int, ...]:
    """The generator word g1^m1 g2 ... g1^mk g2 for a recovered tuple."""
    out: list[int] = []
    for m in rest:
        if m < 1:
            raise ValueError("witness entries must be positive")
        out.extend([1] * m)
        out.append(2)
    return tuple(out)


def extract_argument_tuple(
    dimension: int, n: int, s: int, x: Sequence[int]
) -> tuple[int, ...]:
    """Parse the full equation word (2,2) + stages(n, s) + x back to a tuple.

    The concatenation must have the exact argument-chain shape: the fixed
    (2, 2) prefix, then ``dimension`` alternating blocks of ones each closed
    by a single 2, with nothing trailing.  Raises ValueError otherwise.
    """
    full = (2, 2) + argument_word((n, s)) + tuple(x)
    if full[:2] != (2, 2):
        raise ValueError("missing the double-raise prefix")
    body = full[2:]
    blocks: list[int] = []
    run = 0
    for symbol in body:
        if symbol == 1:
            run += 1
        elif symbol == 2:
            if run == 0:
                raise ValueError("empty block of level-preserving steps")
            blocks.append(run)
            run = 0
        else:
            raise ValueError(f"unknown generator symbol {symbol!r}")
    if run != 0:
        raise ValueError("trailing level-preserving steps after the last raise")
    if len(blocks) != dimension:
        raise ValueError(
            f"expected {dimension} argument blocks, found {len(blocks)}"
        )
    if blocks[0] != n or blocks[1] != s:
        raise ValueError("parsed blocks do not start with (n, s)")
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Search state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    outcome: str  # "found" | "exhausted"
    level: str  # "matrix" | "morphism"
    max_len: int
    witness: tuple[int, ...] | None = None
    pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    method: str = "product"
    detail: str = ""

    @property
    def found(self) -> bool:
        return self.outcome == "found"


def _check_refold(
    start: matsem.SparseMatrix,
    step1: matsem.SparseMatrix,
    step2: matsem.SparseMatrix,
    x: Sequence[int],
    product: matsem.SparseMatrix,
) -> None:
    """Re-verify an incrementally carried product ``start·X(x)``.

    Folds ``start`` along ``x`` afresh, one row at a time with
    :func:`matsem.vec_mat` (a different kernel from the search's
    :func:`matsem.mat_mul`), so the check stays as thin as the start matrix.
    """
    entries: list[tuple[int, int, int]] = []
    for i, row in start.rows.items():
        for symbol in x:
            row = matsem.vec_mat(row, step1 if symbol == 1 else step2)
        entries.extend((i, j, v) for j, v in row.items())
    if matsem.matrix(start.dimension, entries) != product:
        raise AssertionError("incremental state diverged")


def _live_nodes(
    start: matsem.SparseMatrix,
    step1: matsem.SparseMatrix,
    step2: matsem.SparseMatrix,
    max_len: int,
) -> Iterator[list[tuple[tuple[int, ...], matsem.SparseMatrix]]]:
    """Yield, level by level, the shortlex nodes (x, start·X(x)) with a
    nonzero product.  Zero products are pruned together with their subtrees:
    extensions of the zero matrix stay zero."""
    level = [((), start)] if start.entries else []
    yield level
    for _ in range(max_len):
        nxt: list[tuple[tuple[int, ...], matsem.SparseMatrix]] = []
        for x, acc in level:
            for symbol, step in ((1, step1), (2, step2)):
                child = matsem.mat_mul(acc, step)
                if child.entries:
                    nxt.append((x + (symbol,), child))
        level = nxt
        yield level


def _paired_live_nodes(
    a: matsem.SparseMatrix,
    b: matsem.SparseMatrix,
    step1: matsem.SparseMatrix,
    step2: matsem.SparseMatrix,
    max_len: int,
) -> Iterator[list[tuple[tuple[int, ...], matsem.SparseMatrix, matsem.SparseMatrix]]]:
    """Like :func:`_live_nodes` but carries both sides along the same word;
    pruning is driven by the left side only (nonannihilation concerns a·x)."""
    level = [((), a, b)] if a.entries else []
    yield level
    for _ in range(max_len):
        nxt: list[tuple[tuple[int, ...], matsem.SparseMatrix, matsem.SparseMatrix]] = []
        for x, left, right in level:
            for symbol, step in ((1, step1), (2, step2)):
                child_left = matsem.mat_mul(left, step)
                if child_left.entries:
                    nxt.append((x + (symbol,), child_left, matsem.mat_mul(right, step)))
        level = nxt
        yield level


# ---------------------------------------------------------------------------
# Matrix-level solvers
# ---------------------------------------------------------------------------


def solve_one_unknown(
    a: matsem.SparseMatrix,
    b: matsem.SparseMatrix,
    step1: matsem.SparseMatrix,
    step2: matsem.SparseMatrix,
    max_len: int,
) -> SolveResult:
    """First x in shortlex order with a·X(x) == b·X(x) nonzero, up to max_len."""
    if max_len < 0:
        raise ValueError("maximum length must be nonnegative")
    for level in _paired_live_nodes(a, b, step1, step2, max_len):
        for x, left, right in level:
            if left == right:
                _check_refold(a, step1, step2, x, left)
                _check_refold(b, step1, step2, x, right)
                return SolveResult(
                    outcome="found",
                    level="matrix",
                    max_len=max_len,
                    witness=x,
                    method="product",
                    detail="re-verified by an independent full product",
                )
    return SolveResult(
        outcome="exhausted",
        level="matrix",
        max_len=max_len,
        method="product",
        detail=f"no witness among generator words of length <= {max_len}",
    )


def solve_two_unknowns(
    a: matsem.SparseMatrix,
    b: matsem.SparseMatrix,
    step1: matsem.SparseMatrix,
    step2: matsem.SparseMatrix,
    max_len: int,
) -> SolveResult:
    """First pair (x, y) ordered by (|x|+|y|, x, y) with a·X(x) == b·X(y) nonzero.

    Both words range over lengths 0..max_len.  Words whose side product is
    zero are skipped: a zero left side fails nonannihilation outright, and a
    zero right side can only match a zero left side.
    """
    if max_len < 0:
        raise ValueError("maximum length must be nonnegative")
    lefts = [node for level in _live_nodes(a, step1, step2, max_len) for node in level]
    rights = [node for level in _live_nodes(b, step1, step2, max_len) for node in level]
    candidates = sorted(
        ((len(x) + len(y), x, y, left, right)
         for x, left in lefts
         for y, right in rights),
        key=lambda item: (item[0], item[1], item[2]),
    )
    for _total, x, y, left, right in candidates:
        if left == right:
            _check_refold(a, step1, step2, x, left)
            _check_refold(b, step1, step2, y, right)
            return SolveResult(
                outcome="found",
                level="matrix",
                max_len=max_len,
                pair=(x, y),
                method="product",
                detail="re-verified by independent full products",
            )
    return SolveResult(
        outcome="exhausted",
        level="matrix",
        max_len=max_len,
        method="product",
        detail=f"no pair with both words of length <= {max_len}",
    )


# ---------------------------------------------------------------------------
# Morphism-level solvers
# ---------------------------------------------------------------------------


Sides = tuple[
    matsem.SparseMatrix, matsem.SparseMatrix, matsem.SparseMatrix, matsem.SparseMatrix
]

# The sides (a, b, m1, m2) of the point that equivalence_report is working
# on.  Its solver calls go through the public functions, whose signatures do
# not carry the sides, and pick them up here instead of rebuilding them.
_point_sides: ContextVar[tuple[Encoder, int, int, Sides] | None] = ContextVar(
    "diomorph_point_sides", default=None
)


def _equation_sides(enc: Encoder, n: int, s: int) -> Sides:
    held = _point_sides.get()
    if held is not None and held[0] is enc and held[1:3] == (n, s):
        return held[3]
    m1, m2 = matrices(enc)
    a = matsem.p_side_matrix(m1, m2, n, s)
    b = matsem.q_side_matrix(m1, m2, n, s)
    return a, b, m1, m2


@contextmanager
def _sides_of_point(enc: Encoder, n: int, s: int) -> Iterator[Sides]:
    """Compute one point's sides once; solvers called inside the block reuse them."""
    sides = _equation_sides(enc, n, s)
    token = _point_sides.set((enc, n, s, sides))
    try:
        yield sides
    finally:
        _point_sides.reset(token)


def _control_rows_only(enc: Encoder, m: matsem.SparseMatrix) -> bool:
    control = set(enc.control_indices)
    return all(r in control for r, _, _ in m.entries)


def _halves_containment(
    enc: Encoder, left: matsem.SparseMatrix, right: matsem.SparseMatrix
) -> bool:
    """Data check behind the count-to-word bridge.

    Row c0 of the left side must stay in the first tagged half (plus the
    final letter), row c0 of the right side in the second half; the other
    control rows of both sides must stay in the second half.  Under these
    facts, equal counts in row c0 force support inside the intersection of
    disjoint halves — powers of the final letter, where counts determine
    words — and the remaining rows arise from identical trajectories (both
    sides send c1, c2, c3 through c3 before the argument chain starts).
    """
    c0 = enc.control_indices[0]
    e = enc.final_index
    first = set(enc.first_indices) | {e}
    second = set(enc.second_indices) | {e}
    if not (_control_rows_only(enc, left) and _control_rows_only(enc, right)):
        return False
    for matrix_, allowed_c0 in ((left, first), (right, second)):
        for r, c, _ in matrix_.entries:
            allowed = allowed_c0 if r == c0 else second
            if c not in allowed:
                return False
    return True


def _word_level_equal(
    enc: Encoder, n: int, s: int, x: Sequence[int], cap: int | None
) -> bool | None:
    """Directly compare the four control images of both sides, if affordable.

    Both side words end in the same suffix ``argument_word((n, s)) + x``;
    they differ only in the prefix (``g2²`` against ``g2³``), which routes a
    control letter to a single letter: ``c0`` to ``c2`` on one side and to
    ``c3`` on the other, ``c1``, ``c2`` and ``c3`` to ``c3`` on both.  So
    each control letter is routed through its prefix, and the suffix is
    applied once per distinct routed word (memoized within the call): two
    trajectories instead of eight.  The routed words come from the data, so
    were they ever to differ, both sides would be computed.  A reused image
    was computed without tripping the expansion cap, so the verdict is the
    one that eight separate applications give.

    Returns None when materialization exceeds the expansion cap."""
    argument = argument_word((n, s))
    suffix = argument + tuple(x)
    p_prefix = p_side_word(n, s)[: -len(argument)]
    q_prefix = q_side_word(n, s)[: -len(argument)]
    images: dict[tuple[tuple[str, int], ...], Word] = {}

    def image(letter: str, prefix: tuple[int, ...]) -> Word:
        routed = word(enc.alphabet, [letter])
        for symbol in prefix:
            routed = apply(enc.generator(symbol), routed, cap=cap)
        if routed.runs not in images:
            images[routed.runs] = apply_generator_word(enc, routed, suffix, cap=cap)
        return images[routed.runs]

    try:
        for letter in CONTROL_LETTERS:
            if image(letter, p_prefix) != image(letter, q_prefix):
                return False
        return True
    except ExpansionCapExceeded:
        return None


def solve_one_unknown_words(
    enc: Encoder, n: int, s: int, max_len: int, cap: int | None = None
) -> SolveResult:
    """Morphism-level search: first x making the two side morphisms equal
    and nonannihilating as maps on words."""
    if max_len < 0:
        raise ValueError("maximum length must be nonnegative")
    a, b, m1, m2 = _equation_sides(enc, n, s)
    undecided = 0
    for level in _paired_live_nodes(a, b, m1, m2, max_len):
        for x, left, right in level:
            if left != right:
                continue
            if _halves_containment(enc, left, right):
                method = "parikh-bridge"
                confirmed = _word_level_equal(enc, n, s, x, cap)
                if confirmed is False:
                    raise AssertionError(
                        "support analysis and word comparison disagree"
                    )
                if confirmed:
                    method = "parikh-bridge+word"
                _check_refold(a, m1, m2, x, left)
                return SolveResult(
                    outcome="found",
                    level="morphism",
                    max_len=max_len,
                    witness=x,
                    method=method,
                    detail=(
                        "counts equal; row supports confine both sides to "
                        "powers of the final letter"
                    ),
                )
            # supports unexpectedly escaped the tagged halves: only a direct
            # word comparison can decide this candidate
            direct = _word_level_equal(enc, n, s, x, cap)
            if direct:
                return SolveResult(
                    outcome="found",
                    level="morphism",
                    max_len=max_len,
                    witness=x,
                    method="word",
                    detail="decided by materializing the control images",
                )
            if direct is None:
                undecided += 1
    detail = f"no witness among generator words of length <= {max_len}"
    if undecided:
        detail += f"; {undecided} candidates undecidable within the expansion cap"
    return SolveResult(
        outcome="exhausted",
        level="morphism",
        max_len=max_len,
        method="parikh-bridge",
        detail=detail,
    )


def solve_two_unknowns_words(
    enc: Encoder, n: int, s: int, max_len: int, cap: int | None = None
) -> SolveResult:
    """Morphism-level pair search ordered by (|x|+|y|, x, y)."""
    if max_len < 0:
        raise ValueError("maximum length must be nonnegative")
    a, b, m1, m2 = _equation_sides(enc, n, s)
    lefts = [node for level in _live_nodes(a, m1, m2, max_len) for node in level]
    rights = [node for level in _live_nodes(b, m1, m2, max_len) for node in level]
    candidates = sorted(
        ((len(x) + len(y), x, y, left, right)
         for x, left in lefts
         for y, right in rights),
        key=lambda item: (item[0], item[1], item[2]),
    )
    undecided = 0
    for _total, x, y, left, right in candidates:
        if left != right:
            continue
        if _halves_containment(enc, left, right):
            _check_refold(a, m1, m2, x, left)
            return SolveResult(
                outcome="found",
                level="morphism",
                max_len=max_len,
                pair=(x, y),
                method="parikh-bridge",
                detail=(
                    "counts equal; row supports confine both sides to powers "
                    "of the final letter"
                ),
            )
        undecided += 1
    detail = f"no pair with both words of length <= {max_len}"
    if undecided:
        detail += f"; {undecided} candidates undecidable from counts alone"
    return SolveResult(
        outcome="exhausted",
        level="morphism",
        max_len=max_len,
        method="parikh-bridge",
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Equivalence report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointVerdict:
    n: int
    s: int
    oracle_witness: tuple[int, ...] | None
    matrix_one: SolveResult
    matrix_two: SolveResult
    morphism_one: SolveResult
    morphism_two: SolveResult
    agree: bool
    caveats: tuple[str, ...] = ()

    @property
    def oracle_found(self) -> bool:
        return self.oracle_witness is not None


@dataclass(frozen=True)
class EquivalenceReport:
    p: poly.Polynomial
    q: poly.Polynomial
    oracle_bound: int
    solver_bound: int
    rows: tuple[PointVerdict, ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    def to_doc(self) -> dict:
        def solver_doc(r: SolveResult) -> dict:
            return {
                "outcome": r.outcome,
                "level": r.level,
                "method": r.method,
                "witness": list(r.witness) if r.witness is not None else None,
                "pair": [list(r.pair[0]), list(r.pair[1])] if r.pair else None,
                "max_len": r.max_len,
                "detail": r.detail,
            }

        return {
            "p": str(self.p),
            "q": str(self.q),
            "oracle_bound": self.oracle_bound,
            "solver_bound": self.solver_bound,
            "all_agree": self.all_agree,
            "rows": [
                {
                    "n": row.n,
                    "s": row.s,
                    "oracle_witness": list(row.oracle_witness)
                    if row.oracle_witness is not None
                    else None,
                    "matrix_one": solver_doc(row.matrix_one),
                    "matrix_two": solver_doc(row.matrix_two),
                    "morphism_one": solver_doc(row.morphism_one),
                    "morphism_two": solver_doc(row.morphism_two),
                    "agree": row.agree,
                    "caveats": list(row.caveats),
                }
                for row in self.rows
            ],
            "notes": list(self.notes),
        }

    def render(self, fmt: str = "human") -> str:
        if fmt == "machine":
            return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"
        lines = [
            f"equation p = q with p = {self.p}, q = {self.q}",
            f"oracle box bound {self.oracle_bound}, solver word bound {self.solver_bound}",
            "",
            f"{'point':>10}  {'oracle':<12} {'matrix':<12} {'morphism':<12} agree",
        ]
        for row in self.rows:
            def mark(r: SolveResult) -> str:
                return "witness" if r.found else "none"

            oracle = (
                ",".join(map(str, row.oracle_witness))
                if row.oracle_witness is not None
                else "none"
            )
            lines.append(
                f"({row.n},{row.s})".rjust(10)
                + f"  {oracle:<12} {mark(row.matrix_one):<12} "
                + f"{mark(row.morphism_one):<12} {'yes' if row.agree else 'NO'}"
            )
            for caveat in row.caveats:
                lines.append(f"{'':>10}  caveat: {caveat}")
        for note in self.notes:
            lines.append(f"note: {note}")
        verdict = "agree" if self.all_agree else "DISAGREE"
        lines.append(f"overall: solver and oracle {verdict} on all points")
        return "\n".join(lines) + "\n"


def _witness_checks(
    enc: Encoder, n: int, s: int, result: SolveResult
) -> tuple[bool, tuple[str, ...]]:
    """Validate a found witness: parse it back to a tuple, re-evaluate."""
    caveats: list[str] = []
    words_to_check: list[tuple[int, ...]] = []
    if result.witness is not None:
        words_to_check.append(result.witness)
    if result.pair is not None:
        words_to_check.extend(result.pair)
    for w in words_to_check:
        try:
            full = extract_argument_tuple(enc.dimension, n, s, w)
        except ValueError as exc:
            caveats.append(f"witness {w} does not parse as an argument chain: {exc}")
            return False, tuple(caveats)
        if poly.evaluate(enc.p, full) != poly.evaluate(enc.q, full):
            caveats.append(f"recovered tuple {full} does not satisfy the equation")
            return False, tuple(caveats)
    return True, tuple(caveats)


def equivalence_report(
    p: poly.Polynomial,
    q: poly.Polynomial,
    points: Sequence[tuple[int, int]],
    oracle_bound: int,
    solver_bound: int,
    cap: int | None = None,
    encoder: Encoder | None = None,
) -> EquivalenceReport:
    """Compare the bounded solvers against the brute-force oracle pointwise.

    For every (n, s) the report records the oracle's least witness tuple
    within its box, all four solver runs, and whether every verdict agrees.
    Bound-induced misses are annotated: a solver can only see oracle
    witnesses whose argument chain fits in ``solver_bound`` letters, and the
    oracle can only see solver witnesses whose entries fit in its box.
    """
    from .encode import build_encoder

    enc = encoder if encoder is not None else build_encoder(p, q)
    if (enc.p, enc.q) != (p, q):
        raise ValueError("provided encoder was built from different polynomials")
    rows: list[PointVerdict] = []
    for n, s in points:
        oracle_witness = diophantine_oracle(p, q, n, s, oracle_bound)
        with _sides_of_point(enc, n, s) as (a, b, m1, m2):
            matrix_one = solve_one_unknown(a, b, m1, m2, solver_bound)
            matrix_two = solve_two_unknowns(a, b, m1, m2, solver_bound)
            morphism_one = solve_one_unknown_words(enc, n, s, solver_bound, cap=cap)
            morphism_two = solve_two_unknowns_words(enc, n, s, solver_bound, cap=cap)

        caveats: list[str] = []
        agree = (
            matrix_one.found
            == matrix_two.found
            == morphism_one.found
            == morphism_two.found
        )
        solver_found = matrix_one.found
        if agree and solver_found != (oracle_witness is not None):
            # a genuine verdict difference, possibly bound-induced: annotate
            agree = False
            if oracle_witness is not None:
                needed = len(witness_from_tuple(oracle_witness))
                if needed > solver_bound:
                    caveats.append(
                        f"oracle witness needs a word of length {needed} "
                        f"> solver bound {solver_bound}"
                    )
            else:
                for r in (matrix_one, morphism_one, matrix_two, morphism_two):
                    if not r.found:
                        continue
                    for w in ([r.witness] if r.witness else []) + (
                        list(r.pair) if r.pair else []
                    ):
                        try:
                            full = extract_argument_tuple(enc.dimension, n, s, w)
                        except ValueError:
                            continue
                        if any(entry > oracle_bound for entry in full[2:]):
                            caveats.append(
                                f"solver witness tuple {full} lies outside the "
                                f"oracle box bound {oracle_bound}"
                            )
        if solver_found and agree:
            for result in (matrix_one, matrix_two, morphism_one, morphism_two):
                ok, extra = _witness_checks(enc, n, s, result)
                caveats.extend(extra)
                if not ok:
                    agree = False
            # matrix and morphism searches must recover the same first witness
            if matrix_one.witness != morphism_one.witness:
                agree = False
                caveats.append("matrix and morphism searches disagree on the witness")
            if matrix_two.pair != morphism_two.pair:
                agree = False
                caveats.append("matrix and morphism searches disagree on the pair")
        rows.append(
            PointVerdict(
                n=n,
                s=s,
                oracle_witness=oracle_witness,
                matrix_one=matrix_one,
                matrix_two=matrix_two,
                morphism_one=morphism_one,
                morphism_two=morphism_two,
                agree=agree,
                caveats=tuple(caveats),
            )
        )
    notes = (
        "solver exhaustion means no witness within the word bound, "
        "not unsolvability; oracle misses mean no tuple within the box",
    )
    return EquivalenceReport(
        p=p,
        q=q,
        oracle_bound=oracle_bound,
        solver_bound=solver_bound,
        rows=tuple(rows),
        notes=notes,
    )
