"""Bounded equation solvers over the generated monoids, and the arithmetic
oracle they are measured against.

The equation under study compares two one-sided composites built from the
encoder's generators: the double-raise side ``g2² · g1^n g2 · g1^s g2``
against the triple-raise side ``g2³ · g1^n g2 · g1^s g2``, each extended by
an unknown word over the generators.  Solvers search unknown words in
shortlex order (length first, then lexicographic with 1 < 2) up to a stated
bound and either return the first witness or report honest exhaustion —
"no solution within the bound" is never strengthened to "no solution".

There is one search per point.  A :class:`Point` (built once per point by
:func:`point`) holds the two equation sides ``a`` and ``b``, the generator
matrices and the word bound.  Both sides keep all their letter counts in the
four control rows, so each side's shortlex tree carries thin matrices
``a·X(x)`` and ``b·X(y)`` and grows by one generator at a time.  The
prefixes route ``c1``, ``c2`` and ``c3`` (and on the ``g2³`` side ``c0``
too) to ``c3``, and :func:`matsem.mat_mul` shares a row among the rows it
was computed for, so a thin matrix holds two distinct rows on the p side
and one on the q side, and each is multiplied once per step.  A subtree
is pruned exactly when its product has become the zero matrix, which no
extension can revive: a zero left side fails the required
nonannihilation, and a zero right side can only equal a zero left side.
The point grows each tree only as deep as a search asks and keeps it, so
the four solvers run on one point walk each tree once.  One loop,
:func:`_search`, serves all four: the first candidate whose products are
equal is the witness, and the level, matrix or morphism, only names how it
was decided.

Matrix level: the two products are equal and nonzero.  Morphism level:
additionally the images behind the counts must agree as words.  For
equation sides the letter supports settle that without materializing
anything: the compared row (``c0``) draws on the two disjoint tagged
halves of the alphabet, so equal counts force both images into powers of
the shared final letter (where counts determine words); the remaining
control rows arise from identical letter trajectories on both sides.  So
every candidate with equal products is a witness at both levels; the
morphism level re-checks the support facts from the data for each one and
raises AssertionError if they ever fail, as it does when a word comparison
contradicts them.

Where control images are materialized, to confirm a bridge verdict, the
same trajectory argument saves work: the prefixes ``g2²`` and ``g2³`` only
route each control letter to a single letter, and only two distinct
letters (``c2`` and ``c3``) come out, so the shared suffix is applied
twice rather than eight times.  Each suffix goes through
:func:`diomorph.encode.apply_generator_word`, which decides the expansion
cap from letter counts and, when the words fit, builds each reachable
letter's image under the remaining stages once instead of every stage
word: the middle stages of a trajectory, which can be far larger than its
end (a power of ``e``), are not built.

The generator matrices are cached on the encoder, and
:func:`equivalence_report` builds one :class:`Point` per point for its four
solvers.  A found witness is re-verified by folding each side's start
matrix along it afresh, row by row with a different kernel from the
search's.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Sequence

from . import matsem, poly
from .encode import (
    CONTROL_LETTERS,
    Encoder,
    apply_generator_word,
    argument_word,
    build_encoder,
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


def box(bound: int, length: int) -> Iterator[tuple[int, ...]]:
    """The tuples of {1..bound}^length in lexicographic order, one at a time:
    unlike ``itertools.product``, nothing the size of ``bound`` is built."""
    point = [1] * length
    while True:
        yield tuple(point)
        i = length - 1
        while i >= 0 and point[i] == bound:
            point[i] = 1
            i -= 1
        if i < 0:
            return
        point[i] += 1


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
    for rest in box(bound, p.arity - 2):
        point = (n, s) + rest
        if poly.evaluate(p, point) == poly.evaluate(q, point):
            return rest
    return None


def extract_argument_tuple(
    dimension: int, n: int, s: int, x: Sequence[int]
) -> tuple[int, ...]:
    """Parse the full equation word (2,2) + stages(n, s) + x back to a tuple.

    ``x`` must be ``dimension - 2`` blocks of ones, each closed by a single
    2, with nothing trailing; the tuple is ``(n, s)`` followed by the block
    lengths.  Raises ValueError otherwise, or when n or s is below 1.
    """
    for entry in (n, s):
        if entry < 1:
            raise ValueError(f"argument entries are positive integers, got {entry}")
    blocks: list[int] = []
    run = 0
    for symbol in x:
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
    if len(blocks) + 2 != dimension:
        raise ValueError(
            f"expected {dimension} argument blocks, found {len(blocks) + 2}"
        )
    return (n, s) + tuple(blocks)


# ---------------------------------------------------------------------------
# One search per point
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

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The witness, or both words of the pair, when found."""
        return ((self.witness,) if self.witness is not None else ()) + (self.pair or ())


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
    Every row is folded on its own, shared or not, so each is checked
    independently of the search's row sharing.
    """
    rows: dict[int, matsem.Vector] = {}
    for i, row in start.rows.items():
        for symbol in x:
            row = matsem.vec_mat(row, step1 if symbol == 1 else step2)
        if row:
            rows[i] = row
    if rows != product.rows:
        raise AssertionError("incremental state diverged")


Node = tuple[tuple[int, ...], matsem.SparseMatrix]
Candidate = tuple[tuple[int, ...], tuple[int, ...], matsem.SparseMatrix, matsem.SparseMatrix]


@dataclass(frozen=True)
class Point:
    """One point's equation: sides ``a``, ``b``, generator matrices ``m1``,
    ``m2``, and the word bound every solver run on the point searches to.

    Each side's shortlex tree of nonzero products is grown one level at a
    time, only as deep as a search asks, and kept, so the solvers run on one
    point share one walk of each tree.
    """

    enc: Encoder
    n: int
    s: int
    max_len: int
    a: matsem.SparseMatrix
    b: matsem.SparseMatrix
    m1: matsem.SparseMatrix
    m2: matsem.SparseMatrix
    _trees: tuple[list[list[Node]], list[list[Node]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.max_len < 0:
            raise ValueError("maximum length must be nonnegative")
        roots = ([[((), side)] if side.rows else []] for side in (self.a, self.b))
        object.__setattr__(self, "_trees", tuple(roots))

    def _level(self, side: int, depth: int) -> list[Node]:
        """The nodes (x, start·X(x)) of one side with |x| == depth and a
        nonzero product, in shortlex order.  Zero products are pruned with
        their subtrees: extensions of the zero matrix stay zero."""
        tree = self._trees[side]
        while len(tree) <= depth:
            tree.append([
                (x + (symbol,), child)
                for x, acc in tree[-1]
                for symbol, step in ((1, self.m1), (2, self.m2))
                if (child := matsem.mat_mul(acc, step)).rows
            ])
        return tree[depth]

    def candidates(self, two: bool) -> Iterator[Candidate]:
        """Every (x, y, a·X(x), b·X(y)) with both products nonzero.

        One unknown (``y == x``): the words live on both sides, in shortlex
        order.  A witness needs ``a·X(x) == b·X(x)`` nonzero, so a word whose
        right product is zero can never be one, and neither can its
        extensions.  Two unknowns: every pair with both words of length
        <= max_len, ordered by (|x|+|y|, x, y); a zero left side fails
        nonannihilation outright, and a zero right side can only match it.
        """
        if two:
            lefts, rights = (
                [node for depth in range(self.max_len + 1) for node in self._level(side, depth)]
                for side in (0, 1)
            )
            yield from sorted(
                ((x, y, left, right) for x, left in lefts for y, right in rights),
                key=lambda c: (len(c[0]) + len(c[1]), c[0], c[1]),
            )
            return
        for depth in range(self.max_len + 1):
            lefts = self._level(0, depth)
            rights = dict(self._level(1, depth)) if lefts else {}
            live = [(x, x, left, rights[x]) for x, left in lefts if x in rights]
            if not live:
                return
            yield from live


def point(enc: Encoder, n: int, s: int, max_len: int) -> Point:
    """The equation at (n, s), searched up to words of length ``max_len``."""
    m1, m2 = matrices(enc)
    a = matsem.p_side_matrix(m1, m2, n, s)
    b = matsem.q_side_matrix(m1, m2, n, s)
    return Point(enc, n, s, max_len, a, b, m1, m2)


def _search(
    pt: Point,
    two: bool,
    level: str,
    decide: Callable[[tuple[int, ...], matsem.SparseMatrix, matsem.SparseMatrix], tuple[str, str]],
) -> SolveResult:
    """The one search loop: the first candidate whose products are equal,
    re-verified by a fresh fold of each side, with the (method, detail) that
    ``decide(x, left, right)`` names for it; otherwise honest exhaustion."""
    for x, y, left, right in pt.candidates(two):
        if left == right:
            method, detail = decide(x, left, right)
            _check_refold(pt.a, pt.m1, pt.m2, x, left)
            _check_refold(pt.b, pt.m1, pt.m2, y, right)
            witness, pair = (None, (x, y)) if two else (x, None)
            return SolveResult("found", level, pt.max_len, witness, pair, method, detail)
    if two:
        detail = f"no pair with both words of length <= {pt.max_len}"
    else:
        detail = f"no witness among generator words of length <= {pt.max_len}"
    method = "product" if level == "matrix" else "parikh-bridge"
    return SolveResult("exhausted", level, pt.max_len, method=method, detail=detail)


# ---------------------------------------------------------------------------
# The four solvers: each names how its witness was decided
# ---------------------------------------------------------------------------


def solve_one_unknown(pt: Point) -> SolveResult:
    """First x in shortlex order with a·X(x) == b·X(x) nonzero, up to the point's bound."""
    verdict = ("product", "re-verified by an independent full product")
    return _search(pt, False, "matrix", lambda *_: verdict)


def solve_two_unknowns(pt: Point) -> SolveResult:
    """First pair (x, y) ordered by (|x|+|y|, x, y) with a·X(x) == b·X(y)
    nonzero, both words of length <= the point's bound."""
    verdict = ("product", "re-verified by independent full products")
    return _search(pt, True, "matrix", lambda *_: verdict)


_BRIDGE = "counts equal; row supports confine both sides to powers of the final letter"


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
    control = set(enc.control_indices)
    if not (control.issuperset(left.rows) and control.issuperset(right.rows)):
        return False
    for matrix_, allowed_c0 in ((left, first), (right, second)):
        for r, row in matrix_.rows.items():
            if not (allowed_c0 if r == c0 else second).issuperset(row):
                return False
    return True


def _word_level_equal(pt: Point, x: Sequence[int], cap: int | None) -> bool | None:
    """Confirm a bridge verdict by comparing the four control images of both
    sides as words, if affordable.

    Both side words end in the same suffix ``argument_word((n, s)) + x``;
    they differ only in the prefix (``g2²`` against ``g2³``), which routes a
    control letter to a single letter: ``c0`` to ``c2`` on one side and to
    ``c3`` on the other, ``c1``, ``c2`` and ``c3`` to ``c3`` on both.  So
    each control letter is routed through its prefix, and the suffix is
    applied once per distinct routed word (memoized within the call): two
    trajectories instead of eight.  The routed words come from the data, so
    were they ever to differ, both sides would be computed.  A reused image
    was computed without tripping the expansion cap, so the verdict is the
    one that eight separate applications give.  Each suffix is applied by
    :func:`diomorph.encode.apply_generator_word`, whose cap verdict is that
    of applying the suffix one stage at a time, though letter counts
    usually decide it before any stage word is built.

    Returns None when materialization exceeds the expansion cap."""
    enc = pt.enc
    argument = argument_word((pt.n, pt.s))
    suffix = argument + tuple(x)
    p_prefix = p_side_word(pt.n, pt.s)[: -len(argument)]
    q_prefix = q_side_word(pt.n, pt.s)[: -len(argument)]
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


def _bridge(enc: Encoder, left: matsem.SparseMatrix, right: matsem.SparseMatrix) -> tuple[str, str]:
    """The morphism-level verdict on equal products: the support facts of
    :func:`_halves_containment` must hold, or the construction is broken."""
    if not _halves_containment(enc, left, right):
        raise AssertionError("equal products whose supports escape the tagged halves")
    return "parikh-bridge", _BRIDGE


def solve_one_unknown_words(pt: Point, cap: int | None = None) -> SolveResult:
    """Morphism-level search: first x making the two side morphisms equal
    and nonannihilating as maps on words."""

    def decide(x, left, right) -> tuple[str, str]:
        method, detail = _bridge(pt.enc, left, right)
        confirmed = _word_level_equal(pt, x, cap)
        if confirmed is False:
            raise AssertionError("support analysis and word comparison disagree")
        return ("parikh-bridge+word" if confirmed else method), detail

    return _search(pt, False, "morphism", decide)


def solve_two_unknowns_words(pt: Point) -> SolveResult:
    """Morphism-level pair search ordered by (|x|+|y|, x, y)."""
    return _search(pt, True, "morphism", lambda x, left, right: _bridge(pt.enc, left, right))


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
        """The fields as plain data, with the polynomials as text and the
        overall verdict added."""
        return {**asdict(self), "p": str(self.p), "q": str(self.q), "all_agree": self.all_agree}

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


def _witness_fault(enc: Encoder, n: int, s: int, result: SolveResult) -> str | None:
    """Validate a found witness: parse it back to a tuple, re-evaluate.
    Returns the caveat of the first word that fails, or None."""
    for w in result.words:
        try:
            full = extract_argument_tuple(enc.dimension, n, s, w)
        except ValueError as exc:
            return f"witness {w} does not parse as an argument chain: {exc}"
        if poly.evaluate(enc.p, full) != poly.evaluate(enc.q, full):
            return f"recovered tuple {full} does not satisfy the equation"
    return None


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
    enc = encoder if encoder is not None else build_encoder(p, q)
    if (enc.p, enc.q) != (p, q):
        raise ValueError("provided encoder was built from different polynomials")
    rows: list[PointVerdict] = []
    for n, s in points:
        oracle_witness = diophantine_oracle(p, q, n, s, oracle_bound)
        pt = point(enc, n, s, solver_bound)
        results = (solve_one_unknown(pt), solve_two_unknowns(pt),
                   solve_one_unknown_words(pt, cap=cap), solve_two_unknowns_words(pt))
        matrix_one, matrix_two, morphism_one, morphism_two = results
        caveats: list[str] = []
        agree = len({r.found for r in results}) == 1
        solver_found = matrix_one.found
        if agree and solver_found != (oracle_witness is not None):
            # a genuine verdict difference, possibly bound-induced: annotate
            agree = False
            if oracle_witness is not None:
                needed = sum(oracle_witness) + len(oracle_witness)  # |argument_word(tuple)|
                if needed > solver_bound:
                    caveats.append(
                        f"oracle witness needs a word of length {needed} "
                        f"> solver bound {solver_bound}"
                    )
            else:
                for r in (matrix_one, morphism_one, matrix_two, morphism_two):
                    for w in r.words:
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
            for result in results:
                fault = _witness_fault(enc, n, s, result)
                if fault is not None:
                    agree = False
                    caveats.append(fault)
            # matrix and morphism searches must recover the same first witness
            if matrix_one.witness != morphism_one.witness:
                agree = False
                caveats.append("matrix and morphism searches disagree on the witness")
            if matrix_two.pair != morphism_two.pair:
                agree = False
                caveats.append("matrix and morphism searches disagree on the pair")
        rows.append(PointVerdict(n, s, oracle_witness, *results, agree, tuple(caveats)))
    notes = (
        "solver exhaustion means no witness within the word bound, "
        "not unsolvability; oracle misses mean no tuple within the box",
    )
    return EquivalenceReport(p, q, oracle_bound, solver_bound, tuple(rows), notes)
