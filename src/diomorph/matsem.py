"""Exact sparse matrix algebra over nonnegative big integers.

Matrices here are the letter-counting images of word morphisms: entry (i, j)
says how many times letter j occurs in the image of letter i.  Dimensions
reach a few thousand while rows stay short, and entries grow without bound
under products, so a matrix is stored as canonical rows (row -> col -> value,
no zeros, no empty rows): dict equality is matrix equality.  ``entries`` (the
sorted triplets) and ``cols`` (the columns) are cached views.  Matrices are
validated where they come from outside; products build their rows directly.

Rows are shared, not copied: a product computes each distinct row of its
left factor once and shares row objects with its factors (see
:func:`mat_mul`), as ``morph.matrix_of`` shares ``Word.counts``, so no row
may be mutated.

Besides the generic algebra (product, power, vector products) this module
builds the equation-side matrices used by the bounded solvers: left folds of
the two generator matrices following the same recipes as the word-level
equation sides.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, InvalidMatrix

Vector = dict[int, int]  # sparse, index -> nonzero value


def _checked_rows(dimension: int, items: Iterable[tuple[int, int, int]], canonical: bool) -> dict[int, Vector]:
    """Rows of triplets: positive, sorted and unique if canonical, else zeros dropped, repeats summed."""
    if dimension < 1:
        raise InvalidMatrix(f"dimension must be positive, got {dimension}")
    rows: dict[int, Vector] = {}
    prev = (-1, -1)
    for r, c, v in items:
        if not (0 <= r < dimension and 0 <= c < dimension):
            raise InvalidMatrix(f"position ({r}, {c}) outside a {dimension}x{dimension} matrix")
        if v < 0 or (canonical and not v):
            raise InvalidMatrix(f"entry {v} at ({r}, {c}) is not positive")
        if canonical and (r, c) <= prev:
            raise InvalidMatrix(f"entries must be sorted with unique positions: ({r}, {c}) after {prev}")
        prev = (r, c)
        if v:
            row = rows.setdefault(r, {})
            row[c] = row.get(c, 0) + v
    return rows


class SparseMatrix:
    """A square matrix in canonical rows, built from canonical triplets:
    positive values, sorted, at unique positions.  Treat it as immutable:
    products share row objects with their factors, so no row may be
    mutated."""

    def __init__(self, dimension: int, entries: Iterable[tuple[int, int, int]]):
        self.dimension = dimension
        self.rows: dict[int, Vector] = _checked_rows(dimension, entries, canonical=True)

    @cached_property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted((r, c, v) for r, row in self.rows.items() for c, v in row.items()))

    @cached_property
    def cols(self) -> dict[int, Vector]:
        table: dict[int, Vector] = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                table.setdefault(c, {})[r] = v
        return table

    def entry(self, row: int, col: int) -> int:
        return self.rows.get(row, {}).get(col, 0)

    def row_of(self, row: int) -> Vector:
        return dict(self.rows.get(row, {}))

    def col_of(self, col: int) -> Vector:
        return dict(self.cols.get(col, {}))

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparseMatrix) and (self.dimension, self.rows) == (other.dimension, other.rows)

    def __hash__(self) -> int:
        return hash((self.dimension, self.entries))

    def __str__(self) -> str:
        if self.dimension > 12:
            return f"<{self.dimension}x{self.dimension} sparse, {sum(map(len, self.rows.values()))} entries>"
        grid = [[str(self.entry(i, j)) for j in range(self.dimension)] for i in range(self.dimension)]
        width = max(len(s) for row in grid for s in row)
        return "\n".join(" ".join(s.rjust(width) for s in row) for row in grid)


def _from_rows(dimension: int, rows: dict[int, Vector]) -> SparseMatrix:
    """Matrix from rows that are already canonical; nothing is re-checked."""
    m = object.__new__(SparseMatrix)
    m.dimension, m.rows = dimension, rows
    return m


def matrix(dimension: int, data: Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]]) -> SparseMatrix:
    """Build a matrix from (row, col) -> value data or triplets, dropping zeros."""
    items = ((r, c, v) for (r, c), v in data.items()) if isinstance(data, Mapping) else data
    return _from_rows(dimension, _checked_rows(dimension, items, canonical=False))


def from_dense(rows: Sequence[Sequence[int]]) -> SparseMatrix:
    k = len(rows)
    return matrix(k, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v})


def identity(dimension: int) -> SparseMatrix:
    return matrix(dimension, ((i, i, 1) for i in range(dimension)))


def _require_same_dimension(a: SparseMatrix, b: SparseMatrix) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions {a.dimension} and {b.dimension} differ")


def mat_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a·b; a run of consecutive rows of ``a`` that are one object gets one
    product row, and a one-entry row ``{mid: 1}`` takes b's row ``mid``
    itself, so products share row objects with their factors."""
    _require_same_dimension(a, b)
    b_rows = b.rows
    rows: dict[int, Vector] = {}
    last = out = None
    for i, arow in a.rows.items():
        if arow is not last:
            last = arow
            if len(arow) == 1:
                (mid, av), = arow.items()
                out = b_rows.get(mid)
                if out and av != 1:
                    out = {j: av * bv for j, bv in out.items()}
            else:
                out = {}
                for mid, av in arow.items():
                    brow = b_rows.get(mid)
                    if brow:
                        for j, bv in brow.items():
                            out[j] = out.get(j, 0) + av * bv
        if out:  # entries are positive, so sums of products are never zero
            rows[i] = out
    return _from_rows(a.dimension, rows)


def mat_pow(a: SparseMatrix, n: int) -> SparseMatrix:
    """a^n by binary exponentiation, starting from the first factor; a^0 is
    the identity."""
    if n < 0:
        raise ValueError("negative matrix power")
    if not n:
        return _from_rows(a.dimension, {i: {i: 1} for i in range(a.dimension)})  # a checked the dimension
    result = None
    base = a
    while True:
        if n & 1:
            result = base if result is None else mat_mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mat_mul(base, base)


def vec_mat(vec: Mapping[int, int], a: SparseMatrix) -> Vector:
    """Row vector times matrix — the letter-count transport step."""
    rows = a.rows
    out: Vector = {}
    for i, x in vec.items():
        for j, v in rows.get(i, {}).items():
            out[j] = out.get(j, 0) + x * v
    return {j: v for j, v in out.items() if v}


def mat_vec(a: SparseMatrix, vec: Mapping[int, int]) -> Vector:
    """Matrix times column vector (transposed transport, used on columns)."""
    cols = a.cols
    out: Vector = {}
    for j, x in vec.items():
        for i, v in cols.get(j, {}).items():
            out[i] = out.get(i, 0) + v * x
    return {i: v for i, v in out.items() if v}


# ------------------------------------------------------------------ equation sides
#
# The solvers compare two one-sided products of the generator matrices.  Both
# sides share the suffix  (step₁)^{n₁} · step₂ · … · (step₁)^{n_α} · step₂
# and differ only in the prefix (step₂² versus step₂³).  Folding from the
# left keeps every intermediate as thin as the prefix (few nonzero rows),
# which is what makes the bounded search cheap.

def _fold_argument(start: SparseMatrix, step1: SparseMatrix, step2: SparseMatrix,
                   counts: Sequence[int]) -> SparseMatrix:
    if any(n < 1 for n in counts):
        raise ValueError("argument counts must be positive")
    acc = start
    for n in counts:
        for _ in range(n):
            acc = mat_mul(acc, step1)
        acc = mat_mul(acc, step2)
    return acc


def p_side_matrix(step1: SparseMatrix, step2: SparseMatrix, n: int, s: int) -> SparseMatrix:
    """step2² · step1^n·step2 · step1^s·step2: the left side of the matrix equation."""
    _require_same_dimension(step1, step2)
    return _fold_argument(mat_pow(step2, 2), step1, step2, (n, s))


def q_side_matrix(step1: SparseMatrix, step2: SparseMatrix, n: int, s: int) -> SparseMatrix:
    """step2³ · step1^n·step2 · step1^s·step2: the right side of the matrix equation."""
    _require_same_dimension(step1, step2)
    return _fold_argument(mat_pow(step2, 3), step1, step2, (n, s))
