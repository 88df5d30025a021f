"""Exact sparse matrix algebra over nonnegative big integers.

Matrices here are the letter-counting images of word morphisms: entry (i, j)
says how many times letter j occurs in the image of letter i.  Dimensions
reach a few thousand while rows stay short, and entries grow without bound
under products, so the representation is a canonical sorted triplet tuple
(row, col, value) with arbitrary-precision values and no stored zeros.
Structural equality is matrix equality.

Besides the generic algebra (product, power, Kronecker product, transpose)
this module builds the equation-side matrices used by the bounded solvers:
left folds of the two generator matrices following the same recipes as the
word-level equation sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch

Vector = dict[int, int]  # sparse, index -> nonzero value


@dataclass(frozen=True)
class SparseMatrix:
    dimension: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        assert self.dimension >= 1
        prev = None
        for row, col, value in self.entries:
            assert 0 <= row < self.dimension and 0 <= col < self.dimension
            assert value > 0, "entries are positive (zeros are never stored)"
            assert prev is None or (row, col) > prev, "entries must be sorted with unique positions"
            prev = (row, col)

    @cached_property
    def rows(self) -> dict[int, Vector]:
        table: dict[int, Vector] = {}
        for row, col, value in self.entries:
            table.setdefault(row, {})[col] = value
        return table

    def entry(self, row: int, col: int) -> int:
        return self.rows.get(row, {}).get(col, 0)

    def row_of(self, row: int) -> Vector:
        return dict(self.rows.get(row, {}))

    def col_of(self, col: int) -> Vector:
        return {r: v for r, c, v in self.entries if c == col}

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        if self.dimension > 12:
            return f"<{self.dimension}x{self.dimension} sparse, {len(self.entries)} entries>"
        grid = [[str(self.entry(i, j)) for j in range(self.dimension)] for i in range(self.dimension)]
        width = max(len(s) for row in grid for s in row)
        return "\n".join(" ".join(s.rjust(width) for s in row) for row in grid)


def matrix(dimension: int, data: Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]]) -> SparseMatrix:
    """Build a matrix from (row, col) -> value data, dropping zeros."""
    if isinstance(data, Mapping):
        items = [(r, c, v) for (r, c), v in data.items()]
    else:
        items = [(r, c, v) for r, c, v in data]
    acc: dict[tuple[int, int], int] = {}
    for r, c, v in items:
        if v < 0:
            raise ValueError(f"negative entry {v} at ({r}, {c})")
        if v:
            acc[(r, c)] = acc.get((r, c), 0) + v
    return SparseMatrix(dimension, tuple(sorted((r, c, v) for (r, c), v in acc.items() if v)))


def from_dense(rows: Sequence[Sequence[int]]) -> SparseMatrix:
    k = len(rows)
    return matrix(k, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v})


def identity(dimension: int) -> SparseMatrix:
    return matrix(dimension, {(i, i): 1 for i in range(dimension)})


def zeros(dimension: int) -> SparseMatrix:
    return matrix(dimension, {})


def _require_same_dimension(a: SparseMatrix, b: SparseMatrix) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions {a.dimension} and {b.dimension} differ")


def mat_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    _require_same_dimension(a, b)
    b_rows = b.rows
    acc: dict[tuple[int, int], int] = {}
    for i, arow in a.rows.items():
        out: Vector = {}
        for mid, av in arow.items():
            for j, bv in b_rows.get(mid, {}).items():
                out[j] = out.get(j, 0) + av * bv
        for j, v in out.items():
            if v:
                acc[(i, j)] = v
    return SparseMatrix(a.dimension, tuple(sorted((r, c, v) for (r, c), v in acc.items())))


def mat_pow(a: SparseMatrix, n: int) -> SparseMatrix:
    """a^n by binary exponentiation; a^0 is the identity."""
    if n < 0:
        raise ValueError("negative matrix power")
    result = identity(a.dimension)
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Kronecker product; dimension multiplies."""
    k = b.dimension
    items = [
        (ra * k + rb, ca * k + cb, va * vb)
        for ra, ca, va in a.entries
        for rb, cb, vb in b.entries
    ]
    return matrix(a.dimension * k, items)


def transpose(a: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(a.dimension, tuple(sorted((c, r, v) for r, c, v in a.entries)))


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
    out: Vector = {}
    for r, c, v in a.entries:
        x = vec.get(c)
        if x:
            out[r] = out.get(r, 0) + v * x
    return {i: v for i, v in out.items() if v}


def is_upper_triangular(a: SparseMatrix) -> bool:
    return all(col >= row for row, col, _ in a.entries)


# ------------------------------------------------------------------ equation sides
#
# The solvers compare two one-sided products of the generator matrices.  Both
# sides share the suffix  (step₁)^{n₁} · step₂ · … · (step₁)^{n_α} · step₂
# and differ only in the prefix (step₂² versus step₂³).  Folding from the
# left keeps every intermediate as thin as the prefix (few nonzero rows),
# which is what makes the bounded search cheap.

def _fold_argument(start: SparseMatrix, step1: SparseMatrix, step2: SparseMatrix,
                   counts: Sequence[int]) -> SparseMatrix:
    if not counts:
        raise ValueError("argument product needs at least one count")
    if any(n < 1 for n in counts):
        raise ValueError("argument counts must be positive")
    acc = start
    for n in counts:
        for _ in range(n):
            acc = mat_mul(acc, step1)
        acc = mat_mul(acc, step2)
    return acc


def argument_matrix(step1: SparseMatrix, step2: SparseMatrix, counts: Sequence[int]) -> SparseMatrix:
    """step1^{n₁}·step2 ⋯ step1^{n_α}·step2 for counts (n₁..n_α)."""
    _require_same_dimension(step1, step2)
    return _fold_argument(identity(step1.dimension), step1, step2, counts)


def p_side_matrix(step1: SparseMatrix, step2: SparseMatrix, n: int, s: int) -> SparseMatrix:
    """step2² · argument_matrix(n, s): the left side of the matrix equation."""
    _require_same_dimension(step1, step2)
    return _fold_argument(mat_pow(step2, 2), step1, step2, (n, s))


def q_side_matrix(step1: SparseMatrix, step2: SparseMatrix, n: int, s: int) -> SparseMatrix:
    """step2³ · argument_matrix(n, s): the right side of the matrix equation."""
    _require_same_dimension(step1, step2)
    return _fold_argument(mat_pow(step2, 3), step1, step2, (n, s))
