import random
from dataclasses import dataclass
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from diomorph import lang, matsem, morph
from diomorph.errors import DimensionMismatch

N = matsem.from_dense([[1, 1], [0, 1]])


# ---------------------------------------------------------------- dense oracle

def dense(m):
    return [[m.entry(i, j) for j in range(m.dimension)] for i in range(m.dimension)]


def dense_mul(a, b):
    k = len(a)
    return [[sum(a[i][x] * b[x][j] for x in range(k)) for j in range(k)] for i in range(k)]


def dense_kron(a, b):
    ka, kb = len(a), len(b)
    out = [[0] * (ka * kb) for _ in range(ka * kb)]
    for i in range(ka):
        for j in range(ka):
            for x in range(kb):
                for y in range(kb):
                    out[i * kb + x][j * kb + y] = a[i][j] * b[x][y]
    return out


small = st.integers(0, 6)
dense3 = st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3)


# ---------------------------------------------------------------- construction

def test_normal_form_drops_zeros():
    m = matsem.matrix(2, {(0, 0): 1, (0, 1): 0})
    assert m.entries == ((0, 0, 1),)
    assert m.entry(0, 1) == 0


def test_negative_entry_rejected():
    with pytest.raises(ValueError):
        matsem.matrix(2, {(0, 0): -1})


def test_identity_and_zero():
    i3 = matsem.identity(3)
    assert dense(i3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matsem.zeros(3).is_zero
    assert not i3.is_zero


def test_row_and_col_access():
    m = matsem.from_dense([[0, 2], [3, 0]])
    assert m.row_of(0) == {1: 2}
    assert m.col_of(0) == {1: 3}


# ---------------------------------------------------------------- mul / pow

def test_mul_identity_neutral():
    m = matsem.from_dense([[1, 2], [0, 5]])
    assert matsem.mat_mul(m, matsem.identity(2)) == m
    assert matsem.mat_mul(matsem.identity(2), m) == m


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matsem.mat_mul(matsem.identity(2), matsem.identity(3))


@given(dense3, dense3)
@settings(max_examples=120)
def test_mul_matches_dense_oracle(a, b):
    got = matsem.mat_mul(matsem.from_dense(a), matsem.from_dense(b))
    assert dense(got) == dense_mul(a, b)


def test_unipotent_power_closed_form():
    # [[1,1],[0,1]]^n = [[1,n],[0,1]], including an astronomically large n
    for n in [0, 1, 2, 7, 40]:
        assert dense(matsem.mat_pow(N, n)) == [[1, n], [0, 1]]
    big = 10**30
    assert matsem.mat_pow(N, big).entry(0, 1) == big


@given(dense3, st.integers(0, 6))
@settings(max_examples=60)
def test_pow_is_repeated_mul(a, n):
    m = matsem.from_dense(a)
    expected = matsem.identity(3)
    for _ in range(n):
        expected = matsem.mat_mul(expected, m)
    assert matsem.mat_pow(m, n) == expected


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        matsem.mat_pow(N, -1)


# ---------------------------------------------------------------- kron / transpose / vectors

def test_kron_matches_dense_oracle():
    rng = random.Random(3)
    for _ in range(20):
        a = [[rng.randint(0, 4) for _ in range(2)] for _ in range(2)]
        b = [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]
        got = matsem.kron(matsem.from_dense(a), matsem.from_dense(b))
        assert dense(got) == dense_kron(a, b)


def test_kron_of_unipotent_cubed():
    nn = matsem.kron(N, N)
    assert matsem.mat_pow(nn, 3).entry(0, 3) == 9


def test_transpose_involution():
    m = matsem.from_dense([[0, 2, 1], [0, 0, 3], [0, 0, 0]])
    assert matsem.transpose(matsem.transpose(m)) == m
    assert matsem.transpose(m).entry(1, 0) == 2


@given(dense3, st.dictionaries(st.integers(0, 2), st.integers(1, 5), max_size=3))
@settings(max_examples=80)
def test_vec_mat_matches_dense(a, vec):
    m = matsem.from_dense(a)
    got = matsem.vec_mat(vec, m)
    for j in range(3):
        expected = sum(vec.get(i, 0) * a[i][j] for i in range(3))
        assert got.get(j, 0) == expected


@given(dense3, st.dictionaries(st.integers(0, 2), st.integers(1, 5), max_size=3))
@settings(max_examples=80)
def test_mat_vec_matches_dense(a, vec):
    m = matsem.from_dense(a)
    got = matsem.mat_vec(m, vec)
    for i in range(3):
        expected = sum(a[i][j] * vec.get(j, 0) for j in range(3))
        assert got.get(i, 0) == expected


def test_upper_triangular_predicate():
    assert matsem.is_upper_triangular(N)
    assert matsem.is_upper_triangular(matsem.identity(4))
    assert not matsem.is_upper_triangular(matsem.from_dense([[0, 0], [1, 0]]))


# ---------------------------------------------------------------- equation sides

A = matsem.from_dense([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
B = matsem.from_dense([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_argument_matrix_single_count():
    assert matsem.argument_matrix(A, B, [2]) == matsem.mat_mul(matsem.mat_pow(A, 2), B)


def test_argument_matrix_two_counts():
    expected = matsem.mat_mul(matsem.mat_mul(matsem.mat_mul(A, B), A), B)
    assert matsem.argument_matrix(A, B, [1, 1]) == expected


def test_side_matrices_are_prefixed_products():
    arg = matsem.argument_matrix(A, B, [1, 1])
    assert matsem.p_side_matrix(A, B, 1, 1) == matsem.mat_mul(matsem.mat_pow(B, 2), arg)
    assert matsem.q_side_matrix(A, B, 1, 1) == matsem.mat_mul(matsem.mat_pow(B, 3), arg)


def test_argument_matrix_rejects_bad_counts():
    with pytest.raises(ValueError):
        matsem.argument_matrix(A, B, [])
    with pytest.raises(ValueError):
        matsem.argument_matrix(A, B, [0])


def test_triangularity_closed_under_product():
    assert matsem.is_upper_triangular(matsem.mat_mul(A, B))
    assert matsem.is_upper_triangular(matsem.p_side_matrix(A, B, 2, 3))


# ---------------------------------------------------------------- typed errors

# each bad matrix, with the error type and message it must raise
BAD_MATRICES = {
    "dimension 0": (
        "matsem.SparseMatrix(0, ())", "InvalidMatrix: dimension must be positive, got 0"),
    "identity of dimension 0": (
        "matsem.identity(0)", "InvalidMatrix: dimension must be positive, got 0"),
    "index out of range": (
        "matsem.SparseMatrix(2, ((0, 2, 1),))", "InvalidMatrix: position (0, 2) outside a 2x2 matrix"),
    "zero value": (
        "matsem.SparseMatrix(2, ((0, 1, 0),))", "InvalidMatrix: entry 0 at (0, 1) is not positive"),
    "negative value": (
        "matsem.SparseMatrix(2, ((1, 0, -4),))", "InvalidMatrix: entry -4 at (1, 0) is not positive"),
    "unsorted positions": (
        "matsem.SparseMatrix(2, ((1, 0, 1), (0, 1, 1)))",
        "InvalidMatrix: entries must be sorted with unique positions: (0, 1) after (1, 0)"),
    "duplicate position": (
        "matsem.SparseMatrix(2, ((0, 1, 1), (0, 1, 2)))",
        "InvalidMatrix: entries must be sorted with unique positions: (0, 1) after (0, 1)"),
    "matrix with a negative entry": (
        "matsem.matrix(2, {(0, 0): 1, (1, 1): -1})", "InvalidMatrix: entry -1 at (1, 1) is not positive"),
    "document entry out of range": (
        "interchange.matrix_from_doc({'dimension': 2, 'entries': [[0, 0, '1'], [3, 1, '2']]})",
        "InvalidMatrix: position (3, 1) outside a 2x2 matrix"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_bad_matrices_raise_typed_errors(flags, run_python):
    # the checks raise rather than assert, so `python -O` must not change them;
    # one interpreter per flag runs every case of the table
    cases = sorted(BAD_MATRICES)
    code = "from diomorph import interchange, matsem\n" + "".join(
        f"try:\n    {BAD_MATRICES[case][0]}\n    print('no error')\n"
        "except ValueError as exc:\n    print(f'{type(exc).__name__}: {exc}')\n"
        for case in cases)
    run = run_python(*flags, "-c", code, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert dict(zip(cases, run.stdout.splitlines())) == {c: BAD_MATRICES[c][1] for c in cases}


# ---------------------------------------------------------------- the triplet reference
#
# The previous representation, kept as the reference for the row-major one: a
# canonical sorted triplet tuple checked by asserts, rows rebuilt from it on
# demand, products sorted back into triplets, and matrix_of counting letters
# through parikh_vector.

@dataclass(frozen=True)
class RefMatrix:
    dimension: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        assert self.dimension >= 1
        prev = None
        for row, col, value in self.entries:
            assert 0 <= row < self.dimension and 0 <= col < self.dimension
            assert value > 0
            assert prev is None or (row, col) > prev
            prev = (row, col)

    @cached_property
    def rows(self):
        table = {}
        for row, col, value in self.entries:
            table.setdefault(row, {})[col] = value
        return table

    def col_of(self, col):
        return {r: v for r, c, v in self.entries if c == col}


def ref_matrix(dimension, items):
    acc = {}
    for r, c, v in items:
        if v:
            acc[(r, c)] = acc.get((r, c), 0) + v
    return RefMatrix(dimension, tuple(sorted((r, c, v) for (r, c), v in acc.items())))


def ref_mat_mul(a, b):
    acc = {}
    for i, arow in a.rows.items():
        out = {}
        for mid, av in arow.items():
            for j, bv in b.rows.get(mid, {}).items():
                out[j] = out.get(j, 0) + av * bv
        for j, v in out.items():
            if v:
                acc[(i, j)] = v
    return RefMatrix(a.dimension, tuple(sorted((r, c, v) for (r, c), v in acc.items())))


def ref_mat_pow(a, n):
    result = ref_matrix(a.dimension, [(i, i, 1) for i in range(a.dimension)])
    for _ in range(n):
        result = ref_mat_mul(result, a)
    return result


def ref_vec_mat(vec, a):
    out = {}
    for i, x in vec.items():
        for j, v in a.rows.get(i, {}).items():
            out[j] = out.get(j, 0) + x * v
    return {j: v for j, v in out.items() if v}


def ref_mat_vec(a, vec):
    out = {}
    for r, c, v in a.entries:
        if vec.get(c):
            out[r] = out.get(r, 0) + v * vec[c]
    return {i: v for i, v in out.items() if v}


def ref_matrix_of(g):
    return ref_matrix(len(g.domain), [
        (i, j, n) for i, img in enumerate(g.images) for j, n in morph.parikh_vector(img).items()])


values = st.one_of(st.integers(1, 3), st.integers(10**20, 10**30))


@st.composite
def triplet_pairs(draw):
    """A dimension and two canonical triplet tuples; small sizes leave rows empty."""
    k = draw(st.integers(1, 5))
    cell = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))

    def triplets():
        cells = draw(st.dictionaries(cell, values, max_size=k * k))
        return tuple(sorted((r, c, v) for (r, c), v in cells.items()))

    vec = draw(st.dictionaries(st.integers(0, k - 1), values, max_size=k))
    return k, triplets(), triplets(), vec


@given(triplet_pairs(), st.integers(0, 4))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rows_agree_with_triplet_reference(data, n):
    k, ea, eb, vec = data
    a, b = matsem.SparseMatrix(k, ea), matsem.SparseMatrix(k, eb)
    ra, rb = RefMatrix(k, ea), RefMatrix(k, eb)
    assert a.entries == ra.entries and a.rows == ra.rows
    for got, want in ((matsem.mat_mul(a, b), ref_mat_mul(ra, rb)),
                      (matsem.mat_mul(b, a), ref_mat_mul(rb, ra)),
                      (matsem.mat_pow(a, n), ref_mat_pow(ra, n))):
        assert got.entries == want.entries and got.rows == want.rows
        assert got == matsem.SparseMatrix(k, want.entries)
        assert hash(got) == hash(matsem.SparseMatrix(k, want.entries))
    assert matsem.vec_mat(vec, a) == ref_vec_mat(vec, ra)
    assert matsem.mat_vec(a, vec) == ref_mat_vec(ra, vec)
    assert all(a.col_of(j) == ra.col_of(j) for j in range(k))
    assert (a == b) == (ra == rb)
    # equal matrices built along different paths are equal and hash alike
    shuffled = matsem.matrix(k, list(reversed(ea)) + [(0, 0, 0)])
    assert shuffled == a and hash(shuffled) == hash(a)
    assert a != matsem.SparseMatrix(k + 1, ea)


@st.composite
def endomorphisms(draw):
    """Endomorphisms whose images repeat letters in several runs."""
    k = draw(st.integers(1, 4))
    Z = lang.flat_alphabet([f"z{i}" for i in range(k)])
    runs = st.lists(st.tuples(st.sampled_from(Z.letters), values), max_size=6)
    return morph.endomorphism(Z, {z: lang.word_from_runs(Z, draw(runs)) for z in Z.letters})


@given(endomorphisms())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_matrix_of_agrees_with_parikh_reference(g):
    got, want = morph.matrix_of(g), ref_matrix_of(g)
    assert got.entries == want.entries and got.rows == want.rows


def test_matrix_of_sums_repeated_runs():
    Z = lang.flat_alphabet(["z1", "z2", "z3"])
    g = morph.endomorphism(Z, {
        "z1": lang.parse_word(Z, "z2 z1^3 z2^4 z1"), "z2": lang.epsilon(Z), "z3": lang.parse_word(Z, "z3")})
    assert morph.matrix_of(g).rows == {0: {1: 5, 0: 4}, 2: {2: 1}}
