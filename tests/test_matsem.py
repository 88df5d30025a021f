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
    assert matsem.matrix(3, {}).is_zero
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


# ---------------------------------------------------------------- vectors

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


@given(dense3, st.dictionaries(st.integers(0, 2), st.integers(1, 5), max_size=3))
@settings(max_examples=80)
def test_vec_mat_is_mat_vec_of_the_transpose(a, vec):
    transposed = [list(col) for col in zip(*a)]
    assert matsem.vec_mat(vec, matsem.from_dense(a)) == matsem.mat_vec(
        matsem.from_dense(transposed), vec)


# ---------------------------------------------------------------- equation sides

A = matsem.from_dense([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
B = matsem.from_dense([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
# B^2 · X keeps only X's last row, which is zero for every A·B product; a cyclic
# step2 keeps the side matrices nonzero, so that their products are pinned
P = matsem.from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_side_matrices_are_prefixed_products():
    arg = matsem.mat_mul(matsem.mat_mul(matsem.mat_mul(A, P), A), P)  # A^1·P · A^1·P
    assert matsem.p_side_matrix(A, P, 1, 1) == matsem.mat_mul(matsem.mat_pow(P, 2), arg)
    assert matsem.q_side_matrix(A, P, 1, 1) == matsem.mat_mul(matsem.mat_pow(P, 3), arg)
    assert not matsem.p_side_matrix(A, P, 1, 1).is_zero


def test_side_matrices_take_the_counts_as_powers():
    arg = matsem.mat_mul(matsem.mat_mul(matsem.mat_pow(A, 2), P),
                         matsem.mat_mul(matsem.mat_pow(A, 3), P))  # A^2·P · A^3·P
    assert matsem.p_side_matrix(A, P, 2, 3) == matsem.mat_mul(matsem.mat_pow(P, 2), arg)
    assert matsem.p_side_matrix(A, P, 3, 2) != matsem.p_side_matrix(A, P, 2, 3)


@given(dense3, dense3, st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60)
def test_q_side_is_step2_times_p_side(a, b, n, s):
    step1, step2 = matsem.from_dense(a), matsem.from_dense(b)
    assert matsem.q_side_matrix(step1, step2, n, s) == matsem.mat_mul(
        step2, matsem.p_side_matrix(step1, step2, n, s))


def test_side_matrices_reject_mismatched_dimensions():
    with pytest.raises(DimensionMismatch):
        matsem.p_side_matrix(A, N, 1, 1)
    with pytest.raises(DimensionMismatch):
        matsem.q_side_matrix(N, B, 1, 1)


def test_side_matrices_reject_nonpositive_counts():
    with pytest.raises(ValueError):
        matsem.p_side_matrix(A, B, 0, 1)
    with pytest.raises(ValueError):
        matsem.q_side_matrix(A, B, 1, 0)


def test_triangularity_closed_under_product():
    def upper_triangular(m):
        return all(c >= r for r, c, _ in m.entries)

    assert upper_triangular(A) and upper_triangular(B)
    assert upper_triangular(matsem.mat_mul(A, B))
    assert upper_triangular(matsem.p_side_matrix(A, B, 2, 3))


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
    return ref_matrix(len(g.alphabet), [
        (i, j, n) for i, img in enumerate(g.images) for j, n in morph.parikh_vector(img).items()])


values = st.one_of(st.integers(1, 3), st.integers(10**20, 10**30))


@st.composite
def triplet_pairs(draw):
    """A dimension, two matrices' rows and a vector; small sizes leave rows empty.

    A matrix is drawn either cell by cell, any canonical k×k matrix, or row
    by row from a pool of up to k row objects, so that rows can be one
    object, adjacent or apart, as products share them.  The pool favours
    one-entry rows, with value 1 or a larger one, which a product takes from
    its right factor, as they are or scaled."""
    k = draw(st.integers(1, 5))
    col = st.integers(0, k - 1)
    row = st.one_of(st.builds(lambda c: {c: 1}, col),
                    st.builds(lambda c, v: {c: v}, col, values),
                    st.dictionaries(col, values, min_size=1, max_size=k))

    def by_cells():
        rows: dict[int, dict[int, int]] = {}
        for (r, c), v in draw(st.dictionaries(st.tuples(col, col), values, max_size=k * k)).items():
            rows.setdefault(r, {})[c] = v
        return rows

    def from_pool():
        pool = draw(st.lists(row, min_size=1, max_size=k))
        picks = draw(st.lists(st.integers(-1, len(pool) - 1), min_size=k, max_size=k))
        return {i: pool[j] for i, j in enumerate(picks) if j >= 0}  # -1: an empty row

    def rows():
        return from_pool() if draw(st.booleans()) else by_cells()

    vec = draw(st.dictionaries(col, values, max_size=k))
    return k, rows(), rows(), vec


def triplets(rows):
    return tuple(sorted((r, c, v) for r, row in rows.items() for c, v in row.items()))


@given(triplet_pairs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rows_agree_with_triplet_reference(data):
    k, rows_a, rows_b, vec = data
    ea, eb = triplets(rows_a), triplets(rows_b)
    a, b = matsem.SparseMatrix(k, ea), matsem.SparseMatrix(k, eb)
    ra, rb = RefMatrix(k, ea), RefMatrix(k, eb)
    assert a.entries == ra.entries and a.rows == ra.rows
    # the same matrices on the drawn row objects, shared where the draw shares them
    sa, sb = matsem._from_rows(k, rows_a), matsem._from_rows(k, rows_b)
    assert sa == a and sb == b
    cases = [(matsem.mat_mul(sa, sb), ref_mat_mul(ra, rb)),
             (matsem.mat_mul(sb, sa), ref_mat_mul(rb, ra)),
             (matsem.mat_mul(matsem.mat_mul(sa, sb), sa), ref_mat_mul(ref_mat_mul(ra, rb), ra)),
             (matsem.mat_mul(sb, matsem.mat_mul(sa, sb)), ref_mat_mul(rb, ref_mat_mul(ra, rb)))]
    cases += [(matsem.mat_pow(sa, n), ref_mat_pow(ra, n)) for n in range(5)]
    for got, want in cases:
        assert got.entries == want.entries and got.rows == want.rows
        assert got == matsem.SparseMatrix(k, want.entries)
        assert hash(got) == hash(matsem.SparseMatrix(k, want.entries))
    # products share rows with their factors and leave them as they were
    # (the factors' entries are first computed here)
    assert sa.entries == ea and sb.entries == eb
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
