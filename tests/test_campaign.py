"""The paper's central claim on randomly drawn instances.

For a pair (p, q), the one-unknown equation a·X(x) = b·X(x) at (n, s) is
solvable exactly where p = q has a solution with the first two arguments
pinned to (n, s).  Each drawn pair is compiled once and checked at a few
points with certificates in both directions: every tuple of the oracle's
box is mapped straight to its word and folded through the sides (no
search), and every solver witness is parsed back to a tuple and evaluated.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diomorph import encode, matsem, poly, solve

T = 3
ORACLE_BOX = 4
SOLVER_BOUND = 8


@st.composite
def polynomials(draw):
    """Three variables, total degree <= 2, coefficients 1 or 2, at least one term."""
    exponents = [e for e in itertools.product(range(3), repeat=T) if sum(e) <= 2]
    terms = draw(st.lists(
        st.tuples(st.sampled_from(exponents), st.integers(min_value=1, max_value=2)),
        min_size=1, max_size=3, unique_by=lambda term: term[0]))
    return poly.polynomial(T, terms)


def _fold(side: matsem.SparseMatrix, m1, m2, x) -> matsem.SparseMatrix:
    """side·X(x), one row at a time."""
    rows = {}
    for i, row in side.rows.items():
        for symbol in x:
            row = matsem.vec_mat(row, m1 if symbol == 1 else m2)
        rows.update({(i, j): v for j, v in row.items()})
    return matsem.matrix(side.dimension, rows)


def _bounded(row: solve.PointVerdict) -> bool:
    return any("bound" in caveat for caveat in row.caveats)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(p=polynomials(), q=polynomials(),
       points=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                       min_size=2, max_size=3, unique=True))
@example(p=poly.mul(poly.constant(2, T), poly.variable(2, T)), q=poly.variable(3, T), points=[(1, 3), (1, 1)])
def test_solver_verdicts_agree_with_the_oracle_on_random_pairs(p, q, points):
    enc = encode.build_encoder(p, q)
    report = solve.equivalence_report(p, q, points, ORACLE_BOX, SOLVER_BOUND, encoder=enc)
    m1, m2 = encode.matrices(enc)
    for (n, s), row in zip(points, report.rows):
        pt = solve.point(enc, n, s, 0)
        # every tuple of the box: its word solves the equation exactly when the tuple solves p = q
        for rest in itertools.product(range(1, ORACLE_BOX + 1), repeat=T - 2):
            x = encode.argument_word(rest)
            left, right = _fold(pt.a, m1, m2, x), _fold(pt.b, m1, m2, x)
            full = (n, s) + rest
            if poly.evaluate(p, full) == poly.evaluate(q, full):
                assert left == right and left.rows, (str(p), str(q), full)
                assert solve._halves_containment(enc, left, right), (str(p), str(q), full)
            else:
                assert left != right, (str(p), str(q), full)
        # every solver witness parses back to a tuple with p = q
        for result in (row.matrix_one, row.matrix_two, row.morphism_one, row.morphism_two):
            for w in result.words:
                full = solve.extract_argument_tuple(T, n, s, w)
                assert poly.evaluate(p, full) == poly.evaluate(q, full), (str(p), str(q), w)
        assert row.agree or _bounded(row), (str(p), str(q), n, s, row.caveats)
