import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from diomorph import poly
from diomorph.errors import ArityMismatch


# ---------------------------------------------------------------- oracle

def eval_terms(terms, point):
    # independent reference evaluator: plain dict of exponents -> coeff
    total = 0
    for exps, coeff in terms:
        v = coeff
        for x, e in zip(point, exps):
            v *= x**e
        total += v
    return total


def pairing_ref(x, y):
    return (x + y) ** 2 + x


# ---------------------------------------------------------------- construction

def test_normal_form_merges_and_sorts():
    p = poly.polynomial(2, [((1, 0), 2), ((0, 1), 1), ((1, 0), 3)])
    assert p.terms == (((0, 1), 1), ((1, 0), 5))


def test_zero_coefficients_dropped():
    p = poly.polynomial(1, [((2,), 0), ((1,), 4)])
    assert p.terms == (((1,), 4),)
    assert poly.polynomial(1, {}).is_zero


def test_negative_coefficient_rejected():
    with pytest.raises(ValueError):
        poly.polynomial(1, [((1,), -1)])


def test_variable_and_constant():
    x2 = poly.variable(2, 3)
    assert poly.evaluate(x2, (5, 7, 11)) == 7
    assert poly.evaluate(poly.constant(9, 2), (3, 4)) == 9
    with pytest.raises(ArityMismatch):
        poly.variable(4, 3)


# ---------------------------------------------------------------- add / mul

def test_add_merges_like_terms():
    x1 = poly.variable(1, 1)
    assert poly.add(x1, x1) == poly.polynomial(1, {(1,): 2})


def test_add_identity():
    p = poly.polynomial(2, {(1, 1): 3, (0, 0): 2})
    assert poly.add(p, poly.zero(2)) == p


def test_add_hand_expansion():
    # (x1^2 + x2) + (x2 + 3) = x1^2 + 2 x2 + 3
    a = poly.polynomial(2, {(2, 0): 1, (0, 1): 1})
    b = poly.polynomial(2, {(0, 1): 1, (0, 0): 3})
    s = poly.add(a, b)
    assert s == poly.polynomial(2, {(2, 0): 1, (0, 1): 2, (0, 0): 3})
    rng = random.Random(7)
    for _ in range(5):
        pt = (rng.randint(1, 50), rng.randint(1, 50))
        assert poly.evaluate(s, pt) == eval_terms(a.terms, pt) + eval_terms(b.terms, pt)


def test_mul_square_of_sum():
    s = poly.polynomial(2, {(1, 0): 1, (0, 1): 1})
    sq = poly.mul(s, s)
    assert sq == poly.polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_mul_identities():
    p = poly.polynomial(2, {(1, 2): 5, (0, 0): 1})
    assert poly.mul(p, poly.constant(1, 2)) == p
    assert poly.mul(p, poly.zero(2)).is_zero


def test_arity_mismatch_errors():
    with pytest.raises(ArityMismatch):
        poly.add(poly.variable(1, 1), poly.variable(1, 2))
    with pytest.raises(ArityMismatch):
        poly.mul(poly.variable(1, 1), poly.variable(1, 2))


# ---------------------------------------------------------------- evaluate

def test_eval_direct_arithmetic():
    p = poly.polynomial(2, {(2, 1): 1})  # x1^2 x2
    assert poly.evaluate(p, (3, 4)) == 36


def test_eval_zero_polynomial():
    assert poly.evaluate(poly.zero(3), (5, 6, 7)) == 0


def test_eval_pairing_at_ones():
    assert poly.evaluate(poly.pairing(), (1, 1)) == 5


def test_eval_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        poly.evaluate(poly.variable(1, 1), (0,))
    with pytest.raises(ArityMismatch):
        poly.evaluate(poly.variable(1, 2), (1,))


def test_eval_big_integers():
    p = poly.polynomial(1, {(3,): 1})
    n = 10**20
    assert poly.evaluate(p, (n,)) == n**3


# ---------------------------------------------------------------- compose

def test_compose_substitution():
    s = poly.polynomial(2, {(1, 0): 1, (0, 1): 1})
    x1 = poly.variable(1, 1)
    assert poly.compose(s, [x1, x1]) == poly.polynomial(1, {(1,): 2})


def test_compose_square_shift():
    sq = poly.polynomial(1, {(2,): 1})
    shift = poly.polynomial(1, {(1,): 1, (0,): 1})
    assert poly.compose(sq, [shift]) == poly.polynomial(1, {(2,): 1, (1,): 2, (0,): 1})


def test_compose_pairing_identity_args():
    c2 = poly.pairing()
    expanded = poly.compose(c2, [poly.variable(1, 2), poly.variable(2, 2)])
    assert expanded == poly.polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 0): 1})


def test_compose_arity_checks():
    with pytest.raises(ArityMismatch):
        poly.compose(poly.pairing(), [poly.variable(1, 1)])
    with pytest.raises(ArityMismatch):
        poly.compose(poly.pairing(), [poly.variable(1, 1), poly.variable(1, 2)])


# ---------------------------------------------------------------- tupling

def test_tupling_pair_value():
    c2 = poly.injective_tupling(2)
    assert poly.evaluate(c2, (1, 2)) == 10
    assert poly.evaluate(c2, (1, 2)) == pairing_ref(1, 2)


def test_tupling_triple_value():
    c3 = poly.injective_tupling(3)
    assert poly.evaluate(c3, (1, 2, 3)) == 179
    assert poly.evaluate(c3, (1, 2, 3)) == pairing_ref(pairing_ref(1, 2), 3)


def test_tupling_matches_nested_reference():
    c4 = poly.injective_tupling(4)
    rng = random.Random(11)
    for _ in range(20):
        pt = tuple(rng.randint(1, 9) for _ in range(4))
        assert poly.evaluate(c4, pt) == pairing_ref(pairing_ref(pairing_ref(pt[0], pt[1]), pt[2]), pt[3])


def test_tupling_injective_on_pair_box():
    c2 = poly.injective_tupling(2)
    seen = {}
    for pt in itertools.product(range(1, 26), repeat=2):
        v = poly.evaluate(c2, pt)
        assert v not in seen, f"collision: {pt} and {seen[v]}"
        seen[v] = pt
    assert len(seen) == 625


def test_tupling_rejects_small_k():
    with pytest.raises(ValueError):
        poly.injective_tupling(1)


# ---------------------------------------------------------------- properties

points = st.tuples(st.integers(1, 60), st.integers(1, 60))


@st.composite
def pair_polys(draw):
    n = draw(st.integers(0, 5))
    items = [
        ((draw(st.integers(0, 3)), draw(st.integers(0, 3))), draw(st.integers(1, 9)))
        for _ in range(n)
    ]
    return poly.polynomial(2, items)


@given(pair_polys(), pair_polys(), points)
@settings(max_examples=100)
def test_eval_is_additive(a, b, pt):
    assert poly.evaluate(poly.add(a, b), pt) == poly.evaluate(a, pt) + poly.evaluate(b, pt)


@given(pair_polys(), pair_polys(), points)
@settings(max_examples=100)
def test_eval_is_multiplicative(a, b, pt):
    assert poly.evaluate(poly.mul(a, b), pt) == poly.evaluate(a, pt) * poly.evaluate(b, pt)


@given(pair_polys(), pair_polys(), pair_polys(), points)
@settings(max_examples=60)
def test_compose_commutes_with_eval(outer, g1, g2, pt):
    inner = [g1 if g1.terms else poly.constant(1, 2), g2 if g2.terms else poly.constant(1, 2)]
    lhs = poly.evaluate(poly.compose(outer, inner), pt)
    rhs = poly.evaluate(outer, tuple(poly.evaluate(g, pt) for g in inner)) if outer.arity == 2 else None
    assert lhs == rhs


@given(pair_polys(), pair_polys(), pair_polys(), points)
@settings(max_examples=60)
def test_ring_laws_by_evaluation(a, b, c, pt):
    # commutativity / associativity / distributivity, checked structurally
    assert poly.add(a, b) == poly.add(b, a)
    assert poly.mul(a, b) == poly.mul(b, a)
    assert poly.mul(a, poly.add(b, c)) == poly.add(poly.mul(a, b), poly.mul(a, c))


@given(pair_polys(), pair_polys())
@settings(max_examples=100)
def test_nonnegative_closure_and_positivity(a, b):
    for q in (poly.add(a, b), poly.mul(a, b)):
        assert all(coeff > 0 for _, coeff in q.terms)
        if not q.is_zero:
            assert poly.evaluate(q, (1, 1)) > 0


# ---------------------------------------------------------------- compose against the reference

def reference_compose(outer, args):
    """Substitution normalizing after every product and sum, as compose once did."""
    inner_arity = args[0].arity
    powers = [{0: poly.constant(1, inner_arity)} for _ in args]

    def arg_power(i, e):
        if e not in powers[i]:
            powers[i][e] = poly.mul(arg_power(i, e - 1), args[i])
        return powers[i][e]

    result = poly.zero(inner_arity)
    for exps, coeff in outer.terms:
        term = poly.constant(coeff, inner_arity)
        for i, e in enumerate(exps):
            if e:
                term = poly.mul(term, arg_power(i, e))
        result = poly.add(result, term)
    return result


@st.composite
def polys(draw, arity):
    items = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * arity), st.integers(1, 9)), max_size=5))
    return poly.polynomial(arity, items)


@st.composite
def compositions(draw):
    outer = draw(st.integers(1, 3).flatmap(polys))
    inner_arity = draw(st.integers(1, 3))
    return outer, [draw(polys(inner_arity)) for _ in range(outer.arity)]


@given(compositions())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_compose_matches_reference(case):
    outer, args = case
    assert poly.compose(outer, args) == reference_compose(outer, args)


def test_compose_matches_reference_on_the_squares_tupling():
    # the tupling composition that every three-variable encoder load repeats
    args = [poly.variable(i, 3) for i in (1, 2, 3)]
    args.append(poly.mul(poly.variable(3, 3), poly.variable(3, 3)))
    tupling = poly.injective_tupling(4)
    expanded = poly.compose(tupling, args)
    assert len(expanded.terms) == 82
    assert expanded == reference_compose(tupling, args)
