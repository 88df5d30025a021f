import itertools

import pytest
from hypothesis import given, settings, strategies as st

from diomorph import lang, matsem, morph, mtriple, poly
from diomorph.errors import AlphabetBudgetExceeded, DimensionMismatch


def x(i, t):
    return poly.variable(i, t)


# ---------------------------------------------------------------- power gadgets

def test_power_gadget_k1():
    alphabet, h = mtriple.kronecker_power_morphism(1)
    assert alphabet.letters == ("z1", "z2")
    assert lang.text(h.image("z1")) == "z1 z2"
    assert lang.text(h.image("z2")) == "z2"
    assert morph.matrix_of(h) == matsem.from_dense([[1, 1], [0, 1]])


def test_power_gadget_k2_matrix_is_kron_square():
    _, h = mtriple.kronecker_power_morphism(2)
    n = matsem.from_dense([[1, 1], [0, 1]])
    assert morph.matrix_of(h) == matsem.kron(n, n)
    assert morph.matrix_of(h) == matsem.from_dense(
        [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    )


def test_power_gadget_counts_by_explicit_application():
    alphabet, h = mtriple.kronecker_power_morphism(2)
    w = lang.word(alphabet, ["z1"])
    for _ in range(3):
        w = morph.apply(h, w)
    letters = list(lang.expand(w))
    assert letters.count("z4") == 9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_gadget_count_law(k):
    alphabet, h = mtriple.kronecker_power_morphism(k)
    first, last = alphabet.letters[0], alphabet.letters[-1]
    for n in range(1, 6):
        w = lang.word(alphabet, [first])
        for _ in range(n):
            w = morph.apply(h, w)
        assert lang.count_of(w, last) == n**k


def test_power_gadget_triangular_and_increasing():
    alphabet, h = mtriple.kronecker_power_morphism(3)
    assert morph.is_upper_triangular(h)
    for z in alphabet.letters:
        img = lang.expand(h.image(z))
        indices = [alphabet.index_of(y) for y in img]
        assert indices == sorted(indices) and len(set(indices)) == len(indices)


def test_power_gadget_budget():
    with pytest.raises(AlphabetBudgetExceeded):
        mtriple.kronecker_power_morphism(4, budget=8)
    with pytest.raises(ValueError):
        mtriple.kronecker_power_morphism(0)


def test_constant_gadget():
    alphabet, h = mtriple.constant_exponent_morphism()
    assert lang.text(morph.apply(h, lang.word(alphabet, ["a"]))) == "b"
    w = lang.word(alphabet, ["a"])
    for _ in range(5):
        w = morph.apply(h, w)
    assert lang.text(w) == "b"
    assert morph.matrix_of(h) == matsem.from_dense([[0, 1], [0, 1]])
    assert morph.is_upper_triangular(h)


# ---------------------------------------------------------------- monomials

def test_monomial_square():
    c = mtriple.monomial_mtriple([2])
    assert mtriple.compute(c, (3,)) == 9


def test_monomial_product():
    c = mtriple.monomial_mtriple([1, 1])
    assert mtriple.compute(c, (2, 3)) == 6


def test_monomial_with_zero_exponent():
    c = mtriple.monomial_mtriple([0, 2])
    assert mtriple.compute(c, (5, 2)) == 4


def test_monomial_validates():
    c = mtriple.monomial_mtriple([2, 0, 1])
    report = mtriple.validate(c.triple)
    assert report.passed, str(report)


def test_monomial_alphabet_shape():
    c = mtriple.monomial_mtriple([2, 0, 1])
    assert c.triple.alphabet.level_sizes == (4, 2, 2, 1)
    assert c.triple.final_letter == "e"
    assert lang.text(c.witness) == "1.1"


def test_monomial_budget():
    with pytest.raises(AlphabetBudgetExceeded):
        mtriple.monomial_mtriple([10], budget=100)


def test_monomial_rejects_bad_input():
    with pytest.raises(ValueError):
        mtriple.monomial_mtriple([])
    with pytest.raises(ValueError):
        mtriple.monomial_mtriple([-1])


# ---------------------------------------------------------------- direct sum

def test_direct_sum_shape():
    a = mtriple.monomial_mtriple([1])
    b = mtriple.monomial_mtriple([1])
    left, right = mtriple.direct_sum_maps(a, b)
    assert left.triple is right.triple
    assert left.triple.alphabet.level_sizes == (4, 1)
    assert left.triple.final_letter == "e"
    assert mtriple.validate(left.triple).passed


def test_direct_sum_witnesses_still_compute():
    a = mtriple.monomial_mtriple([2])
    b = mtriple.monomial_mtriple([1])
    left, right = mtriple.direct_sum_maps(a, b)
    for n in range(1, 5):
        assert mtriple.compute(left, (n,)) == n**2
        assert mtriple.compute(right, (n,)) == n


def test_direct_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mtriple.direct_sum_maps(mtriple.monomial_mtriple([1]), mtriple.monomial_mtriple([1, 1]))


# ---------------------------------------------------------------- linear combination

def test_combination_doubles():
    a = mtriple.monomial_mtriple([1])
    b = mtriple.monomial_mtriple([1])
    c = mtriple.linear_combination(a, b, 1, 2)
    assert mtriple.compute(c, (2,)) == 6
    assert c.polynomial == poly.polynomial(1, {(1,): 3})


def test_combination_mixed_monomials():
    a = mtriple.monomial_mtriple([2, 0])
    b = mtriple.monomial_mtriple([0, 1])
    c = mtriple.linear_combination(a, b, 1, 1)
    assert mtriple.compute(c, (3, 4)) == 13


def test_combination_with_constant():
    a = mtriple.monomial_mtriple([1])
    one = mtriple.monomial_mtriple([0])
    c = mtriple.linear_combination(a, one, 2, 1)
    assert mtriple.compute(c, (7,)) == 15


def test_combination_rejects_zero_weights():
    a = mtriple.monomial_mtriple([1])
    with pytest.raises(ValueError):
        mtriple.linear_combination(a, a, 0, 1)


# ---------------------------------------------------------------- compile

def test_compile_square_plus_two():
    p = poly.polynomial(1, {(2,): 1, (0,): 2})
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute(c, (3,)) == 11
    assert mtriple.validate(c.triple).passed


def test_compile_product():
    p = poly.polynomial(2, {(1, 1): 1})
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute(c, (2, 5)) == 10


def test_compile_constant_one():
    c = mtriple.compile_polynomial(poly.constant(1, 1))
    for n in (1, 2, 9):
        assert mtriple.compute(c, (n,)) == 1


def test_compile_identity_map():
    c = mtriple.compile_polynomial(x(1, 1))
    assert mtriple.compute(c, (4,)) == 4


def test_compile_cube():
    c = mtriple.compile_polynomial(poly.polynomial(1, {(3,): 1}))
    assert mtriple.compute(c, (2,), method="word") == 8
    assert mtriple.compute(c, (2,), method="matrix") == 8


def test_compile_mixed():
    p = poly.polynomial(2, {(2, 0): 1, (0, 1): 2})
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute(c, (3, 5)) == 19


def test_compile_rejects_zero():
    with pytest.raises(ValueError):
        mtriple.compile_polynomial(poly.zero(2))


def test_parts_sum_check_survives_optimize_flag(run_python):
    # the parts summing to p is a guarantee, so `python -O` must keep the check
    code = (
        "from diomorph import mtriple, poly\n"
        "good = mtriple.repeat_witness\n"
        "mtriple.repeat_witness = lambda c, times: good(c, times + 1)\n"
        "try:\n"
        "    mtriple.compile_polynomial(poly.variable(1, 2))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    assert run_python("-O", "-c", code).returncode == 0


# ---------------------------------------------------------------- one-pass layout

def _reference_direct_sum(left, right):
    """The pairwise merge that the one-pass layout replaced, kept as its reference.

    Returns both translated witnesses and the merged triple.
    """
    ft, gt = left.triple, right.triple
    t = ft.dimension
    sizes = [len(ft.level(i)) + len(gt.level(i)) for i in range(1, t + 1)]
    blocks = [[f"{li}.{j + 1}" for j in range(size)] for li, size in enumerate(sizes, start=1)]
    merged = lang.leveled_alphabet(blocks + [["e"]])

    def renaming(triple, offset_of):
        out = {triple.final_letter: "e"}
        for li in range(1, t + 1):
            for local, a in enumerate(triple.level(li)):
                out[a] = merged.levels[li - 1][offset_of(li) + local]
        return out

    rename_left = renaming(ft, lambda li: 0)
    rename_right = renaming(gt, lambda li: len(ft.level(li)))

    def merge_images(g_left, g_right):
        table = {"e": lang.epsilon(merged)}
        for a in ft.alphabet.letters[:-1]:
            table[rename_left[a]] = lang.translate(g_left.image(a), rename_left, merged)
        for a in gt.alphabet.letters[:-1]:
            table[rename_right[a]] = lang.translate(g_right.image(a), rename_right, merged)
        return morph.endomorphism(merged, table)

    triple = mtriple.MTriple(merged, merge_images(ft.g1, gt.g1), merge_images(ft.g2, gt.g2), t)
    return (lang.translate(left.witness, rename_left, merged),
            lang.translate(right.witness, rename_right, merged), triple)


def _reference_fold(p):
    """compile_polynomial as a pairwise fold of the monomial systems."""
    parts = [mtriple.repeat_witness(mtriple.monomial_mtriple(exps), coeff)
             for exps, coeff in p.terms]
    acc = parts[0]
    for part in parts[1:]:
        u, v, triple = _reference_direct_sum(acc, part)
        acc = mtriple.ComputableMap(triple, lang.word_concat(u, v),
                                    poly.add(acc.polynomial, part.polynomial))
    return acc


@st.composite
def layout_polys(draw):
    """Arity 2-3, at most 6 terms, total degree at most 3, coefficients at most 3."""
    arity = draw(st.integers(2, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * arity).filter(lambda e: sum(e) <= 3)
    return poly.polynomial(
        arity, draw(st.dictionaries(exponents, st.integers(1, 3), min_size=1, max_size=6)))


@given(layout_polys())
@settings(max_examples=40, deadline=None)
def test_one_pass_layout_matches_pairwise_fold(p):
    c, ref = mtriple.compile_polynomial(p), _reference_fold(p)
    assert c.triple == ref.triple
    assert c.witness == ref.witness
    assert c.polynomial == ref.polynomial == p


def test_direct_sum_matches_pairwise_reference():
    pairs = [
        (mtriple.monomial_mtriple([2]), mtriple.monomial_mtriple([1])),
        (mtriple.compile_polynomial(poly.polynomial(2, {(1, 0): 2, (0, 2): 1})),
         mtriple.compile_polynomial(poly.polynomial(2, {(1, 1): 3}))),
    ]
    for a, b in pairs:
        merged_a, merged_b = mtriple.direct_sum_maps(a, b)
        u, v, triple = _reference_direct_sum(a, b)
        assert merged_a.triple == merged_b.triple == triple
        assert (merged_a.witness, merged_b.witness) == (u, v)


# ---------------------------------------------------------------- validation details

def test_validation_rejects_degenerate_dimension():
    alphabet = lang.flat_alphabet(["e"])
    erase = morph.zero_morphism(alphabet)
    report = mtriple.validate_mtriple(alphabet, erase, erase, 0)
    assert not report.passed
    assert "structural" in report.failed_names


def test_validation_names_violating_letters():
    # g2 fixes z1 in place: breaks both the raising and the erasing condition
    alphabet = lang.leveled_alphabet([["z1"], ["e"]])
    g1 = morph.identity_morphism(alphabet)
    keep = morph.endomorphism(
        alphabet, {"z1": lang.word(alphabet, ["z1"]), "e": lang.epsilon(alphabet)}
    )
    report = mtriple.validate_mtriple(alphabet, g1, keep, 1)
    assert not report.passed
    assert report.condition("level_raising").violations == ("z1",)
    assert report.condition("square_erasing").violations == ("z1",)
    # g1 = identity keeps e, violating the final-letter condition
    assert report.condition("final_letter_erased").violations == ("e",)


def test_validation_flags_below_diagonal_images():
    alphabet = lang.leveled_alphabet([["z1", "z2"], ["e"]])
    g1 = morph.endomorphism(
        alphabet,
        {"z1": lang.word(alphabet, ["z1"]), "z2": lang.word(alphabet, ["z1"]),
         "e": lang.epsilon(alphabet)},
    )
    g2 = morph.endomorphism(
        alphabet,
        {"z1": lang.epsilon(alphabet), "z2": lang.word(alphabet, ["e"]),
         "e": lang.epsilon(alphabet)},
    )
    report = mtriple.validate_mtriple(alphabet, g1, g2, 1)
    assert report.failed_names == ("triangular",)
    assert report.condition("triangular").violations == ("g1:z2",)
    # z2 -> z1 stays inside level 1, so level preservation itself is fine
    assert report.condition("level_preserving").passed


# ---------------------------------------------------------------- invariants

small_polys = st.builds(
    poly.polynomial,
    st.just(2),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(1, 3),
        min_size=1, max_size=3,
    ),
)


@given(small_polys, st.tuples(st.integers(1, 4), st.integers(1, 4)))
@settings(max_examples=30, deadline=None)
def test_compiled_maps_agree_with_evaluation(p, point):
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute(c, point) == poly.evaluate(p, point)


@given(small_polys, st.tuples(st.integers(1, 3), st.integers(1, 3)))
@settings(max_examples=15, deadline=None)
def test_word_and_matrix_paths_agree(p, point):
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute_word_level(c, point) == mtriple.compute_matrix_level(c, point)


def test_final_letter_absent_before_last_step():
    c = mtriple.compile_polynomial(poly.polynomial(3, {(1, 1, 1): 1, (0, 0, 0): 2}))
    w = c.witness
    for j, n in enumerate((2, 3, 2), start=1):
        for _ in range(n):
            w = morph.apply(c.triple.g1, w)
        w = morph.apply(c.triple.g2, w)
        if j < 3:
            assert "e" not in w.support()
    assert w.support() == {"e"}


def test_level_discipline_of_compiled_triple():
    c = mtriple.compile_polynomial(poly.polynomial(2, {(2, 1): 1, (1, 0): 1}))
    alphabet = c.triple.alphabet
    for a in alphabet.letters:
        li = alphabet.level_of(a)
        for z in c.triple.g1.image(a).support():
            assert alphabet.level_of(z) == li
        for z in c.triple.g2.image(a).support():
            assert alphabet.level_of(z) == li + 1


def test_exhaustive_small_boxes():
    # every monomial with exponents <= 2 in dimension <= 2, all points in {1..4}
    for t in (1, 2):
        for exps in itertools.product(range(3), repeat=t):
            c = mtriple.monomial_mtriple(exps)
            for point in itertools.product(range(1, 5), repeat=t):
                expected = 1
                for n, a in zip(point, exps):
                    expected *= n**a
                assert mtriple.compute(c, point) == expected


def test_compute_point_checks():
    c = mtriple.compile_polynomial(x(1, 1))
    with pytest.raises(DimensionMismatch):
        mtriple.compute(c, (1, 2))
    with pytest.raises(ValueError):
        mtriple.compute(c, (0,))


def test_compute_huge_point_uses_matrices():
    c = mtriple.compile_polynomial(poly.polynomial(1, {(2,): 1}))
    n = 10**6
    assert mtriple.compute(c, (n,)) == n**2
