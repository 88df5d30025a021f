import itertools
from functools import reduce
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from diomorph import config, lang, matsem, morph, mtriple, poly
from diomorph.errors import AlphabetBudgetExceeded, DimensionMismatch, ExpansionCapExceeded


def x(i, t):
    return poly.variable(i, t)


# ---------------------------------------------------------------- power gadgets
#
# The first level of the monomial system for exponent k is the power gadget
# for k: k + 1 letters whose count matrix is the k-fold Kronecker power of
# [[1, 1], [0, 1]] lumped by subset size, or a -> b, b -> b for k = 0.

def _gadget(exponents):
    """The system's first level, its g1, and the count matrix of the first level's block."""
    c = mtriple.monomial_mtriple(exponents)
    level, g1 = c.triple.level(1), c.triple.g1
    m = morph.matrix_of(g1)  # the first level opens the alphabet, so its block is top left
    block = matsem.from_dense([[m.entry(i, j) for j in range(len(level))] for i in range(len(level))])
    return c, level, g1, block


def test_power_gadget_k1():
    _, level, g1, block = _gadget((1,))
    assert level == ("1.1", "1.2")
    assert lang.text(g1.image("1.1")) == "1.1 1.2"
    assert lang.text(g1.image("1.2")) == "1.2"
    assert block == matsem.from_dense([[1, 1], [0, 1]])


def test_power_gadget_k2_matrix_is_kron_square():
    _, _, _, block = _gadget((2,))
    kron_square = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    assert lump_by_subset_size(kron_square) == [[1, 2, 1], [0, 1, 1], [0, 0, 1]]
    assert block == matsem.from_dense(lump_by_subset_size(kron_square))


def dense_kron(a, b):
    ka, kb = len(a), len(b)
    return [[a[i // kb][j // kb] * b[i % kb][j % kb] for j in range(ka * kb)]
            for i in range(ka * kb)]


def kron_power(k):
    """The k-fold Kronecker power of [[1, 1], [0, 1]], k >= 1."""
    n = [[1, 1], [0, 1]]
    out = n
    for _ in range(k - 1):
        out = dense_kron(out, n)
    return out


def lump_by_subset_size(m):
    """A Kronecker power of [[1, 1], [0, 1]], whose index bits mark the members
    of a subset, lumped by subset size: entry (i, j) is a size-i row's sum over
    the size-j columns.  Fails unless every size-i row gives the same sums."""
    k = len(m).bit_length() - 1
    lumped = {}
    for r, row in enumerate(m):
        sums = [0] * (k + 1)
        for c, entry in enumerate(row):
            sums[bin(c).count("1")] += entry
        assert lumped.setdefault(bin(r).count("1"), sums) == sums, "not lumpable"
    return [lumped[i] for i in range(k + 1)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_gadget_block_is_kronecker_power(k):
    _, level, _, block = _gadget((k,))
    assert len(level) == k + 1
    assert block == matsem.from_dense(lump_by_subset_size(kron_power(k)))


def test_power_gadget_counts_by_explicit_application():
    c, level, g1, _ = _gadget((2,))
    w = c.witness
    for _ in range(3):
        w = morph.apply(g1, w)
    assert w.counts[c.triple.alphabet.index_of(level[-1])] == 9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_gadget_count_law(k):
    c, level, g1, _ = _gadget((k,))
    last = c.triple.alphabet.index_of(level[-1])
    for n in range(1, 6):
        w = c.witness
        for _ in range(n):
            w = morph.apply(g1, w)
        assert w.counts[last] == n**k


def test_power_gadget_triangular_and_increasing():
    c, level, g1, _ = _gadget((3,))
    for i, z in enumerate(level):
        runs = g1.image(z).runs
        # letter i maps to every letter j >= i of its level, C(3 - i, j - i) times
        assert [y for y, _ in runs] == list(level[i:])
        assert [count for _, count in runs] == [comb(3 - i, j - i) for j in range(i, 4)]


def test_power_gadget_budget():
    with pytest.raises(AlphabetBudgetExceeded, match=r"needs 6 > budget 5 "):
        mtriple.monomial_mtriple((4,), budget=5)  # 4 + 1 gadget letters and e
    assert len(mtriple.monomial_mtriple((4,), budget=6).triple.alphabet) == 6


def test_constant_gadget():
    c, level, g1, block = _gadget((0, 2))
    assert level == ("1.1", "1.2")
    assert lang.text(morph.apply(g1, c.witness)) == "1.2"
    w = c.witness
    for _ in range(5):
        w = morph.apply(g1, w)
    assert lang.text(w) == "1.2"
    assert block == matsem.from_dense([[0, 1], [0, 1]])


# ---------------------------------------------------------------- monomials

def test_monomial_square():
    c = mtriple.monomial_mtriple([2])
    assert mtriple.compute_word_level(c, (3,)) == 9


def test_monomial_product():
    c = mtriple.monomial_mtriple([1, 1])
    assert mtriple.compute_word_level(c, (2, 3)) == 6


def test_monomial_with_zero_exponent():
    c = mtriple.monomial_mtriple([0, 2])
    assert mtriple.compute_word_level(c, (5, 2)) == 4


def test_monomial_validates():
    c = mtriple.monomial_mtriple([2, 0, 1])
    violations = mtriple.validate(c.triple)
    assert not any(violations.values()), violations


def test_monomial_alphabet_shape():
    c = mtriple.monomial_mtriple([2, 0, 1])
    assert c.triple.alphabet.level_sizes == (3, 2, 2, 1)
    assert c.triple.final_letter == "e"
    assert lang.text(c.witness) == "1.1"


def test_monomial_budget():
    with pytest.raises(AlphabetBudgetExceeded, match=r"needs 101 > budget 100 "):
        mtriple.monomial_mtriple([99], budget=100)
    assert len(mtriple.monomial_mtriple([98], budget=100).triple.alphabet) == 100


def test_gadget_runs_guard_boundary(monkeypatch):
    # exponents (3, 0): 4 + 3 + 2 + 1 runs, then a -> b and b -> b
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 12)
    c = mtriple.monomial_mtriple((3, 0))
    assert sum(len(image.runs) for image in c.triple.g1.images) == 12
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 11)
    with pytest.raises(ExpansionCapExceeded,
                       match=r"^expansion cap exceeded: needs 12 > cap 11 \(power gadget runs of the monomial\)$"):
        mtriple.monomial_mtriple((3, 0))
    # a layout counts the runs of all its terms together (12 + 3 + 3), though each fits alone
    polys = [poly.polynomial(2, {(3, 0): 1}), poly.polynomial(2, {(1, 1): 2})]
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 18)
    _, g1, _, _ = mtriple.lay_out_monomials(polys, context="ctx")
    assert sum(len(image.runs) for image in g1.values()) == 18
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 17)
    with pytest.raises(ExpansionCapExceeded,
                       match=r"^expansion cap exceeded: needs 18 > cap 17 \(power gadget runs of the ctx\)$"):
        mtriple.lay_out_monomials(polys, context="ctx")


def test_gadget_runs_guard_refuses_a_huge_exponent_under_any_budget(monkeypatch):
    # the runs are counted from the exponent alone: no letter is named first
    def place(*args):
        raise AssertionError("letters named before the gadget runs were counted")

    monkeypatch.setattr(mtriple, "_place", place)
    a = 10**30
    with pytest.raises(ExpansionCapExceeded, match=rf"needs {(a + 1) * (a + 2) // 2} > cap 1000000 "):
        mtriple.monomial_mtriple((a,), budget=10**40)


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
    assert not any(mtriple.validate(left.triple).values())


def test_direct_sum_witnesses_still_compute():
    a = mtriple.monomial_mtriple([2])
    b = mtriple.monomial_mtriple([1])
    left, right = mtriple.direct_sum_maps(a, b)
    for n in range(1, 5):
        assert mtriple.compute_word_level(left, (n,)) == n**2
        assert mtriple.compute_word_level(right, (n,)) == n


def test_direct_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mtriple.direct_sum_maps(mtriple.monomial_mtriple([1]), mtriple.monomial_mtriple([1, 1]))


# ---------------------------------------------------------------- compile

def test_compile_square_plus_two():
    p = poly.polynomial(1, {(2,): 1, (0,): 2})
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute_word_level(c, (3,)) == 11
    assert not any(mtriple.validate(c.triple).values())


def test_compile_product():
    p = poly.polynomial(2, {(1, 1): 1})
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute_word_level(c, (2, 5)) == 10


def test_compile_constant_one():
    c = mtriple.compile_polynomial(poly.constant(1, 1))
    for n in (1, 2, 9):
        assert mtriple.compute_word_level(c, (n,)) == 1


def test_compile_identity_map():
    c = mtriple.compile_polynomial(x(1, 1))
    assert mtriple.compute_word_level(c, (4,)) == 4


def test_compile_cube():
    c = mtriple.compile_polynomial(poly.polynomial(1, {(3,): 1}))
    assert mtriple.compute_word_level(c, (2,)) == 8


def test_compile_mixed():
    p = poly.polynomial(2, {(2, 0): 1, (0, 1): 2})
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute_word_level(c, (3, 5)) == 19


def test_compile_doubles():
    # a coefficient repeats the witness; it adds no letters
    single = mtriple.compile_polynomial(x(1, 1))
    c = mtriple.compile_polynomial(poly.polynomial(1, {(1,): 3}))
    assert c.triple == single.triple
    assert c.witness == lang.word_power(single.witness, 3)
    assert mtriple.compute_word_level(c, (2,)) == 6


def test_compile_mixed_monomials():
    p = poly.polynomial(2, {(2, 0): 1, (0, 1): 1})
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute_word_level(c, (3, 4)) == 13
    # one first-level block per term: 2 + 1 letters for x1^2, 2 for x2^0
    assert len(c.triple.level(1)) == 5
    assert len(c.witness.runs) == 2


def test_compile_with_constant():
    c = mtriple.compile_polynomial(poly.polynomial(1, {(1,): 2, (0,): 1}))
    for n in (1, 7, 30):
        assert mtriple.compute_word_level(c, (n,)) == 2 * n + 1


def test_repeat_witness_computes_the_multiple():
    a = mtriple.monomial_mtriple([1])
    c = mtriple.repeat_witness(a, 4)
    assert c.polynomial == poly.polynomial(1, {(1,): 4})
    assert mtriple.compute_word_level(c, (5,)) == 20
    for times in (0, -1):
        with pytest.raises(ValueError):
            mtriple.repeat_witness(a, times)


def _longest_word(p, point):
    """The most letters a word of the word-level evaluation at ``point`` holds:
    a term's level of exponent a, reached by c letters, holds c (m + 1)^a of
    them after m of its g1 steps."""
    return max(
        sum(coeff * prod(x**a for x, a in zip(point[:level], exponents)) * (n + 1) ** exponents[level]
            for exponents, coeff in p.terms)
        for level, n in enumerate(point))


@st.composite
def gadget_cases(draw):
    """Arity 2-3, at most 4 terms, exponents 0-6, coefficients 1-3, and a point
    in {1..3}, lowered from its last entry until no word exceeds 3000 letters."""
    arity = draw(st.integers(2, 3))
    exponents = st.tuples(*[st.integers(0, 6)] * arity)
    p = poly.polynomial(arity, draw(st.dictionaries(
        exponents, st.integers(1, 3), min_size=1, max_size=4)))
    point = list(draw(st.tuples(*[st.integers(1, 3)] * arity)))
    for k in reversed(range(arity)):
        while point[k] > 1 and _longest_word(p, point) > 3000:
            point[k] -= 1
    return p, tuple(point)


@given(gadget_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_compiled_gadgets_are_lumped_kronecker_powers(case):
    p, point = case
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute_word_level(c, point) == poly.evaluate(p, point)
    assert not any(mtriple.validate(c.triple).values())
    # each level holds one gadget block per term, in term order, and the
    # block's rows have no entry outside it
    m, at = morph.matrix_of(c.triple.g1), 0
    for li in range(p.arity):
        for exponents, _ in p.terms:
            a = exponents[li]
            want = lump_by_subset_size(kron_power(a)) if a else [[0, 1], [0, 1]]
            for i, row in enumerate(want):
                assert m.row_of(at + i) == {at + j: n for j, n in enumerate(row) if n}
            at += len(want)
    assert at == len(c.triple.alphabet) - 1


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
        "    mtriple.monomial_parts(poly.variable(1, 2))\n"
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


# ---------------------------------------------------------------- monomial layout from exponents

def _reference_monomial_layout(polys, tags=None, head=(), budget=None, context="side-by-side layout"):
    """lay_out of every polynomial's monomial systems, one concatenated witness per polynomial."""
    parts = [mtriple.monomial_parts(p, budget) for p in polys]
    part_tags = [tag for tag, ps in zip(tags, parts) for _ in ps] if tags else None
    merged, g1, g2, witnesses = mtriple.lay_out(
        [c for ps in parts for c in ps], part_tags, head, budget, context)
    rest = iter(witnesses)
    return merged, g1, g2, [reduce(lang.word_concat, [next(rest) for _ in ps]) for ps in parts]


def _outcome(layout, *args):
    """The layout, or the error it raises with every field that names it."""
    try:
        return layout(*args)
    except (ValueError, AlphabetBudgetExceeded) as exc:
        fields = (exc.needed, exc.budget, exc.context) if isinstance(exc, AlphabetBudgetExceeded) else ()
        return type(exc), str(exc), fields


def _assert_same_layout(got, want):
    if not isinstance(want[0], lang.LeveledAlphabet):  # both raised
        assert got == want
        return
    merged, g1, g2, witnesses = got
    assert merged.letters == want[0].letters and merged.level_sizes == want[0].level_sizes
    for table, reference in ((g1, want[1]), (g2, want[2])):
        assert list(table) == list(reference)
        for letter, image in table.items():
            assert image.alphabet == merged and image.runs == reference[letter].runs
    assert [w.runs for w in witnesses] == [w.runs for w in want[3]]
    assert all(w.alphabet == merged for w in witnesses)


def _monomial_size(exponents):
    return sum(max(a, 1) + 1 for a in exponents) + 1


@st.composite
def monomial_layouts(draw):
    """One or two polynomials of arity 1-3, at most 5 terms, exponents 0-3, coefficients 1-3."""
    arity = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * arity)
    polys = [poly.polynomial(arity, draw(st.dictionaries(
        exponents, st.integers(1, 3), min_size=1, max_size=5))) for _ in range(draw(st.integers(1, 2)))]
    tags = draw(st.sampled_from([None, ("A:", "B:"), ("T", "T")]))
    head = draw(st.sampled_from([(), ("c0",), ("c0", "c1", "c2", "c3")]))
    return polys, tags and tags[:len(polys)], head


@given(monomial_layouts())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_monomial_layout_matches_layout_of_monomial_parts(case):
    polys, tags, head = case
    largest = max(_monomial_size(e) for p in polys for e, _ in p.terms)
    total = len(head) + sum(_monomial_size(e) - 1 for p in polys for e, _ in p.terms) + 1
    for budget in (None, largest - 1, largest, total - 1, total):
        args = (polys, tags, head, budget, "merged total")
        _assert_same_layout(_outcome(mtriple.lay_out_monomials, *args),
                            _outcome(_reference_monomial_layout, *args))
    assert len(mtriple.lay_out_monomials(polys, tags, head, total)[0]) == total
    if total - 1 >= largest:
        with pytest.raises(AlphabetBudgetExceeded, match=rf"needs {total} > budget {total - 1} \(merged total\)"):
            mtriple.lay_out_monomials(polys, tags, head, total - 1, "merged total")


def _unchecked_polynomial(arity, terms):
    """A polynomial built past its own asserts, as ``python -O`` would let through."""
    p = object.__new__(poly.Polynomial)
    object.__setattr__(p, "arity", arity)
    object.__setattr__(p, "terms", terms)
    return p


@pytest.mark.parametrize("polys, budget", [
    # a zero polynomial, before any term of it or of a later polynomial
    ([poly.zero(2), poly.polynomial(2, {(3, 3): 1})], 5),
    # the first polynomial's terms, before the second polynomial is looked at
    ([poly.polynomial(2, {(1, 0): 1, (5, 5): 1}), poly.zero(2)], 12),
    # a negative exponent, before that term's budget
    ([_unchecked_polynomial(2, (((-1, 9), 1),))], 5),
    # a term too large, in term order: p's before q's
    ([poly.polynomial(2, {(2, 0): 1}), poly.polynomial(2, {(5, 5): 1})], 12),
    # differing arities, before the merged total (5 and 7 letters apart, 11 together)
    ([poly.variable(1, 2), poly.variable(1, 3)], 10),
    # the merged total (5, 7 and 5 letters apart, 15 together)
    ([poly.polynomial(2, {(1, 1): 1, (3, 0): 1}), poly.variable(1, 2)], 14),
])
def test_monomial_layout_raises_in_the_reference_order(polys, budget):
    got = _outcome(mtriple.lay_out_monomials, polys, ("A:", "B:")[:len(polys)], (), budget, "ctx")
    want = _outcome(_reference_monomial_layout, polys, ("A:", "B:")[:len(polys)], (), budget, "ctx")
    assert isinstance(want[0], type) and got == want


# ---------------------------------------------------------------- validation details

def test_validation_rejects_degenerate_dimension():
    alphabet = lang.flat_alphabet(["e"])
    erase = morph.endomorphism(alphabet, {"e": lang.epsilon(alphabet)})
    violations = mtriple.validate(mtriple.MTriple(alphabet, erase, erase, 0))
    assert violations["structural"] == ("dimension 0 < 1",)


def test_validation_names_violating_letters():
    # g2 fixes z1 in place: breaks both the raising and the erasing condition
    alphabet = lang.leveled_alphabet([["z1"], ["e"]])
    g1 = morph.identity_morphism(alphabet)
    keep = morph.endomorphism(
        alphabet, {"z1": lang.word(alphabet, ["z1"]), "e": lang.epsilon(alphabet)}
    )
    violations = mtriple.validate(mtriple.MTriple(alphabet, g1, keep, 1))
    assert violations["level_raising"] == ("z1",)
    assert violations["square_erasing"] == ("z1",)
    # g1 = identity keeps e, violating the final-letter condition
    assert violations["final_letter_erased"] == ("e",)


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
    violations = mtriple.validate(mtriple.MTriple(alphabet, g1, g2, 1))
    assert [name for name, letters in violations.items() if letters] == ["triangular"]
    assert violations["triangular"] == ("g1:z2",)
    # z2 -> z1 stays inside level 1, so level preservation itself is fine
    assert violations["level_preserving"] == ()


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
    assert mtriple.compute_word_level(c, point) == poly.evaluate(p, point)


def matrix_level(c, point):
    """The count-transport evaluation: the witness's letter counts through the
    count matrices of g1^n and g2, read off at the final letter."""
    m1, m2 = morph.matrix_of(c.triple.g1), morph.matrix_of(c.triple.g2)
    vec = morph.parikh_vector(c.witness)
    for n in point:
        vec = matsem.vec_mat(matsem.vec_mat(vec, matsem.mat_pow(m1, n)), m2)
    final = c.triple.alphabet.index_of(c.triple.final_letter)
    assert set(vec) <= {final}, "iteration must end in the final letter"
    return vec.get(final, 0)


@given(small_polys, st.tuples(st.integers(1, 3), st.integers(1, 3)))
@settings(max_examples=15, deadline=None)
def test_word_and_matrix_paths_agree(p, point):
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute_word_level(c, point) == matrix_level(c, point)


def test_matrix_path_reaches_a_huge_point():
    # words of length n^2 are out of reach; the count matrices are not
    c = mtriple.compile_polynomial(poly.polynomial(2, {(2, 1): 1, (0, 0): 3}))
    n = 10**6
    assert matrix_level(c, (n, 7)) == 7 * n**2 + 3


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
                assert mtriple.compute_word_level(c, point) == expected


def test_compute_point_checks():
    c = mtriple.compile_polynomial(x(1, 1))
    with pytest.raises(DimensionMismatch):
        mtriple.compute_word_level(c, (1, 2))
    with pytest.raises(ValueError):
        mtriple.compute_word_level(c, (0,))
