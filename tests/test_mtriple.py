import itertools
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from diomorph import config, lang, matsem, morph, mtriple, poly
from diomorph.errors import AlphabetBudgetExceeded, DimensionMismatch, ExpansionCapExceeded

from dag_layout import dag_letters, dag_nodes, read_layout


def x(i, t):
    return poly.variable(i, t)


def monomial(exponents, coefficient=1):
    """One term, whose system is a chain of gadget blocks, one per level."""
    return poly.polynomial(len(exponents), {tuple(exponents): coefficient})


def monomial_system(exponents, coefficient=1):
    return mtriple.compile_polynomial(monomial(exponents, coefficient))


# ---------------------------------------------------------------- power gadgets
#
# The first level of the system of a monomial x^k is the power gadget
# for k: k + 1 letters whose count matrix is the k-fold Kronecker power of
# [[1, 1], [0, 1]] lumped by subset size, or a -> b, b -> b for k = 0.

def _gadget(exponents):
    """The system's first level, its g1, and the count matrix of the first level's block."""
    c = monomial_system(exponents)
    level, g1 = c.triple.level(1), c.triple.g1
    m = morph.matrix_of(g1)  # the first level opens the alphabet, so its block is top left
    block = matsem.from_dense([[m.rows.get(i, {}).get(j, 0) for j in range(len(level))] for i in range(len(level))])
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
        mtriple.lay_out_monomials([monomial((4,))], budget=5)  # 4 + 1 gadget letters and e
    assert len(mtriple.lay_out_monomials([monomial((4,))], budget=6)[0]) == 6


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
    c = monomial_system([2])
    assert mtriple.compute_word_level(c, (3,)) == 9


def test_monomial_product():
    c = monomial_system([1, 1])
    assert mtriple.compute_word_level(c, (2, 3)) == 6


def test_monomial_with_zero_exponent():
    c = monomial_system([0, 2])
    assert mtriple.compute_word_level(c, (5, 2)) == 4


def test_monomial_validates():
    c = monomial_system([2, 0, 1])
    violations = mtriple.validate(c.triple)
    assert not any(violations.values()), violations


def test_monomial_alphabet_shape():
    c = monomial_system([2, 0, 1])
    assert c.triple.alphabet.level_sizes == (3, 2, 2, 1)
    assert c.triple.final_letter == "e"
    assert lang.text(c.witness) == "1.1"


def test_monomial_budget():
    with pytest.raises(AlphabetBudgetExceeded,
                       match=r"^alphabet budget exceeded: needs 101 > budget 100 \(monomial with exponents \(99,\)\)$"):
        mtriple.lay_out_monomials([monomial([99])], budget=100)
    assert len(mtriple.lay_out_monomials([monomial([98])], budget=100)[0]) == 100


def test_gadget_runs_guard_boundary(monkeypatch):
    # exponents (3, 0): 4 + 3 + 2 + 1 runs, then a -> b and b -> b
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 12)
    c = monomial_system((3, 0))
    assert sum(len(image.runs) for image in c.triple.g1.images) == 12
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 11)
    with pytest.raises(ExpansionCapExceeded, match=r"^expansion cap exceeded: needs 12 > cap 11 "
                                                   r"\(power gadget runs of the DAG of one polynomial\)$"):
        monomial_system((3, 0))
    # terms sharing their first exponent share its block: 10 runs for x1^3,
    # then 2 for x2^0 and 3 for x2^1, where one chain per term would hold 25
    shared = poly.polynomial(2, {(3, 0): 1, (3, 1): 1})
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 15)
    assert sum(len(image.runs) for image in mtriple.compile_polynomial(shared).triple.g1.images) == 15
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 14)
    with pytest.raises(ExpansionCapExceeded, match=r"needs 15 > cap 14 "):
        mtriple.compile_polynomial(shared)
    # identical subtrees share one block too: x1^3 and 2·x1^2 end in one
    # exponent-0 leaf, 10 + 6 + 2 runs where one leaf per term would hold 20
    merged = poly.polynomial(2, {(3, 0): 1, (2, 0): 2})
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 18)
    assert sum(len(image.runs) for image in mtriple.compile_polynomial(merged).triple.g1.images) == 18
    monkeypatch.setattr(config, "DEFAULT_EXPANSION_CAP", 17)
    with pytest.raises(ExpansionCapExceeded, match=r"needs 18 > cap 17 "):
        mtriple.compile_polynomial(merged)
    # a layout counts the runs of all its polynomials together (12 + 3 + 3), though each fits alone
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
        mtriple.lay_out_monomials([monomial((a,))], budget=10**40)


def test_monomial_rejects_bad_input():
    with pytest.raises(ValueError, match="need at least one exponent"):
        mtriple.lay_out_monomials([_unchecked_polynomial(0, (((), 1),))])
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        mtriple.lay_out_monomials([_unchecked_polynomial(1, (((-1,), 1),))])


# ---------------------------------------------------------------- direct sum

def test_direct_sum_shape():
    a = monomial_system([1])
    b = monomial_system([1])
    left, right = mtriple.direct_sum_maps(a, b)
    assert left.triple is right.triple
    assert left.triple.alphabet.level_sizes == (4, 1)
    assert left.triple.final_letter == "e"
    assert not any(mtriple.validate(left.triple).values())


def test_direct_sum_witnesses_still_compute():
    a = monomial_system([2])
    b = monomial_system([1])
    left, right = mtriple.direct_sum_maps(a, b)
    for n in range(1, 5):
        assert mtriple.compute_word_level(left, (n,)) == n**2
        assert mtriple.compute_word_level(right, (n,)) == n


def test_direct_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mtriple.direct_sum_maps(monomial_system([1]), monomial_system([1, 1]))


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
    # a coefficient is the term's last hand-off e^3; it adds no letters and
    # leaves the witness and g1 as they are
    single = mtriple.compile_polynomial(x(1, 1))
    c = mtriple.compile_polynomial(poly.polynomial(1, {(1,): 3}))
    assert c.triple.alphabet == single.triple.alphabet
    assert c.triple.g1 == single.triple.g1
    assert c.witness == single.witness
    assert lang.text(single.triple.g2.image("1.2")) == "e"
    assert lang.text(c.triple.g2.image("1.2")) == "e^3"
    assert [c.triple.g2.image(a) for a in ("1.1", "e")] == [single.triple.g2.image(a) for a in ("1.1", "e")]
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


def test_monomial_coefficient_is_the_last_hand_off():
    c = monomial_system([1, 2], 4)
    assert c.polynomial == poly.polynomial(2, {(1, 2): 4})
    assert mtriple.compute_word_level(c, (5, 3)) == 4 * 5 * 9
    assert lang.text(c.witness) == "1.1"
    # level 1 hands down one letter, level 2 (the last) hands down e^4
    assert [lang.text(c.triple.g2.image(a)) for a in ("1.2", "2.3")] == ["2.1", "e^4"]
    assert not any(mtriple.validate(c.triple).values())


def _longest_word(p, point):
    """A bound on the letters of a word of the word-level evaluation at
    ``point``: a term's level of exponent a, reached by c letters, holds at
    most c (m + 1)^a of them after m of its g1 steps, and terms that share
    a block only share those letters."""
    return max(
        sum(coeff * prod(x**a for x, a in zip(point[:level], exponents)) * (n + 1) ** exponents[level]
            for exponents, coeff in p.terms)
        for level, n in enumerate(point))


def _lowered(point, polys):
    """The point, lowered from its last entry until no word exceeds 3000 letters."""
    point = list(point)
    for k in reversed(range(len(point))):
        while point[k] > 1 and max(_longest_word(p, point) for p in polys) > 3000:
            point[k] -= 1
    return tuple(point)


@st.composite
def shared_tail_polynomials(draw, arity, max_exponent, max_coefficient):
    """A polynomial whose terms join 1-3 heads, each its first k exponents,
    to 1-4 tails, each the rest of its exponents with a coefficient: each
    head takes a drawn set of the tails, so equal tails recur under
    different prefixes.  Exponents are 0-max_exponent and coefficients
    1-max_coefficient; a tail's last exponent is 0 about half the time, so
    exponent-0 leaves with different coefficients are common."""
    k = draw(st.integers(0, arity - 1))
    exponent = st.integers(0, max_exponent)
    heads = draw(st.lists(st.tuples(*[exponent] * k), min_size=1, max_size=3, unique=True))
    tails = draw(st.lists(st.tuples(st.tuples(*[exponent] * (arity - k - 1), st.one_of(st.just(0), exponent)),
                                    st.integers(1, max_coefficient)), min_size=1, max_size=4))
    return poly.polynomial(arity, {head + rest: coeff for head in heads
                                   for rest, coeff in draw(st.lists(st.sampled_from(tails), min_size=1))})


@st.composite
def compile_cases(draw, min_arity, max_exponent, max_coefficient):
    """A polynomial of arity min_arity-3 from :func:`shared_tail_polynomials`
    and a point in {1..3}, lowered from its last entry until no word exceeds
    3000 letters."""
    arity = draw(st.integers(min_arity, 3))
    p = draw(shared_tail_polynomials(arity, max_exponent, max_coefficient))
    return p, _lowered(draw(st.tuples(*[st.integers(1, 3)] * arity)), [p])


@given(compile_cases(2, 6, 3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_compiled_gadgets_are_lumped_kronecker_powers(case):
    p, point = case
    c = mtriple.compile_polynomial(p)
    assert mtriple.compute_word_level(c, point) == poly.evaluate(p, point)
    assert not any(mtriple.validate(c.triple).values())
    # each level holds one gadget block per node of the minimal DAG, in
    # order of first appearance, and the block's rows have no entry outside it
    m, at = morph.matrix_of(c.triple.g1), 0
    for li in range(1, p.arity + 1):
        for a in dag_nodes(p, li):
            want = lump_by_subset_size(kron_power(a)) if a else [[0, 1], [0, 1]]
            for i, row in enumerate(want):
                assert m.row_of(at + i) == {at + j: n for j, n in enumerate(row) if n}
            at += len(want)
    assert at == len(c.triple.alphabet) - 1


@given(compile_cases(1, 3, 7))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_coefficients_are_handed_down_as_powers_of_e(case):
    p, point = case
    c = mtriple.compile_polynomial(p)
    alphabet, g1, g2 = c.triple.alphabet, c.triple.g1.table(), c.triple.g2.table()
    # the root-to-leaf paths spell p's terms, and each node of p's minimal
    # DAG is one block, reached by every path through it
    blocks, terms = read_layout(alphabet, g1, g2, c.witness)
    assert terms == dict(p.terms)
    assert [list(level.values()) for level in blocks] == [dag_nodes(p, li) for li in range(1, p.arity + 1)]
    # the edge into an exponent-0 leaf carries its term's coefficient, and
    # that one leaf hands down e once; every other edge carries 1, and a
    # positive-exponent leaf hands down e^c
    leaves = blocks[-1]
    assert list(leaves.values()).count(0) <= 1
    for handoff in [c.witness] + [image for image in c.triple.g2.images if not image.is_empty]:
        for z, n in handoff.runs:
            if z != "e" and leaves.get(alphabet.index_of(z)) != 0:
                assert n == 1
    for first, a in leaves.items():
        if a == 0:
            assert lang.text(g2[alphabet.letters[first + 1]]) == "e"
    assert mtriple.compute_word_level(c, point) == poly.evaluate(p, point)


def test_identical_subtrees_share_one_block():
    # x1·x2 + x1²·x2 + 3·x1 + 5: the leaf x2 serves the roots x1 and x1², and
    # one exponent-0 leaf serves 3·x1 and 5, its edges counting 3 and 5;
    # one block per term's leaf would need 4 more letters
    p = poly.polynomial(2, {(1, 1): 1, (2, 1): 1, (1, 0): 3, (0, 0): 5})
    c = mtriple.compile_polynomial(p)
    assert c.triple.alphabet.level_sizes == (7, 4, 1)
    # terms in order: 5, 3·x1, x1·x2, x1²·x2; roots 1.1 (x1^0), 1.3 (x1), 1.5 (x1²)
    assert lang.text(c.witness) == "1.1 1.3 1.5"
    assert [lang.text(c.triple.g2.image(a)) for a in ("1.2", "1.4", "1.7", "2.2", "2.4")] == [
        "2.1^5", "2.1^3 2.3", "2.3", "e", "e"]
    assert not any(mtriple.validate(c.triple).values())
    for point in itertools.product((1, 2, 3), repeat=2):
        assert mtriple.compute_word_level(c, point) == poly.evaluate(p, point)


def test_compile_rejects_zero():
    with pytest.raises(ValueError):
        mtriple.compile_polynomial(poly.zero(2))


# ---------------------------------------------------------------- side-by-side layout of built systems

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


def test_direct_sum_matches_pairwise_reference():
    pairs = [
        (monomial_system([2]), monomial_system([1])),
        (mtriple.compile_polynomial(poly.polynomial(2, {(1, 0): 2, (1, 2): 1, (0, 2): 1})),
         mtriple.compile_polynomial(poly.polynomial(2, {(1, 1): 3}))),
    ]
    for a, b in pairs:
        merged_a, merged_b = mtriple.direct_sum_maps(a, b)
        u, v, triple = _reference_direct_sum(a, b)
        assert merged_a.triple == merged_b.triple == triple
        assert (merged_a.witness, merged_b.witness) == (u, v)


# ---------------------------------------------------------------- DAG layout from exponents

@st.composite
def shared_tail_layouts(draw):
    """One or two polynomials of arity 1-3 from :func:`shared_tail_polynomials`
    (exponents 0-3, coefficients 1-3); tags, head letters, and a point in
    {1..3} lowered until no word exceeds 3000 letters."""
    arity = draw(st.integers(1, 3))
    polys = [draw(shared_tail_polynomials(arity, 3, 3)) for _ in range(draw(st.integers(1, 2)))]
    tags = draw(st.sampled_from([None, ("A:", "B:"), ("T", "T")]))
    head = draw(st.sampled_from([(), ("c0",), ("c0", "c1", "c2", "c3")]))
    point = _lowered(draw(st.tuples(*[st.integers(1, 3)] * arity)), polys)
    return polys, tags and tags[:len(polys)], head, point


@given(shared_tail_layouts())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_prefix_tree_layout_computes_each_polynomial(case):
    polys, tags, head, point = case
    total = len(head) + sum(dag_letters(p) for p in polys) + 1
    merged, g1, g2, witnesses = mtriple.lay_out_monomials(polys, tags, head, total, "merged total")
    assert len(merged) == total
    if tags == ("A:", "B:"):
        assert [sum(a.startswith(tag) for a in merged.letters) for tag in tags] == [
            dag_letters(p) for p in polys]
    largest = max(sum(max(a, 1) + 1 for a in exponents) + 1 for p in polys for exponents, _ in p.terms)
    if total - 1 >= largest:
        with pytest.raises(AlphabetBudgetExceeded, match=rf"needs {total} > budget {total - 1} \(merged total\)"):
            mtriple.lay_out_monomials(polys, tags, head, total - 1, "merged total")

    eps = lang.epsilon(merged)
    for letter in head:
        g1[letter] = g2[letter] = eps
    triple = mtriple.MTriple(merged, morph.endomorphism(merged, g1), morph.endomorphism(merged, g2),
                             polys[0].arity)
    assert not any(mtriple.validate(triple).values())
    for p, witness in zip(polys, witnesses):
        blocks, terms = read_layout(merged, g1, g2, witness)
        assert terms == dict(p.terms)
        assert [list(level.values()) for level in blocks] == [dag_nodes(p, li) for li in range(1, p.arity + 1)]
        c = mtriple.ComputableMap(triple, witness, p)
        assert mtriple.compute_word_level(c, point) == poly.evaluate(p, point)


def _unchecked_polynomial(arity, terms):
    """A polynomial built past its own asserts, as ``python -O`` would let through."""
    p = object.__new__(poly.Polynomial)
    object.__setattr__(p, "arity", arity)
    object.__setattr__(p, "terms", terms)
    return p


@pytest.mark.parametrize("polys, budget, error", [
    # a zero polynomial, before any term of it or of a later polynomial
    ([poly.zero(2), poly.polynomial(2, {(3, 3): 1})], 5,
     (ValueError, "cannot compile the zero polynomial")),
    # the first polynomial's terms, before the second polynomial is looked at
    ([poly.polynomial(2, {(1, 0): 1, (5, 5): 1}), poly.zero(2)], 12,
     (AlphabetBudgetExceeded, "alphabet budget exceeded: needs 13 > budget 12 (monomial with exponents (5, 5))")),
    # a negative exponent, before that term's budget
    ([_unchecked_polynomial(2, (((-1, 9), 1),))], 5, (ValueError, "exponents must be nonnegative")),
    # a term too large, in term order: p's before q's
    ([poly.polynomial(2, {(2, 0): 1}), poly.polynomial(2, {(5, 5): 1})], 12,
     (AlphabetBudgetExceeded, "alphabet budget exceeded: needs 13 > budget 12 (monomial with exponents (5, 5))")),
    # differing arities, before the merged total (5 and 7 letters apart, 11 together)
    ([poly.variable(1, 2), poly.variable(1, 3)], 10, (DimensionMismatch, "dimensions 2 and 3 differ")),
    # the merged total (5, 7 and 5 letters apart, 15 together)
    ([poly.polynomial(2, {(1, 1): 1, (3, 0): 1}), poly.variable(1, 2)], 14,
     (AlphabetBudgetExceeded, "alphabet budget exceeded: needs 15 > budget 14 (ctx)")),
])
def test_monomial_layout_raises_in_order(polys, budget, error):
    with pytest.raises(error[0]) as raised:
        mtriple.lay_out_monomials(polys, ("A:", "B:")[:len(polys)], (), budget, "ctx")
    assert str(raised.value) == error[1]


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
            c = monomial_system(exps)
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
