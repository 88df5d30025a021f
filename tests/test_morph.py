import pytest
from hypothesis import given, settings, strategies as st

from diomorph import lang, matsem, morph
from diomorph.config import expansion_cap
from diomorph.errors import AlphabetMismatch, ExpansionCapExceeded

Z = lang.flat_alphabet(["z1", "z2"])
Z4 = lang.flat_alphabet(["z1", "z2", "z3", "z4"])
Z3 = lang.flat_alphabet(["a", "b", "c"])


def mk(alphabet, table):
    return morph.endomorphism(
        alphabet, {z: lang.parse_word(alphabet, img) for z, img in table.items()}
    )


# the standard unipotent rewrite: z1 -> z1 z2, z2 -> z2
H = mk(Z, {"z1": "z1 z2", "z2": "z2"})


def zero(alphabet):
    """The endomorphism that erases every letter."""
    return morph.endomorphism(alphabet, {z: lang.epsilon(alphabet) for z in alphabet.letters})


# ---------------------------------------------------------------- construction

def test_table_must_be_total():
    with pytest.raises(AlphabetMismatch):
        morph.endomorphism(Z, {"z1": lang.word(Z, ["z1"])})


def test_table_must_not_overflow():
    with pytest.raises(AlphabetMismatch):
        morph.endomorphism(
            Z, {"z1": lang.word(Z, []), "z2": lang.word(Z, []), "zz": lang.word(Z, [])}
        )


def test_images_must_live_over_codomain():
    other = lang.flat_alphabet(["y"])
    with pytest.raises(AlphabetMismatch):
        morph.endomorphism(Z, {"z1": lang.word(other, ["y"]), "z2": lang.word(Z, [])})


# ---------------------------------------------------------------- equality

A = [["z1"], ["z2", "z3"]]
RUNS = ((("z1", 1), ("z2", 2)), (("z3", 1),), ())


def over(levels, runs=RUNS, images_over=None):
    """An endomorphism of a freshly built alphabet with the given image runs."""
    abc = lang.leveled_alphabet(levels)
    return morph.Morphism(abc, tuple(lang.Word(images_over or abc, r) for r in runs))


def test_morphisms_over_distinct_equal_alphabets_are_equal():
    f, g = over(A), over(A)
    assert f.alphabet is not g.alphabet and f.alphabet == g.alphabet
    assert f == g and hash(f) == hash(g)
    assert f != over(A, RUNS[:2] + ((("z1", 1),),))
    assert f != over(A, ((("z1", 1), ("z2", 3)),) + RUNS[1:])


def test_equal_runs_over_different_alphabets_are_unequal():
    f = over(A)
    for levels in ([["z1", "z2", "z3"]], [["z1"], ["z3", "z2"]], [["z1", "z2"], ["z3"]]):
        g = over(levels)
        assert [img.runs for img in g.images] == [img.runs for img in f.images]
        assert f != g


def test_images_over_an_equal_alphabet_object_are_accepted():
    assert over(A, images_over=lang.leveled_alphabet(A)) == over(A)
    with pytest.raises(AlphabetMismatch, match="images must live over the codomain"):
        over(A, images_over=lang.leveled_alphabet([["z1", "z2", "z3"]]))
    with pytest.raises(AlphabetMismatch, match="images must live over the codomain"):
        over(A, images_over=lang.leveled_alphabet([["z1"], ["z3", "z2"]]))


# each bad construction, with the error type and message it must raise
BAD_CONSTRUCTIONS = {
    "letter outside the alphabet": (
        "lang.Word(Z, (('y', 1),))", "AlphabetMismatch: letter 'y' not in alphabet"),
    "nonpositive count": (
        "lang.Word(Z, (('z1', 0),))", "ValueError: run counts must be positive"),
    "equal adjacent letters": (
        "lang.Word(Z, (('z1', 1), ('z1', 2)))", "ValueError: adjacent runs must have distinct letters"),
    "missing image": (
        "morph.Morphism(Z, (lang.epsilon(Z),))", "AlphabetMismatch: one image per domain letter"),
    "image over another alphabet": (
        "morph.Morphism(Z, (lang.epsilon(Z), lang.epsilon(lang.flat_alphabet(['y']))))",
        "AlphabetMismatch: images must live over the codomain"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
@pytest.mark.parametrize("case", sorted(BAD_CONSTRUCTIONS))
def test_bad_constructions_raise_typed_errors(case, flags, run_python):
    # the checks raise rather than assert, so `python -O` must not change them
    expr, expected = BAD_CONSTRUCTIONS[case]
    code = (
        "from diomorph import lang, morph\n"
        "Z = lang.flat_alphabet(['z1', 'z2'])\n"
        "try:\n"
        f"    {expr}\n"
        "except ValueError as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"
    )
    run = run_python(*flags, "-c", code, capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout == expected + "\n"


# ---------------------------------------------------------------- apply

def test_apply_per_letter_substitution():
    w = lang.word(Z, ["z1", "z1"])
    assert morph.apply(H, w) == lang.parse_word(Z, "z1 z2 z1 z2")


def test_apply_preserves_identity_element():
    assert morph.apply(H, lang.epsilon(Z)).is_empty


def test_zero_morphism_erases_everything():
    o = zero(Z)
    assert morph.apply(o, lang.parse_word(Z, "z1^5 z2^3")).is_empty
    assert morph.is_zero_morphism(o)
    assert not morph.is_zero_morphism(H)


def test_apply_single_letter_images_handle_huge_runs():
    double = mk(Z, {"z1": "z2^2", "z2": "z2"})
    w = lang.letter_power(Z, "z1", 10**40)
    assert morph.apply(double, w).runs == (("z2", 2 * 10**40),)


def test_apply_multi_run_images_capped():
    w = lang.letter_power(Z, "z1", 10**7)
    with pytest.raises(ExpansionCapExceeded):
        morph.apply(H, w)


def test_apply_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        morph.apply(H, lang.word(Z4, ["z1"]))


def test_apply_takes_a_word_over_an_equal_alphabet_object():
    copy = lang.flat_alphabet(["z1", "z2"])
    assert copy is not Z and copy == Z
    for letters in (["z1"], ["z1", "z2", "z1"]):
        assert morph.apply(H, lang.word(copy, letters)) == morph.apply(H, lang.word(Z, letters))


def test_apply_rejects_same_letters_in_other_levels():
    leveled = lang.leveled_alphabet([["z1"], ["z2"]])
    assert leveled.letters == Z.letters and leveled != Z
    with pytest.raises(AlphabetMismatch, match="not over the morphism's domain"):
        morph.apply(H, lang.word(leveled, ["z1", "z2"]))


def reference_apply(m, w, cap=None):
    """The plain concatenation of images, re-normalized through word_from_runs."""
    if w.alphabet != m.alphabet:
        raise AlphabetMismatch("word is not over the morphism's domain")
    limit = expansion_cap(cap)
    pairs = []
    for letter, count in w.runs:
        img = m.images[m.alphabet.index_of(letter)]
        if not img.runs:
            continue
        if len(img.runs) == 1:
            z, c = img.runs[0]
            pairs.append((z, c * count))
        else:
            needed = len(pairs) + len(img.runs) * count
            if needed > limit:
                raise ExpansionCapExceeded(
                    needed, limit, f"image of run {letter}^{count} under application")
            pairs.extend(img.runs * count)
    return lang.word_from_runs(m.alphabet, pairs)


def test_apply_cap_counts_runs_before_merging():
    # z1^3 z2 z1^3 maps to (z1 z2 z1)^3 z1 (z1 z2 z1)^3: 19 runs before
    # merging, 13 after, and only 7 when the second z1^3 is checked
    m = mk(Z, {"z1": "z1 z2 z1", "z2": "z1"})
    w = lang.parse_word(Z, "z1^3 z2 z1^3")
    assert lang.text(morph.apply(m, w, cap=19)) == "z1 z2 z1^2 z2 z1^2 z2 z1^3 z2 z1^2 z2 z1^2 z2 z1"
    with pytest.raises(ExpansionCapExceeded) as err:
        morph.apply(m, w, cap=18)
    assert (err.value.needed, err.value.cap) == (19, 18)


def test_apply_of_one_letter_returns_the_image_itself():
    m = mk(Z3, {"a": "a b c a b", "b": "b^4", "c": ""})
    for i, z in enumerate(Z3.letters):
        assert morph.apply(m, lang.word(Z3, [z])) is m.images[i]
    # longer words still get a fresh word
    assert morph.apply(m, lang.word(Z3, ["b", "b"])).runs == (("b", 8),)


def test_apply_of_one_letter_cap_boundary():
    m = mk(Z3, {"a": "a b c a b", "b": "b^4", "c": ""})
    one = lang.word(Z3, ["a"])
    assert morph.apply(m, one, cap=5).runs == m.images[0].runs
    with pytest.raises(ExpansionCapExceeded) as err:
        morph.apply(m, one, cap=4)
    assert (err.value.needed, err.value.cap, str(err.value)) == (
        5, 4, "expansion cap exceeded: needs 5 > cap 4 (image of run a^1 under application)")
    # one-run and empty images are never capped
    assert morph.apply(m, lang.word(Z3, ["b"]), cap=1).runs == (("b", 4),)
    assert morph.apply(m, lang.word(Z3, ["c"]), cap=1).is_empty

runs3 = st.lists(st.tuples(st.sampled_from(Z3.letters), st.integers(1, 3)), min_size=2, max_size=4)
images3 = st.one_of(
    st.just([]),
    st.tuples(st.sampled_from(Z3.letters), st.integers(1, 3)).map(lambda run: [run]),
    # multi-run images that start and end with the same letter, whose powers merge
    runs3.map(lambda rs: rs + [(rs[0][0], 1)]),
    runs3,
).map(lambda rs: lang.word_from_runs(Z3, rs))


@given(
    st.lists(images3, min_size=3, max_size=3),
    st.one_of(
        st.sampled_from(Z3.letters).map(lambda z: [(z, 1)]),  # one-letter words
        st.lists(st.tuples(st.sampled_from(Z3.letters), st.integers(1, 4)), max_size=6),
    ),
    st.one_of(st.none(), st.integers(1, 40)),
)
@settings(max_examples=400, deadline=None)
def test_apply_matches_reference(images, runs, cap):
    m = morph.Morphism(Z3, tuple(images))
    w = lang.word_from_runs(Z3, runs)
    try:
        want = reference_apply(m, w, cap)
    except ExpansionCapExceeded as exc:
        with pytest.raises(ExpansionCapExceeded) as err:
            morph.apply(m, w, cap)
        assert (err.value.needed, err.value.cap, str(err.value)) == (exc.needed, exc.cap, str(exc))
        return
    got = morph.apply(m, w, cap)
    assert got == want
    assert lang.Word(got.alphabet, got.runs) == got


# ---------------------------------------------------------------- apply_stages

def chained_apply(stages, w, cap):
    """The reference: apply each stage in turn, under the cap."""
    for m in stages:
        w = morph.apply(m, w, cap)
    return w


def count_stage_applies(monkeypatch):
    """Count the calls apply_stages makes to morph.apply (its stage-by-stage path)."""
    calls = []

    def counting(m, w, cap=None):
        calls.append(len(w.runs))
        return plain_apply(m, w, cap)

    plain_apply = morph.apply
    monkeypatch.setattr(morph, "apply", counting)
    return calls


chains3 = st.lists(st.lists(images3, min_size=3, max_size=3).map(
    lambda images: morph.Morphism(Z3, tuple(images))), min_size=1, max_size=4)
starts3 = st.one_of(
    st.sampled_from(Z3.letters).map(lambda z: [(z, 1)]),  # one-letter words
    st.lists(st.tuples(st.sampled_from(Z3.letters), st.integers(1, 3)), max_size=4),
).map(lambda runs: lang.word_from_runs(Z3, runs))


@given(chains3, starts3, st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_apply_stages_matches_chained_apply(stages, w, data):
    # caps next to the run count of some stage's word, where the verdict turns
    stage_runs, word_ = [], w
    for m in stages:
        word_ = morph.apply(m, word_)
        stage_runs.append(len(word_.runs))
    cap = max(1, data.draw(st.sampled_from(stage_runs)) + data.draw(st.sampled_from((-1, 0, 1))))
    try:
        want = chained_apply(stages, w, cap)
    except ExpansionCapExceeded:
        with pytest.raises(ExpansionCapExceeded):
            morph.apply_stages(stages, w, cap)
        return
    got = morph.apply_stages(stages, w, cap)
    assert got.runs == want.runs
    assert lang.Word(got.alphabet, got.runs) == got


# a -> (a b c a b), b -> b^4, c -> ε; then a -> b^2, b -> (a b a), c -> c
SPREAD = mk(Z3, {"a": "a b c a b", "b": "b^4", "c": ""})
FOLD = mk(Z3, {"a": "b^2", "b": "a b a", "c": "c"})


def test_apply_stages_sure_fit_builds_no_stage_word(monkeypatch):
    calls = count_stage_applies(monkeypatch)
    stages = (SPREAD, FOLD, FOLD)
    start = lang.parse_word(Z3, "a^2 c b")
    want = chained_apply(stages, start, None)
    calls.clear()
    assert morph.apply_stages(stages, start).runs == want.runs
    # (a b a)^2 merges at the seam: the per-letter images are renormalized
    assert morph.apply_stages((FOLD,), lang.parse_word(Z3, "b^2")).runs == (
        ("a", 1), ("b", 1), ("a", 2), ("b", 1), ("a", 1))
    assert calls == []


def test_apply_stages_shares_a_one_letter_image():
    one = lang.word(Z3, ["a"])
    assert morph.apply_stages((SPREAD,), one) is SPREAD.images[0]
    assert morph.apply_stages((), one) is one


def test_apply_stages_sure_exceed_names_the_stage_and_the_lower_bound(monkeypatch):
    calls = count_stage_applies(monkeypatch)
    start = lang.word(Z3, ["a"])
    # stage 1 gives a^2 b^2 c (5 runs), stage 2 at least 2*5 runs from the two a
    with pytest.raises(ExpansionCapExceeded) as err:
        morph.apply_stages((SPREAD, SPREAD, FOLD), start, cap=9)
    assert (err.value.needed, err.value.cap, str(err.value)) == (
        10, 9, "expansion cap exceeded: needs 10 > cap 9 (lower bound from letter counts at stage 2 of 3)")
    assert calls == []
    with pytest.raises(ExpansionCapExceeded):
        chained_apply((SPREAD, SPREAD, FOLD), start, 9)


def test_apply_stages_decides_the_band_stage_by_stage(monkeypatch):
    # a b under a -> a, b -> b c: apply checks 1 + 2 = 3 runs; the counts
    # only tell 2 (the image of b) to 2 + 2 (plus the two runs given)
    m = mk(Z3, {"a": "a", "b": "b c", "c": "c"})
    start = lang.parse_word(Z3, "a b")
    calls = count_stage_applies(monkeypatch)
    assert morph.apply_stages((m,), start, cap=3).runs == (("a", 1), ("b", 1), ("c", 1))
    assert calls == [2]
    with pytest.raises(ExpansionCapExceeded) as err:
        morph.apply_stages((m,), start, cap=2)
    assert (err.value.needed, err.value.cap) == (3, 2)
    # at the lower bound, with nothing before it, the check is exact
    assert morph.apply_stages((SPREAD,), lang.word(Z3, ["a"]), cap=5).runs == SPREAD.images[0].runs


def test_apply_stages_checks_alphabets():
    with pytest.raises(AlphabetMismatch):
        morph.apply_stages((SPREAD, H), lang.word(Z3, ["a"]))


# ---------------------------------------------------------------- compose

def test_compose_applies_left_then_right():
    f = mk(Z, {"z1": "z2", "z2": "z2"})
    g = mk(Z, {"z1": "z1", "z2": "z2 z2"})
    fg = morph.compose(f, g)
    assert fg.image("z1") == lang.parse_word(Z, "z2^2")
    w = lang.parse_word(Z, "z1 z2")
    assert morph.apply(fg, w) == morph.apply(g, morph.apply(f, w))


def test_compose_identity_neutral():
    ident = morph.identity_morphism(Z)
    assert morph.compose(H, ident) == H
    assert morph.compose(ident, H) == H


def test_compose_zero_absorbing():
    o = zero(Z)
    assert morph.compose(H, o) == o
    assert morph.compose(o, H) == o


def test_compose_shares_the_images_of_one_letter_images(squares_encoder):
    g2, P = squares_encoder.g2, squares_encoder.g1
    composite = morph.compose(g2, P)
    erased = {id(out) for img, out in zip(g2.images, composite.images) if not img.runs}
    assert len(erased) == 1  # one shared empty word
    for img, out in zip(g2.images, composite.images):
        if img.runs:
            (letter, count), = img.runs  # g2 maps every letter to at most one letter
            assert count == 1
            assert out is P.image(letter)


def test_compose_cap_names_letter():
    wide = mk(Z, {"z1": "z1^2 z2", "z2": "z2 z1"})
    with pytest.raises(ExpansionCapExceeded) as err:
        composite = wide
        for _ in range(39):
            composite = morph.compose(composite, wide, cap=10**4)
    assert "letter" in str(err.value)


# ---------------------------------------------------------------- matrices

def test_matrix_of_identity_and_zero():
    assert morph.matrix_of(morph.identity_morphism(Z4)) == matsem.identity(4)
    assert morph.matrix_of(zero(Z4)) == matsem.matrix(4, {})


def test_matrix_of_unipotent_rewrite():
    assert morph.matrix_of(H) == matsem.from_dense([[1, 1], [0, 1]])


def test_repeated_composition_matches_matrix_powers():
    power = morph.identity_morphism(Z)
    for n in range(1, 26):
        power = morph.compose(power, H)
        assert morph.matrix_of(power) == matsem.mat_pow(morph.matrix_of(H), n)
    # |z1 h^n|_{z2} = n for the unipotent rewrite
    assert lang.text(morph.apply(power, lang.word(Z, ["z1"]))) == "z1 z2^25"


def test_parikh_vector_is_a_copy():
    m = mk(Z, {"z1": "z1 z2^3", "z2": "z2"})
    vec = morph.parikh_vector(m.images[0])
    assert vec == {0: 1, 1: 3}
    morph.matrix_of(m)  # shares the image's counts as its rows
    vec[0] = 99
    vec[5] = 1
    assert morph.matrix_of(m) == matsem.from_dense([[1, 3], [0, 1]])
    assert morph.parikh_vector(m.images[0]) == {0: 1, 1: 3}


# ---------------------------------------------------------------- properties

def upper_triangular(g):
    """Every image uses only letters at or after its own letter."""
    return all(c >= r for r, c, _ in morph.matrix_of(g).entries)


@st.composite
def triangular_endos(draw):
    # image of letter i uses only letters with index >= i
    table = {}
    for i, z in enumerate(Z4.letters):
        pool = Z4.letters[i:]
        table[z] = lang.word(Z4, draw(st.lists(st.sampled_from(pool), max_size=4)))
    return morph.endomorphism(Z4, table)


@st.composite
def endos(draw):
    table = {
        z: lang.word(Z4, draw(st.lists(st.sampled_from(Z4.letters), max_size=4)))
        for z in Z4.letters
    }
    return morph.endomorphism(Z4, table)


words4 = st.lists(st.sampled_from(Z4.letters), max_size=12).map(lambda ls: lang.word(Z4, ls))


@given(endos(), words4)
@settings(max_examples=120)
def test_parikh_transport(g, w):
    lhs = matsem.vec_mat(morph.parikh_vector(w), morph.matrix_of(g))
    rhs = morph.parikh_vector(morph.apply(g, w))
    assert lhs == rhs


@given(endos(), endos())
@settings(max_examples=120)
def test_matrix_functoriality(f, g):
    lhs = morph.matrix_of(morph.compose(f, g))
    rhs = matsem.mat_mul(morph.matrix_of(f), morph.matrix_of(g))
    assert lhs == rhs


@given(endos(), endos(), endos())
@settings(max_examples=60)
def test_compose_associative(f, g, h):
    assert morph.compose(morph.compose(f, g), h) == morph.compose(f, morph.compose(g, h))


@given(endos(), words4, words4)
@settings(max_examples=80)
def test_apply_is_homomorphic(g, a, b):
    assert morph.apply(g, lang.word_concat(a, b)) == lang.word_concat(
        morph.apply(g, a), morph.apply(g, b)
    )


@given(triangular_endos(), triangular_endos())
@settings(max_examples=80)
def test_triangular_closed_under_compose_and_sum(f, g):
    assert upper_triangular(f)
    assert upper_triangular(morph.compose(f, g))
    # the block-diagonal endomorphism acting as f on Z4 and as g on a renamed copy
    same = {z: z for z in Z4.letters}
    renamed = {z: f"w{i}" for i, z in enumerate(Z4.letters)}
    combined = lang.leveled_alphabet([Z4.letters, tuple(renamed.values())])
    table = {z: lang.translate(img, same, combined) for z, img in zip(Z4.letters, f.images)}
    table.update({renamed[z]: lang.translate(img, renamed, combined)
                  for z, img in zip(Z4.letters, g.images)})
    assert upper_triangular(morph.endomorphism(combined, table))


@given(st.one_of(endos(), triangular_endos()))
@settings(max_examples=60)
def test_matrix_triangularity_agrees(g):
    # read off the images, letter by letter, against the count matrix
    on_images = all(
        Z4.index_of(y) >= i for i, img in enumerate(g.images) for y, _ in img.runs)
    assert on_images == upper_triangular(g)
