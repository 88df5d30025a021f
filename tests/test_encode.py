"""Tests for the two-counter encoder and its verification suites."""

import dataclasses
import gc
import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diomorph import encode, interchange, matsem, morph, mtriple, poly
from diomorph.encode import (
    CONTROL_LETTERS,
    FINAL_LETTER,
    apply_generator_word,
    argument_word,
    build_encoder,
    generator_words,
    p_side_morphism,
    p_side_word,
    q_side_morphism,
    q_side_word,
    word_morphism,
)
from diomorph.errors import AlphabetBudgetExceeded, ArityMismatch, ExpansionCapExceeded
from diomorph.lang import letter_power, translate, word
from diomorph.morph import apply, parikh_vector

from dag_layout import dag_letters, dag_nodes, read_layout


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_rejects_mismatched_arities():
    with pytest.raises(ArityMismatch):
        build_encoder(poly.variable(1, 2), poly.variable(1, 3))


def test_build_rejects_single_variable():
    with pytest.raises(ArityMismatch):
        build_encoder(poly.variable(1, 1), poly.variable(1, 1))


def test_build_respects_alphabet_budget():
    p = poly.variable(2, 2)
    with pytest.raises(AlphabetBudgetExceeded):
        build_encoder(p, p, budget=50)


def test_alphabet_layout(toy_encoder):
    abc = toy_encoder.alphabet
    assert abc.letters[:4] == CONTROL_LETTERS
    assert abc.letters[-1] == FINAL_LETTER
    assert sum(abc.level_sizes) == len(abc.letters)
    assert abc.level_sizes[-1] == 1
    # every non-control, non-final letter carries exactly one side tag
    for letter in abc.letters[4:-1]:
        assert letter.startswith("A:") ^ letter.startswith("B:")
    # levels: t + 1 of them for t argument slots
    assert len(abc.level_sizes) == toy_encoder.dimension + 1


def test_tupled_polynomials_record_value_in_last_slot(toy_encoder):
    # p_tupled(x) = tupling(x, p(x)): recompute independently per point
    enc = toy_encoder
    tupling = poly.injective_tupling(3)
    for point in [(1, 1), (2, 3), (4, 2), (5, 5)]:
        assert poly.evaluate(enc.p_tupled, point) == poly.evaluate(
            tupling, point + (poly.evaluate(enc.p, point),)
        )
        assert poly.evaluate(enc.q_tupled, point) == poly.evaluate(
            tupling, point + (poly.evaluate(enc.q, point),)
        )


def test_squares_tupling_has_a_slot_per_argument_and_one_for_the_value(squares_encoder):
    enc = squares_encoder
    assert enc.p_tupled == encode.tupled(enc.p)
    assert enc.q_tupled == encode.tupled(enc.q)
    # injective on positive tuples: distinct points give distinct tupled values
    box = list(itertools.product(range(1, 4), repeat=3))
    assert len({poly.evaluate(enc.q_tupled, point) for point in box}) == len(box)


@st.composite
def slot_polynomials(draw):
    """A polynomial in t = 2..4 variables, for the tupling of its slots."""
    t = draw(st.integers(2, 4))
    items = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * t), st.integers(1, 9)),
                          min_size=1, max_size=3))
    return poly.polynomial(t, items)


@given(slot_polynomials())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_tupled_equals_the_tupling_composed_with_the_slots(p):
    t = p.arity
    slots = [poly.variable(i, t) for i in range(1, t + 1)] + [p]
    assert encode.tupled(p) == poly.compose(poly.injective_tupling(t + 1), slots)


def test_build_encoder_composes_no_polynomials(monkeypatch):
    # the tupled polynomials are nested pairings of the slots, not substitutions
    calls = []

    def counting_compose(outer, args):
        calls.append(outer)
        return poly.compose(outer, args)

    monkeypatch.setattr(poly, "compose", counting_compose)
    x2, x3 = poly.variable(2, 3), poly.variable(3, 3)
    build_encoder(x2, poly.mul(x3, x3))
    assert calls == []


def test_side_indices_partition_the_alphabet(toy_encoder):
    enc = toy_encoder
    first, second = enc.first_indices, enc.second_indices
    controls, final = set(enc.control_indices), {enc.final_index}
    assert first and second and not first & second
    assert first | second | controls | final == set(range(len(enc.alphabet)))
    assert len(first) + len(second) + len(controls) + 1 == len(enc.alphabet)
    # each counter's witness starts on its own side
    assert set(enc.u.counts) <= first and set(enc.v.counts) <= second


def test_frozen_tupled_values(toy_encoder):
    # C2(a, b) = (a+b)² + a nested twice: C3(2, 3, 3) = C2(27, 3) = 927
    assert poly.evaluate(toy_encoder.p_tupled, (2, 3)) == 927
    assert poly.evaluate(toy_encoder.q_tupled, (2, 3)) == 868


def test_control_tables(toy_encoder):
    enc = toy_encoder
    chain = {"c0": "c1", "c1": "c2", "c2": "c3", "c3": "c3"}
    for source, target in chain.items():
        assert enc.g2.image(source) == word(enc.alphabet, [target])
    assert enc.g1.image("c0").is_empty
    assert enc.g1.image("c1").is_empty
    assert enc.g1.image("c2") == apply(enc.g1, enc.u)
    assert enc.g1.image("c3") == apply(enc.g1, enc.v)
    assert enc.g1.image(FINAL_LETTER).is_empty
    assert enc.g2.image(FINAL_LETTER).is_empty


# sha256 of each conftest encoder document, recorded when each tupled
# polynomial was laid out as the minimal DAG of its terms' prefix tree
# (document version 3); the documents must stay byte-identical
GOLDEN_ENCODER_SHA256 = {
    "toy_encoder": "bafc04a549c48bcc7f980ab85d41f6c50306c01cb840655153b654220415dba2",
    "squares_encoder": "89b25e867b8049bed0f029bf07431f542dee35b817c560af1ccd6b16e17cbc38",
    "trivial_encoder": "7037e2665e521c48ef433ada25e06037be600c4ea84550f95840cf8a88d34441",
    "empty_encoder": "2c5f57d20154e9f7e1a3e75e06c793fe27175d521baafddeb4a57940a805c698",
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN_ENCODER_SHA256))
def test_encoder_documents_match_golden_digests(fixture, request):
    text = interchange.dumps(interchange.encoder_to_doc(request.getfixturevalue(fixture)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ENCODER_SHA256[fixture]


# sha256 of each suite report's machine rendering, recorded before morphism
# equality and the collapse suite's word-level pairs shared their work; the
# reports must stay byte-identical (the suites' details name no letters, so
# toy and squares give the same conditions and collapse documents)
GOLDEN_SUITE_SHA256 = {
    ("toy_encoder", "conditions"): "fa487b6836096bed4be580adf6ffa2c2fbd629128c00610cd9e3dcc05043477e",
    ("toy_encoder", "collapse"): "28d3a954c43ae7e93a4e3950cb0570f8f7b71a224459458108de81e460836921",
    ("toy_encoder", "staged"): "c2ead04ff8408e9d9cd6674688cefff36f9fc7b2e54a98419f6e7f2f019681c5",
    ("toy_encoder", "functoriality"): "80b6906478c5f798138bddfc3524765905cd60f2288370b3f58a98e168338ba3",
    ("squares_encoder", "conditions"): "fa487b6836096bed4be580adf6ffa2c2fbd629128c00610cd9e3dcc05043477e",
    ("squares_encoder", "collapse"): "28d3a954c43ae7e93a4e3950cb0570f8f7b71a224459458108de81e460836921",
    # recorded before composites shared one-letter images and words kept
    # their letter counts
    ("squares_encoder", "staged-bound-1"): "611f1268c3bae55fb995251173545cccbe3f09258d4ce666e8d681faf1537b67",
    # recorded before words of the last length were checked image by image;
    # at max-len 5 the composite of 11111 exceeds the cap, though 1111 fits
    ("squares_encoder", "functoriality"): "80b6906478c5f798138bddfc3524765905cd60f2288370b3f58a98e168338ba3",
    ("squares_encoder", "functoriality-max-len-5"): "ee09e8b75dd7357fd8a2ae7c23e04e7805fd1d4fa0075eca8495d1caaec344e8",
}
SUITES = {
    "conditions": encode.condition_suite,
    "collapse": lambda enc: encode.annihilation_suite(enc, max_len=3),
    "staged": encode.staged_evaluation_suite,
    "staged-bound-1": lambda enc: encode.staged_evaluation_suite(enc, bound=1),
    "functoriality": encode.functoriality_suite,
    "functoriality-max-len-5": lambda enc: encode.functoriality_suite(enc, max_len=5),
}


@pytest.mark.parametrize("fixture,suite", sorted(GOLDEN_SUITE_SHA256))
def test_suite_reports_match_golden_digests(fixture, suite, request):
    text = SUITES[suite](request.getfixturevalue(fixture)).render("machine")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SUITE_SHA256[fixture, suite]


def test_loading_and_generator_matrices_retain_no_more_memory(squares_encoder):
    """Kept letter counts cost no memory beyond the matrix rows they become.

    Loading the squares encoder and building its generator matrices retains
    18.54 MB under tracemalloc (Python 3.11); the same load with rows built
    afresh from the runs, the words left uncounted, retains as much.
    """
    text = interchange.dumps(interchange.encoder_to_doc(squares_encoder))

    def fresh_rows(g):
        position = g.alphabet._positions
        rows = {}
        for i, img in enumerate(g.images):
            if img.runs:
                row = rows[i] = {}
                for letter, count in img.runs:
                    row[position[letter]] = row.get(position[letter], 0) + count
        return rows

    def retained(build):
        gc.collect()
        tracemalloc.start()
        try:
            enc = interchange.encoder_from_doc(interchange.loads(text))
            kept = build(enc)  # noqa: F841 -- held while measuring
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    counted = retained(encode.matrices)
    uncounted = retained(lambda enc: (fresh_rows(enc.g1), fresh_rows(enc.g2)))
    assert counted <= uncounted + 16 * 1024


def test_functoriality_keeps_no_composite_of_the_last_length(squares_encoder):
    """Words of the last length are checked image by image.

    At max-len 3 the suite keeps the composites of length 2 and their
    products, and builds each image of a length-3 composite only to compare
    its counts.  So its tracemalloc peak stays below that of merely holding
    every composite up to length 3 at once: 4.5 against 5.3 MB under Python
    3.11, 4.8 against 5.8 MB under 3.10.  Keeping them all with their
    products peaks at 8.1 MB (3.11) and 8.7 MB (3.10).
    """
    enc = squares_encoder
    encode.matrices(enc)  # cached on the encoder: outside both measurements

    def peak(build):
        gc.collect()
        tracemalloc.start()
        try:
            kept = build()  # noqa: F841 -- held while measuring
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def every_composite():
        comp = {(): morph.identity_morphism(enc.alphabet)}
        for w in itertools.islice(generator_words(3), 1, None):  # past the empty word
            comp[w] = morph.compose(enc.generator(w[0]), comp[w[1:]])
        return comp

    suite = peak(lambda: encode.functoriality_suite(enc, max_len=3))
    assert suite < peak(every_composite)


def test_witnesses_are_tagged_translations(toy_encoder):
    enc = toy_encoder
    first = mtriple.compile_polynomial(enc.p_tupled)
    mapping = {
        z: (z if z == FINAL_LETTER else f"A:{z}")
        for z in first.triple.alphabet.letters
    }
    assert translate(first.witness, mapping, enc.alphabet) == enc.u


def test_generator_lookup(toy_encoder):
    assert toy_encoder.generator(1) is toy_encoder.g1
    assert toy_encoder.generator(2) is toy_encoder.g2
    with pytest.raises(ValueError):
        toy_encoder.generator(3)


# ---------------------------------------------------------------------------
# Generator words and equation sides
# ---------------------------------------------------------------------------


def test_argument_word_shapes():
    assert argument_word([2]) == (1, 1, 2)
    assert argument_word([1, 2]) == (1, 2, 1, 1, 2)
    with pytest.raises(ValueError):
        argument_word([])
    with pytest.raises(ValueError):
        argument_word([0])


def test_side_words():
    assert p_side_word(1, 2) == (2, 2, 1, 2, 1, 1, 2)
    assert q_side_word(1, 2) == (2, 2, 2, 1, 2, 1, 1, 2)


def test_generator_words_shortlex_order():
    assert list(generator_words(2)) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]


def test_apply_matches_materialized_morphism(toy_encoder):
    enc = toy_encoder
    start = word(enc.alphabet, ["c0", "c2", FINAL_LETTER])
    for gens in [(), (1,), (2, 2), (2, 1, 2), (1, 2, 1, 1, 2)]:
        composite = word_morphism(enc, gens)
        assert apply_generator_word(enc, start, gens) == apply(composite, start)


@given(st.data())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_apply_generator_word_matches_stage_by_stage_apply(encoder_named, data):
    enc = encoder_named("squares_encoder")
    letters = st.sampled_from(CONTROL_LETTERS + enc.alphabet.letters[::97])
    start = word(enc.alphabet, data.draw(st.lists(letters, min_size=1, max_size=3)))
    gens = data.draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=6))
    # the run count of each stage word, as far as stages stay small, and caps next to one
    stage_runs, current = [], start
    try:
        for symbol in gens:
            current = apply(enc.generator(symbol), current, cap=50_000)
            stage_runs.append(len(current.runs))
    except ExpansionCapExceeded:
        stage_runs.append(50_000)
    cap = max(1, data.draw(st.sampled_from(stage_runs)) + data.draw(st.sampled_from((-1, 0, 1))))
    try:
        want = start
        for symbol in gens:
            want = apply(enc.generator(symbol), want, cap=cap)
    except ExpansionCapExceeded:
        with pytest.raises(ExpansionCapExceeded):
            apply_generator_word(enc, start, gens, cap=cap)
        return
    assert apply_generator_word(enc, start, gens, cap=cap) == want


def test_side_words_evaluate_on_control_letters(toy_encoder):
    enc = toy_encoder
    abc = enc.alphabet
    for point in [(1, 1), (2, 1), (1, 3), (3, 2)]:
        vp = poly.evaluate(enc.p_tupled, point)
        vq = poly.evaluate(enc.q_tupled, point)
        gens = (2, 2) + argument_word(point)
        assert apply_generator_word(enc, word(abc, ["c0"]), gens) == letter_power(
            abc, FINAL_LETTER, vp
        )
        # c1, c2, c3 all track the second counter on the double-raise side
        for letter in ("c1", "c2", "c3"):
            assert apply_generator_word(enc, word(abc, [letter]), gens) == letter_power(
                abc, FINAL_LETTER, vq
            )
        # the triple raise sends every control letter to the second counter
        gens3 = (2, 2, 2) + argument_word(point)
        for letter in CONTROL_LETTERS:
            assert apply_generator_word(enc, word(abc, [letter]), gens3) == letter_power(
                abc, FINAL_LETTER, vq
            )


def test_equation_sides_agree_exactly_on_equal_values(toy_encoder):
    # p = x2, q = x1: the sides agree at (n, s) exactly when n == s
    enc = toy_encoder
    assert p_side_morphism(enc, 2, 2) == q_side_morphism(enc, 2, 2)
    assert p_side_morphism(enc, 1, 2) != q_side_morphism(enc, 1, 2)
    assert p_side_morphism(enc, 3, 1) != q_side_morphism(enc, 3, 1)


def test_side_morphisms_erase_noncontrol_letters(toy_encoder):
    enc = toy_encoder
    side = p_side_morphism(enc, 2, 3)
    for letter in enc.alphabet.letters:
        if letter in CONTROL_LETTERS:
            assert side.image(letter).support() <= {FINAL_LETTER}
        else:
            assert side.image(letter).is_empty


def test_word_morphism_empty_is_identity(toy_encoder):
    assert word_morphism(toy_encoder, ()) == morph.identity_morphism(toy_encoder.alphabet)


def test_word_morphism_honours_cap(squares_encoder):
    with pytest.raises(ExpansionCapExceeded):
        word_morphism(squares_encoder, (1, 1, 1, 1, 1), cap=10_000)


def test_matrices_match_generic_helper(toy_encoder):
    assert encode.matrices(toy_encoder) == (morph.matrix_of(toy_encoder.g1),
                                            morph.matrix_of(toy_encoder.g2))


# ---------------------------------------------------------------------------
# Condition suite
# ---------------------------------------------------------------------------


def test_condition_suite_passes(toy_encoder):
    report = encode.condition_suite(toy_encoder)
    assert report.passed
    assert report.suite == "conditions"


def test_validation_profile(toy_encoder):
    violations = mtriple.validate(toy_encoder.triple())
    assert tuple(violations) == mtriple.CONDITION_NAMES
    assert tuple(sorted(violations["square_erasing"])) == tuple(sorted(CONTROL_LETTERS))
    assert set(violations["level_raising"]) <= set(CONTROL_LETTERS)
    for name in mtriple.CONDITION_NAMES:
        if name not in ("square_erasing", "level_raising"):
            assert violations[name] == (), name


def test_condition_suite_detects_broken_control_chain(toy_encoder):
    enc = toy_encoder
    table = dict(enc.g2.table())
    table["c2"] = word(enc.alphabet, ["c2"])  # break c2 -> c3
    broken = dataclasses.replace(enc, g2=morph.endomorphism(enc.alphabet, table))
    report = encode.condition_suite(broken)
    assert not report.passed
    assert any(c.name == "control-g2-image c2" for c in report.failures())


def test_condition_suite_detects_surviving_double_raise(toy_encoder):
    enc = toy_encoder
    # make some first-counter letter survive two raises: map a level-2 letter
    # to itself under g2
    culprit = next(
        z
        for z in enc.alphabet.letters
        if z.startswith("A:") and enc.alphabet.level_of(z) == 2
    )
    table = dict(enc.g2.table())
    table[culprit] = word(enc.alphabet, [culprit])
    broken = dataclasses.replace(enc, g2=morph.endomorphism(enc.alphabet, table))
    report = encode.condition_suite(broken)
    failed = {c.name for c in report.failures()}
    assert "double-raise-erases-noncontrol" in failed


def test_condition_suite_detects_altered_g1_image(toy_encoder):
    # the last letter of q's last gadget in level 2 maps to itself, z -> z;
    # as z -> z^2 every structural check still holds, only the comparison
    # with a fresh build sees the change
    enc = toy_encoder
    z = [a for a in enc.alphabet.levels[1] if a.startswith("B:")][-1]
    i = enc.alphabet.index_of(z)
    assert enc.g1.images[i] == word(enc.alphabet, [z])
    images = list(enc.g1.images)
    images[i] = letter_power(enc.alphabet, z, 2)
    broken = dataclasses.replace(enc, g1=dataclasses.replace(enc.g1, images=tuple(images)))
    report = encode.condition_suite(broken)
    assert [c.name for c in report.failures()] == ["tagged-blocks-match-recompilation"]


# ---------------------------------------------------------------------------
# Staged evaluation suite
# ---------------------------------------------------------------------------


def test_staged_suite_toy(toy_encoder):
    report = encode.staged_evaluation_suite(toy_encoder, bound=3)
    assert report.passed
    assert report.suite == "staged"
    names = [c.name for c in report.checks]
    assert "stage-support alpha=1 point=1" in names
    assert "final-value side=p point=3,3" in names
    assert "post-collapse point=2,2" in names


def test_staged_suite_detects_wrong_recorded_polynomial(toy_encoder):
    # swap the recorded tupled polynomials: the collapse values no longer
    # match the independent evaluation
    enc = toy_encoder
    swapped = dataclasses.replace(enc, p_tupled=enc.q_tupled, q_tupled=enc.p_tupled)
    # at (1, 1) both polynomials take the same value, so check a box that
    # contains a point where they differ
    report = encode.staged_evaluation_suite(swapped, bound=2)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "final-value side=p point=1,2" in failed


# ---------------------------------------------------------------------------
# Annihilation suite
# ---------------------------------------------------------------------------


def test_annihilation_suite_toy(toy_encoder):
    report = encode.annihilation_suite(toy_encoder, max_len=3)
    assert report.passed
    assert report.suite == "collapse"
    # 15 words of length <= 3 over two generators: 1 + 2 + 4 + 8
    names = [c.name for c in report.checks]
    assert names.count("left-product-vanishes h1=ε") == 1
    assert sum(1 for n in names if n.startswith("pair ")) == 15 * 15
    assert sum(1 for n in names if n.startswith("word-level pair ")) == 9


def test_annihilation_word_level_explicitly(toy_encoder):
    # g1 · g2² is zero, and so is anything built around it
    enc = toy_encoder
    wiped = morph.compose(morph.compose(enc.g1, enc.g2), enc.g2)
    assert morph.is_zero_morphism(wiped)
    framed = enc.g1
    for g in (enc.g1, enc.g2, enc.g2, enc.g1, enc.g2):
        framed = morph.compose(framed, g)
    assert morph.is_zero_morphism(framed)


def test_annihilation_suite_composes_each_prefix_once(toy_encoder, monkeypatch):
    # the nine word-level pairs need 11 distinct prefixes of g1·h1·g2²·h2
    calls = []

    def counting_compose(f, g, cap=None):
        calls.append((f, g))
        return morph.compose(f, g, cap)

    monkeypatch.setattr(encode, "compose", counting_compose)
    report = encode.annihilation_suite(toy_encoder, max_len=3)
    assert len(calls) == 11
    labels = ("ε", "1", "2")
    assert [c.name for c in report.checks if c.name.startswith("word-level pair ")] == [
        f"word-level pair h1={a} h2={b}" for a in labels for b in labels
    ]


def test_annihilation_suite_detects_control_leak(toy_encoder):
    enc = toy_encoder
    culprit = next(z for z in enc.alphabet.letters if z.startswith("A:"))
    table = dict(enc.g1.table())
    table[culprit] = word(enc.alphabet, ["c0"])  # leak a control letter
    broken = dataclasses.replace(enc, g1=morph.endomorphism(enc.alphabet, table))
    report = encode.annihilation_suite(broken, max_len=1)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "step1-control-columns-empty" in failed


# ---------------------------------------------------------------------------
# Functoriality suite
# ---------------------------------------------------------------------------


def test_functoriality_suite_toy_exhaustive(toy_encoder):
    report = encode.functoriality_suite(toy_encoder, max_len=8)
    assert report.passed
    assert report.notes == ()  # nothing capped: full word-level coverage
    assert len(report.checks) == 2**9 - 2  # 510 nonempty words
    assert all(c.method == "word" for c in report.checks)


def test_functoriality_single_step_by_hand(toy_encoder):
    enc = toy_encoder
    m1, m2 = encode.matrices(enc)
    composite = morph.compose(enc.g1, enc.g2)
    assert morph.matrix_of(composite) == matsem.mat_mul(m1, m2)


def _g1_with_row(enc, letter, change):
    """The generator matrices with g1's row for ``letter`` replaced by
    ``change(row)``; a row of ``None`` is dropped."""
    m1, m2 = encode.matrices(enc)
    i = enc.alphabet.index_of(letter)
    assert i in m2.cols  # some g2 image holds the letter, so g2·g1 sees the change
    rows = dict(m1.rows)
    rows.pop(i, None)
    row = change(m1.rows.get(i))
    if row is not None:
        rows[i] = row
    return matsem._from_rows(m1.dimension, rows), m2


def _extra_row(row):
    assert row is None  # the letter's g1 image is empty
    return {0: 1}


@pytest.mark.parametrize("letter,change", [
    ("c2", lambda row: {c: v + 1 for c, v in row.items()}),
    ("e", _extra_row),
    ("c2", lambda row: None),
], ids=["changed-row", "extra-row", "missing-row"])
@pytest.mark.parametrize("max_len,failing", [
    (1, {"word 1"}),  # only the last length, checked image by image
    (2, {"word 1", "word 21"}),  # a kept composite and a last-length word
], ids=["max-len-1", "max-len-2"])
def test_functoriality_fails_where_products_disagree(
        toy_encoder, monkeypatch, letter, change, max_len, failing):
    broken = _g1_with_row(toy_encoder, letter, change)
    monkeypatch.setattr(encode, "matrices", lambda enc: broken)
    report = encode.functoriality_suite(toy_encoder, max_len=max_len)
    assert not report.passed
    assert failing <= {c.name for c in report.failures()}


def test_probe_letters_start_with_controls(toy_encoder):
    probe = encode._probe_letters(toy_encoder)
    assert probe[:5] == CONTROL_LETTERS + (FINAL_LETTER,)
    assert len(probe) <= 64
    assert len(set(probe)) == len(probe)


# ---------------------------------------------------------------------------
# Randomized pairs
# ---------------------------------------------------------------------------


def small_polynomials(arity: int):
    monomial = st.tuples(
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0, max_value=2), min_size=arity, max_size=arity),
    )
    return st.lists(monomial, min_size=1, max_size=2).map(
        lambda items: _assemble(arity, items)
    )


def _assemble(arity, items):
    acc = poly.zero(arity)
    for coeff, exps in items:
        term = poly.constant(coeff, arity)
        for i, e in enumerate(exps, start=1):
            for _ in range(e):
                term = poly.mul(term, poly.variable(i, arity))
        acc = poly.add(acc, term)
    return acc


@settings(max_examples=8, deadline=None)
@given(p=small_polynomials(2), q=small_polynomials(2))
def test_random_pairs_build_and_verify(p, q):
    enc = build_encoder(p, q)
    assert encode.condition_suite(enc).passed
    assert encode.staged_evaluation_suite(enc, bound=1).passed
    # the equation sides agree exactly when the polynomials agree at the point
    for point in [(1, 1), (2, 1)]:
        same = poly.evaluate(p, point) == poly.evaluate(q, point)
        sides_equal = p_side_morphism(enc, *point) == q_side_morphism(enc, *point)
        assert sides_equal == same


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    s=st.integers(min_value=1, max_value=3),
)
def test_side_matrices_track_side_morphisms(encoder_named, n, s):
    enc = encoder_named("toy_encoder")
    m1, m2 = encode.matrices(enc)
    assert morph.matrix_of(p_side_morphism(enc, n, s)) == matsem.p_side_matrix(m1, m2, n, s)
    assert morph.matrix_of(q_side_morphism(enc, n, s)) == matsem.q_side_matrix(m1, m2, n, s)


# ---------------------------------------------------------------------------
# Squares instance (three variables, large alphabet)
# ---------------------------------------------------------------------------


def test_squares_layout(squares_encoder):
    enc = squares_encoder
    assert enc.dimension == 3
    assert len(enc.alphabet.level_sizes) == 4
    # one letter per root block: the distinct first exponents of 86 and 82 terms
    assert (len(enc.p_tupled.terms), len(enc.q_tupled.terms)) == (86, 82)
    assert (enc.u.length, enc.v.length) == (9, 9)
    for w, p in ((enc.u, enc.p_tupled), (enc.v, enc.q_tupled)):
        value = poly.evaluate(p, (1, 1, 1))
        assert apply_generator_word(enc, w, argument_word((1, 1, 1))) == letter_power(
            enc.alphabet, FINAL_LETTER, value)


@pytest.mark.parametrize("fixture", ["toy_encoder", "squares_encoder", "trivial_encoder", "empty_encoder"])
def test_each_counter_hands_its_coefficients_down_to_e(fixture, request):
    # u and v hold their root blocks' first letters once each, one per
    # distinct first exponent.  Each counter's root-to-leaf paths spell its
    # tupled polynomial's terms, through one tagged block per node of its
    # minimal DAG in order of first appearance, so one exponent-0 leaf
    # serves every term that ends in exponent 0
    enc = request.getfixturevalue(fixture)
    g1, g2 = enc.g1.table(), enc.g2.table()
    first_level = set(enc.alphabet.levels[0])
    for w, p, tag in ((enc.u, enc.p_tupled, "A:"), (enc.v, enc.q_tupled, "B:")):
        assert w.length == len(w.runs) == len({exponents[0] for exponents, _ in p.terms})
        assert all(z.startswith(tag) and z in first_level for z in w.support())
        blocks, terms = read_layout(enc.alphabet, g1, g2, w)
        assert terms == dict(p.terms)
        assert [list(level.values()) for level in blocks] == [dag_nodes(p, li) for li in range(1, p.arity + 1)]
        assert all(enc.alphabet.letters[first].startswith(tag) for level in blocks for first in level)
        assert list(blocks[-1].values()).count(0) == 1


def composites_encoder():
    """p = x2 against q = (x3 + 1)(x4 + 1): the sides agree exactly when x2 is composite."""
    one = poly.constant(1, 4)
    return build_encoder(poly.variable(2, 4), poly.mul(poly.add(poly.variable(3, 4), one),
                                                       poly.add(poly.variable(4, 4), one)))


# letters of each encoder: the control letters, one gadget block per node of
# each tupled polynomial's minimal DAG, and e
LETTER_COUNTS = {"toy_encoder": 88, "squares_encoder": 546, "trivial_encoder": 521, "empty_encoder": 537,
                 "composites": 5271}


@pytest.mark.parametrize("name", sorted(LETTER_COUNTS))
def test_encoder_letter_counts(name, request):
    enc = composites_encoder() if name == "composites" else request.getfixturevalue(name)
    assert len(enc.alphabet) == LETTER_COUNTS[name] == (
        len(CONTROL_LETTERS) + dag_letters(enc.p_tupled) + dag_letters(enc.q_tupled) + 1)


def test_squares_equation_side_on_perfect_square(squares_encoder):
    # p = x2, q = x3²: at (n, s, j) the sides agree exactly when s == j².
    enc = squares_encoder
    abc = enc.alphabet
    cap = 6_000_000  # the s=4 trajectories need a few million runs
    for s, j, equal in [(4, 2, True), (4, 1, False), (2, 1, False), (3, 1, False)]:
        gens_p = (2, 2) + argument_word((1, s, j))
        gens_q = (2, 2, 2) + argument_word((1, s, j))
        wp = apply_generator_word(enc, word(abc, ["c0"]), gens_p, cap=cap)
        wq = apply_generator_word(enc, word(abc, ["c0"]), gens_q, cap=cap)
        assert wp.support() <= {FINAL_LETTER}
        assert wq.support() <= {FINAL_LETTER}
        assert (wp == wq) == equal


def test_squares_equation_side_beyond_word_reach(squares_encoder, squares_matrices):
    # At s = 9 the stage words have hundreds of millions of letters, out of
    # reach for materialization.  Letter counts transported through the
    # matrices stay exact: the two sides collapse to powers of the final
    # letter, so count equality decides word equality.
    enc = squares_encoder
    m1, m2 = squares_matrices
    abc = enc.alphabet
    e_idx = abc.index_of(FINAL_LETTER)

    def side_counts(start, gens):
        vec = {abc.index_of(start): 1}
        for g in gens:
            vec = matsem.vec_mat(vec, m1 if g == 1 else m2)
        return vec

    for s, j, equal in [(9, 3, True), (9, 2, False), (8, 2, False)]:
        vp = side_counts("c0", (2, 2) + argument_word((1, s, j)))
        vq = side_counts("c0", (2, 2, 2) + argument_word((1, s, j)))
        assert set(vp) == {e_idx} and set(vq) == {e_idx}
        assert vp[e_idx] == poly.evaluate(enc.p_tupled, (1, s, j))
        assert vq[e_idx] == poly.evaluate(enc.q_tupled, (1, s, j))
        assert (vp == vq) == equal
