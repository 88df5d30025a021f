import pytest
from hypothesis import given, settings, strategies as st

from diomorph import lang, poly
from diomorph.errors import AlphabetMismatch, InvalidAlphabet

Z = lang.flat_alphabet(["z1", "z2", "z3", "e"])


def W(letters):
    return lang.word(Z, letters)


# ---------------------------------------------------------------- alphabets

def test_levels_partition():
    a = lang.leveled_alphabet([["a1", "b1"], ["a2"], ["e"]])
    assert a.letters == ("a1", "b1", "a2", "e")
    assert a.levels == (("a1", "b1"), ("a2",), ("e",))
    assert a.level_of("a1") == 1 and a.level_of("a2") == 2 and a.level_of("e") == 3
    assert a.index_of("a2") == 2


def test_alphabet_rejects_bad_names():
    with pytest.raises(ValueError):
        lang.flat_alphabet(["ok", "has space"])
    with pytest.raises(ValueError):
        lang.flat_alphabet(["z^2"])
    with pytest.raises(InvalidAlphabet, match="duplicate letters"):
        lang.flat_alphabet(["dup", "dup"])


# every code point with str.isspace(), so that draws hit Unicode whitespace often
UNICODE_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(st.characters() | st.sampled_from(UNICODE_WHITESPACE), min_size=1))
def test_letter_name_check_matches_a_per_character_scan(name):
    # the check splits the name on whitespace; a scan of every character
    # with str.isspace is the reference
    try:
        lang._check_letter_name(name)
        rejected = False
    except ValueError:
        rejected = True
    assert rejected == (any(ch.isspace() for ch in name) or "^" in name)


def test_equal_but_distinct_alphabets_compare_and_hash_equal():
    a = lang.leveled_alphabet([["a1", "b1"], ["e"]])
    b = lang.leveled_alphabet([["a1", "b1"], ["e"]])
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a == a
    for other in (lang.leveled_alphabet([["a1"], ["b1", "e"]]),
                  lang.leveled_alphabet([["b1", "a1"], ["e"]]),
                  lang.flat_alphabet(["a1", "b1", "e"])):
        assert a != other and other != a
    assert a != ("a1", "b1", "e")


def test_unknown_letter_lookup():
    with pytest.raises(AlphabetMismatch):
        Z.index_of("nope")


# ---------------------------------------------------------------- words

def test_run_normal_form():
    w = W(["z1", "z1", "z2", "z2", "z2", "z1"])
    assert w.runs == (("z1", 2), ("z2", 3), ("z1", 1))
    assert w.length == 6


def test_word_from_runs_merges_boundaries():
    w = lang.word_from_runs(Z, [("z1", 2), ("z1", 3), ("z2", 0), ("z3", 1)])
    assert w.runs == (("z1", 5), ("z3", 1))


def test_epsilon():
    assert lang.epsilon(Z).is_empty
    assert lang.epsilon(Z).length == 0
    assert lang.epsilon(Z).counts == {}


def test_astronomical_letter_power():
    big = 10**40
    w = lang.letter_power(Z, "e", big)
    assert w.length == big
    assert w.counts == {Z.index_of("e"): big}


# ---------------------------------------------------------------- concat / power

def test_concat_merges_boundary_runs():
    a = W(["z1", "z1"])
    b = W(["z1", "z2"])
    assert lang.word_concat(a, b).runs == (("z1", 3), ("z2", 1))


def test_concat_alphabet_mismatch():
    other = lang.flat_alphabet(["z1"])
    with pytest.raises(AlphabetMismatch):
        lang.word_concat(W(["z1"]), lang.word(other, ["z1"]))


def test_text_of_an_astronomical_run():
    w = lang.word_from_runs(Z, [("z1", 1), ("e", 10**40)])
    assert lang.text(w) == f"z1 e^{10**40}"
    assert lang.parse_word(Z, lang.text(w)) == w


# ---------------------------------------------------------------- parikh

def test_parikh_counts():
    assert W(["z1", "z2", "z1"]).counts == {Z.index_of("z1"): 2, Z.index_of("z2"): 1}


def test_parikh_matches_tupling_value():
    # the length of e^{C3(1,2,3)} is the tupling value itself
    value = poly.evaluate(poly.injective_tupling(3), (1, 2, 3))
    w = lang.letter_power(Z, "e", value)
    assert w.counts == {Z.index_of("e"): 179}


# ---------------------------------------------------------------- text

def test_text_round_trip():
    w = lang.word_from_runs(Z, [("z1", 2), ("z2", 1), ("e", 179)])
    assert lang.text(w) == "z1^2 z2 e^179"
    assert lang.parse_word(Z, "z1^2 z2 e^179") == w
    assert lang.parse_word(Z, "z1 z1 z2 e e^178") == w
    assert lang.parse_word(Z, "") == lang.epsilon(Z)
    assert lang.text(lang.epsilon(Z)) == ""


def test_parse_rejects_garbage():
    with pytest.raises(AlphabetMismatch):
        lang.parse_word(Z, "zz^2")
    with pytest.raises(ValueError):
        lang.parse_word(Z, "z1^0")
    with pytest.raises(ValueError):
        lang.parse_word(Z, "z1^-3")


def test_translate():
    target = lang.flat_alphabet(["A:z1", "A:z2", "e"])
    w = lang.word_from_runs(Z, [("z1", 3), ("z2", 1)])
    out = lang.translate(w, {"z1": "A:z1", "z2": "A:z2"}, target)
    assert out.runs == (("A:z1", 3), ("A:z2", 1))


def test_translate_checks_the_target_and_merges_runs():
    target = lang.flat_alphabet(["a", "b"])
    w = lang.parse_word(Z, "z1^2 z2 z1 e^3")
    with pytest.raises(AlphabetMismatch, match="letter 'y' not in alphabet"):
        lang.translate(w, {"z1": "a", "z2": "a", "e": "y"}, target)
    # a renaming that is not injective merges the runs it makes adjacent
    out = lang.translate(w, {"z1": "a", "z2": "a", "e": "b"}, target)
    assert out.runs == (("a", 4), ("b", 3))
    assert out == lang.word_from_runs(target, [("a", 2), ("a", 1), ("a", 1), ("b", 3)])


# ---------------------------------------------------------------- properties

letters = st.sampled_from(["z1", "z2", "z3", "e"])
small_words = st.lists(letters, max_size=30).map(W)


def plain(w):
    """The uncompressed letter sequence of a small word."""
    return tuple(letter for letter, count in w.runs for _ in range(count))


def merge(a, b):
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


@given(small_words, small_words)
@settings(max_examples=150)
def test_parikh_is_morphism(a, b):
    assert lang.word_concat(a, b).counts == merge(a.counts, b.counts)


@given(st.lists(st.tuples(letters, st.integers(0, 10**20)), max_size=12))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_counts_match_reference_loop(pairs):
    w = lang.word_from_runs(Z, pairs)
    want = {}
    for letter, count in pairs:
        if count:
            want[Z.index_of(letter)] = want.get(Z.index_of(letter), 0) + count
    fresh = lang.word_from_runs(Z, pairs)
    assert w.counts == want
    assert w.counts is w.counts  # counted once, then kept
    # the kept counts are not part of the word's value
    assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)


@given(small_words, small_words)
@settings(max_examples=150)
def test_concat_matches_expansion(a, b):
    assert plain(lang.word_concat(a, b)) == plain(a) + plain(b)


@given(small_words, small_words, small_words)
@settings(max_examples=80)
def test_concat_associative(a, b, c):
    assert lang.word_concat(lang.word_concat(a, b), c) == lang.word_concat(a, lang.word_concat(b, c))


@given(small_words)
@settings(max_examples=150)
def test_normal_form_is_canonical(a):
    rebuilt = lang.word(Z, plain(a))
    assert rebuilt == a
    assert rebuilt.runs == a.runs


@given(small_words)
@settings(max_examples=100)
def test_text_parse_round_trip(a):
    assert lang.parse_word(Z, lang.text(a)) == a


run_lists = st.lists(st.tuples(letters, st.integers(1, 3)), max_size=8)


@given(run_lists)
@settings(max_examples=200)
def test_parse_word_matches_word_from_runs(runs):
    # run lists like "z1 z1^2 e e", not in normal form
    text = " ".join(z if n == 1 else f"{z}^{n}" for z, n in runs)
    w = lang.parse_word(Z, text)
    assert w == lang.word_from_runs(Z, runs)
    assert lang.Word(w.alphabet, w.runs) == w
