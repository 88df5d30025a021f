"""Tests for the bounded solvers and the arithmetic oracle."""

import hashlib
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diomorph import encode, matsem, morph, poly, solve
from diomorph.solve import (
    diophantine_oracle,
    equivalence_report,
    extract_argument_tuple,
    solve_one_unknown,
    solve_one_unknown_words,
    solve_two_unknowns,
    solve_two_unknowns_words,
)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_brute_force_cross_check():
    # independent in-test brute force over the same box
    p = poly.variable(2, 3)
    q = poly.mul(poly.variable(3, 3), poly.variable(3, 3))
    for s in range(1, 10):
        want = None
        for j in range(1, 6):
            if poly.evaluate(p, (1, s, j)) == poly.evaluate(q, (1, s, j)):
                want = (j,)
                break
        assert diophantine_oracle(p, q, 1, s, 5) == want


def test_oracle_squares_frozen_values():
    p = poly.variable(2, 3)
    q = poly.mul(poly.variable(3, 3), poly.variable(3, 3))
    assert diophantine_oracle(p, q, 1, 4, 5) == (2,)
    assert diophantine_oracle(p, q, 1, 9, 5) == (3,)
    assert diophantine_oracle(p, q, 1, 3, 5) is None


def test_oracle_returns_lex_least():
    # x3 * x4 = 4 has witnesses (1,4), (2,2), (4,1); lexicographic order
    # puts (1,4) first
    p = poly.mul(poly.variable(3, 4), poly.variable(4, 4))
    q = poly.constant(4, 4)
    assert diophantine_oracle(p, q, 1, 1, 4) == (1, 4)


def test_oracle_two_variable_pair_checks_directly():
    # arity 2: nothing left to search, the box is the empty product
    p = poly.variable(2, 2)
    q = poly.variable(1, 2)
    assert diophantine_oracle(p, q, 3, 3, 7) == ()
    assert diophantine_oracle(p, q, 3, 4, 7) is None


@given(st.integers(1, 5), st.integers(0, 4))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_box_walks_the_product_in_lexicographic_order(bound, length):
    assert list(solve.box(bound, length)) == list(iter_product(range(1, bound + 1), repeat=length))


def test_oracle_input_validation():
    p = poly.variable(2, 3)
    with pytest.raises(ValueError):
        diophantine_oracle(p, poly.variable(1, 2), 1, 1, 5)
    with pytest.raises(ValueError):
        diophantine_oracle(p, p, 0, 1, 5)
    with pytest.raises(ValueError):
        diophantine_oracle(p, p, 1, 1, 0)
    with pytest.raises(ValueError):
        diophantine_oracle(poly.variable(1, 1), poly.variable(1, 1), 1, 1, 5)


# ---------------------------------------------------------------------------
# Witness words and parsing
# ---------------------------------------------------------------------------


def test_extract_argument_tuple_round_trip():
    assert extract_argument_tuple(3, 1, 4, (1, 1, 2)) == (1, 4, 2)
    assert extract_argument_tuple(2, 5, 7, ()) == (5, 7)
    assert extract_argument_tuple(4, 2, 1, (1, 2, 1, 1, 1, 2)) == (2, 1, 1, 3)


def test_extract_argument_tuple_rejects_bad_shapes():
    # the messages reach report output as caveats; "found N" counts n and s
    cases = [
        ((3, 1, 4, (2,)), "empty block of level-preserving steps"),
        ((3, 1, 4, (1, 1, 2, 1)), "trailing level-preserving steps after the last raise"),
        ((3, 1, 4, ()), "expected 3 argument blocks, found 2"),
        ((2, 1, 4, (1, 2)), "expected 2 argument blocks, found 3"),
        ((3, 1, 4, (1, 3, 2)), "unknown generator symbol 3"),
        ((3, 0, 4, (1, 2)), "argument entries are positive integers, got 0"),
        ((3, 1, -1, (1, 2)), "argument entries are positive integers, got -1"),
        ((3, 0, -1, (1, 2)), "argument entries are positive integers, got 0"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            extract_argument_tuple(*args)
        assert str(err.value) == message, args


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    s=st.integers(min_value=1, max_value=5),
    rest=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=3),
)
def test_extract_inverts_witness_words(n, s, rest):
    dimension = 2 + len(rest)
    x = encode.argument_word(rest) if rest else ()
    assert extract_argument_tuple(dimension, n, s, x) == (n, s) + tuple(rest)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
def test_witness_word_length_is_entries_plus_raises(rest):
    # the length the equivalence report compares with the solver bound
    x = encode.argument_word(rest)
    assert len(x) == sum(rest) + len(rest)
    assert x.count(2) == len(rest)


# ---------------------------------------------------------------------------
# Matrix-level solvers
# ---------------------------------------------------------------------------


def test_one_unknown_empty_witness_on_two_variables(toy_encoder):
    # with two argument slots the argument chain is already complete: the
    # only possible witness is the empty word, valid exactly when p = q
    result = solve_one_unknown(solve.point(toy_encoder, 2, 2, 4))
    assert result.found and result.witness == ()

    result = solve_one_unknown(solve.point(toy_encoder, 2, 3, 4))
    assert result.outcome == "exhausted" and result.witness is None


def test_one_unknown_squares_frozen(squares_encoder):
    result = solve_one_unknown(solve.point(squares_encoder, 1, 4, 6))
    assert result.found and result.witness == (1, 1, 2)

    result = solve_one_unknown(solve.point(squares_encoder, 1, 3, 8))
    assert result.outcome == "exhausted"


def test_one_unknown_shortlex_returns_least(trivial_encoder):
    # p = q = x3: every argument works, so every word (1,)*j + (2,) is a
    # solution; shortlex must return j = 1
    result = solve_one_unknown(solve.point(trivial_encoder, 1, 1, 7))
    assert result.found and result.witness == (1, 2)


def test_zero_side_exhausts_immediately(toy_encoder):
    dim = len(toy_encoder.alphabet.letters)
    z = matsem.matrix(dim, {})
    m1, m2 = encode.matrices(toy_encoder)
    result = solve_one_unknown(solve.Point(toy_encoder, 1, 1, 3, z, z, m1, m2))
    assert result.outcome == "exhausted"  # 0 = 0 is annihilating, never a witness


def test_two_unknowns_matches_one_unknown(squares_encoder):
    result = solve_two_unknowns(solve.point(squares_encoder, 1, 4, 6))
    assert result.found and result.pair == ((1, 1, 2), (1, 1, 2))


def test_two_unknowns_exhausts(squares_encoder):
    result = solve_two_unknowns(solve.point(squares_encoder, 1, 3, 6))
    assert result.outcome == "exhausted"


def test_negative_bound_rejected(toy_encoder):
    with pytest.raises(ValueError):
        solve_one_unknown(solve.point(toy_encoder, 1, 1, -1))
    with pytest.raises(ValueError):
        solve_two_unknowns(solve.point(toy_encoder, 1, 1, -1))


# ---------------------------------------------------------------------------
# Morphism-level solvers
# ---------------------------------------------------------------------------


def test_morphism_level_agrees_with_matrix_level(squares_encoder):
    result = solve_one_unknown_words(solve.point(squares_encoder, 1, 4, 6))
    assert result.found and result.witness == (1, 1, 2)
    assert result.level == "morphism"
    assert result.method.startswith("parikh-bridge")

    result = solve_one_unknown_words(solve.point(squares_encoder, 1, 3, 6))
    assert result.outcome == "exhausted"


def test_morphism_level_word_confirmation_on_small_instance(toy_encoder):
    # toy words are tiny, so the bridge verdict is additionally confirmed by
    # materializing the control images
    result = solve_one_unknown_words(solve.point(toy_encoder, 2, 2, 3))
    assert result.found and result.witness == ()
    assert result.method == "parikh-bridge+word"


def test_morphism_two_unknowns(squares_encoder):
    result = solve_two_unknowns_words(solve.point(squares_encoder, 1, 4, 6))
    assert result.found and result.pair == ((1, 1, 2), (1, 1, 2))


def test_morphism_level_trivial_and_empty(trivial_encoder, empty_encoder):
    found = solve_one_unknown_words(solve.point(trivial_encoder, 1, 3, 6))
    assert found.found and found.witness == (1, 2)
    missing = solve_one_unknown_words(solve.point(empty_encoder, 1, 3, 6))
    assert missing.outcome == "exhausted"


def test_morphism_solvers_raise_when_supports_escape_the_halves(squares_encoder, monkeypatch):
    # equal products are always a witness; a failed support check means the
    # construction is broken, so it raises rather than deciding another way
    monkeypatch.setattr(solve, "_halves_containment", lambda *_: False)
    pt = solve.point(squares_encoder, 1, 4, 6)
    for search in (solve_one_unknown_words, solve_two_unknowns_words):
        with pytest.raises(AssertionError, match="supports escape the tagged halves"):
            search(pt)
    # the check runs only on equal products, so an exhausted search never meets it
    pt = solve.point(squares_encoder, 1, 3, 4)
    for search in (solve_one_unknown_words, solve_two_unknowns_words):
        result = search(pt)
        assert (result.outcome, result.method) == ("exhausted", "parikh-bridge")


def test_word_confirmation_cap_boundary(trivial_encoder):
    # at (1, 3) the two control trajectories each need a cap of 41,175 runs:
    # the bridge verdict stands either way, and only a cap they fit adds the
    # word-level confirmation
    capped = solve_one_unknown_words(solve.point(trivial_encoder, 1, 3, 6), cap=41_174)
    fits = solve_one_unknown_words(solve.point(trivial_encoder, 1, 3, 6), cap=41_175)
    full = solve_one_unknown_words(solve.point(trivial_encoder, 1, 3, 6))
    assert capped.method == "parikh-bridge"
    assert fits.method == full.method == "parikh-bridge+word"
    assert capped.witness == fits.witness == full.witness == (1, 2)
    first, second = encode.matrices(trivial_encoder), encode.matrices(trivial_encoder)
    assert first[0] is second[0] and first[1] is second[1]


@pytest.mark.parametrize("fixture, s, witness, method", [
    ("squares_encoder", 9, (1, 1, 1, 2), "parikh-bridge"),
    ("squares_encoder", 4, (1, 1, 2), "parikh-bridge+word"),
    ("trivial_encoder", 3, (1, 2), "parikh-bridge+word"),
])
def test_word_confirmation_builds_no_stage_word(fixture, s, witness, method, request, monkeypatch):
    # squares at (1, 9) exceeds the default cap, and squares at (1, 4) and
    # trivial at (1, 3) fit it; letter counts decide all three, so no stage
    # is applied one by one
    stage_applies, inside = [], []
    plain_apply, plain_apply_generator_word = morph.apply, solve.apply_generator_word

    def counting_apply(m, w, cap=None):
        if inside:
            stage_applies.append(len(w.runs))
        return plain_apply(m, w, cap)

    def marking(*args, **kwargs):
        inside.append(1)
        try:
            return plain_apply_generator_word(*args, **kwargs)
        finally:
            inside.pop()

    for module in (morph, encode):
        monkeypatch.setattr(module, "apply", counting_apply)
    monkeypatch.setattr(solve, "apply_generator_word", marking)
    result = solve_one_unknown_words(solve.point(request.getfixturevalue(fixture), 1, s, 12))
    assert (result.witness, result.method) == (witness, method)
    assert stage_applies == []


# ---------------------------------------------------------------------------
# The shared search
# ---------------------------------------------------------------------------


def _fold(start, m1, m2, x):
    """start·X(x) as nonzero rows, folded row by row with vec_mat."""
    rows = {}
    for i, row in start.rows.items():
        for symbol in x:
            row = matsem.vec_mat(row, m1 if symbol == 1 else m2)
        if row:
            rows[i] = row
    return rows


def _brute_force(pt, two):
    """The first word (or pair) in the solver's order with equal, nonzero
    products, from every word up to the bound; None when there is none."""
    words = [w for k in range(pt.max_len + 1) for w in iter_product((1, 2), repeat=k)]
    left = {w: _fold(pt.a, pt.m1, pt.m2, w) for w in words}
    right = {w: _fold(pt.b, pt.m1, pt.m2, w) for w in words}
    if two:
        pairs = sorted(((x, y) for x in words for y in words),
                       key=lambda xy: (len(xy[0]) + len(xy[1]), xy))
        return next(((x, y) for x, y in pairs if left[x] and left[x] == right[y]), None)
    return next((x for x in words if left[x] and left[x] == right[x]), None)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    which=st.sampled_from(["squares", "toy", "zero sides"]),
    n=st.integers(min_value=1, max_value=2),
    s=st.integers(min_value=1, max_value=5),
    max_len=st.integers(min_value=0, max_value=6),
)
def test_solvers_match_a_brute_force_search(encoder_named, which, n, s, max_len):
    enc = encoder_named("squares_encoder" if which == "squares" else "toy_encoder")
    pt = solve.point(enc, n, s, max_len)
    if which == "zero sides":  # as in test_zero_side_exhausts_immediately
        z = matsem.matrix(pt.a.dimension, {})
        pt = solve.Point(enc, n, s, max_len, z, z, pt.m1, pt.m2)
    witness = _brute_force(pt, two=False)
    pair = _brute_force(pt, two=True)
    for result in (solve_one_unknown(pt), solve_one_unknown_words(pt)):
        assert (result.outcome, result.witness) == (
            ("exhausted", None) if witness is None else ("found", witness))
    for result in (solve_two_unknowns(pt), solve_two_unknowns_words(pt)):
        assert (result.outcome, result.pair) == (
            ("exhausted", None) if pair is None else ("found", pair))


def test_candidates_come_in_the_solvers_order(toy_encoder):
    # identity sides and steps keep every product nonzero, so every word and
    # every pair up to the bound is a candidate
    one = matsem.identity(2)
    pt = solve.Point(toy_encoder, 1, 1, 3, one, one, one, one)
    words = [w for k in range(4) for w in iter_product((1, 2), repeat=k)]
    assert [(x, y) for x, y, _, _ in pt.candidates(False)] == [(w, w) for w in words]
    assert [(x, y) for x, y, _, _ in pt.candidates(True)] == sorted(
        ((x, y) for x in words for y in words), key=lambda xy: (len(xy[0]) + len(xy[1]), xy))


@pytest.mark.parametrize("n, s", [(1, 3), (1, 4), (2, 2)])
def test_four_solvers_on_one_point_walk_each_tree_once(squares_encoder, monkeypatch, n, s):
    calls = []
    real = matsem.mat_mul
    monkeypatch.setattr(matsem, "mat_mul", lambda *args: calls.append(1) or real(*args))
    shared = solve.point(squares_encoder, n, s, 6)
    calls.clear()
    for solver in (solve_one_unknown, solve_two_unknowns,
                   solve_one_unknown_words, solve_two_unknowns_words):
        solver(shared)
    four = len(calls)
    fresh = solve.point(squares_encoder, n, s, 6)
    calls.clear()
    solve_two_unknowns(fresh)
    assert four == len(calls) > 0


def test_side_products_share_their_control_rows(squares_encoder, monkeypatch):
    # the prefixes g2² and g2³ route c1, c2 and c3 (and on the q side c0) to
    # c3, so the side matrices share those rows and every product grown from
    # them keeps sharing: mat_mul multiplies each distinct row once
    pt = solve.point(squares_encoder, 1, 4, 12)
    c0, c1, c2, c3 = squares_encoder.control_indices
    a, b = pt.a.rows, pt.b.rows
    assert a[c1] is a[c2] is a[c3] is not a[c0]
    assert b[c0] is b[c1] is b[c2] is b[c3]
    for solver in (solve_one_unknown, solve_two_unknowns,
                   solve_one_unknown_words, solve_two_unknowns_words):
        solver(pt)
    for side, most in ((0, 2), (1, 1)):
        nodes = [acc for level in pt._trees[side] for _, acc in level]
        assert len(nodes) > 1
        assert all(len({id(row) for row in acc.rows.values()}) <= most for acc in nodes)
    calls = []
    real = matsem.mat_mul
    monkeypatch.setattr(matsem, "mat_mul", lambda *args: calls.append(1) or real(*args))
    assert matsem.mat_pow(pt.m2, 2) == real(pt.m2, pt.m2)
    assert len(calls) == 1


def test_refold_check_folds_every_row_on_its_own(squares_encoder):
    # pt.a's c0 row and its shared c1..c3 row fold to different rows: the
    # check accepts the product and rejects it with c1's row put in c0's place
    pt = solve.point(squares_encoder, 1, 4, 12)
    c0, c1 = squares_encoder.control_indices[:2]
    x = (1, 2)
    product = matsem.mat_mul(matsem.mat_mul(pt.a, pt.m1), pt.m2)
    assert product.rows[c0] != product.rows[c1]
    solve._check_refold(pt.a, pt.m1, pt.m2, x, product)
    swapped = matsem._from_rows(product.dimension, {**product.rows, c0: product.rows[c1]})
    with pytest.raises(AssertionError):
        solve._check_refold(pt.a, pt.m1, pt.m2, x, swapped)


def test_refold_check_survives_optimize_flag(run_python):
    # the witness re-verification is a guarantee, so `python -O` must keep it
    code = (
        "from diomorph import matsem, solve\n"
        "m = matsem.identity(2)\n"
        "solve._check_refold(m, m, m, (1,), m)\n"
        "try:\n"
        "    solve._check_refold(m, m, m, (1,), matsem.matrix(2, {}))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    assert run_python("-O", "-c", code).returncode == 0


# ---------------------------------------------------------------------------
# Equivalence report
# ---------------------------------------------------------------------------


def test_equivalence_report_squares_small(squares_encoder):
    p, q = squares_encoder.p, squares_encoder.q
    report = equivalence_report(
        p, q, [(1, s) for s in (1, 2, 3, 4)], 5, 8, encoder=squares_encoder
    )
    assert report.all_agree
    found = {row.s: row.oracle_found for row in report.rows}
    assert found == {1: True, 2: False, 3: False, 4: True}
    # every found row carries matching witnesses on all four solver runs
    for row in report.rows:
        if row.oracle_found:
            assert row.matrix_one.witness == row.morphism_one.witness
            assert row.matrix_two.pair == row.morphism_two.pair


# sha256 of the machine rendering at points (1,1), (1,2), (1,4) with oracle
# bound 5 and solver bound 6, recorded before the report shared one equation
# per point between its solvers; the output must stay byte-identical.
# Squares and trivial were recorded again when the coefficients moved to the
# last hand-off: at (1, 4) their witnesses now fit the expansion cap, and the
# one-unknown morphism method reads "parikh-bridge+word"
GOLDEN_REPORT_SHA256 = {
    "toy_encoder": "7be3fc718a96b043fac778dc46d573923f02ef8a23106d20f08df89422272741",
    "squares_encoder": "5511727e7d37001e2c7aace7baa0ef03520381f0f0e51a0bb708edc9a91b2674",
    "trivial_encoder": "df37905ecb674302dc22f3e4d1320fe20ebaa8ee5d4436827707884615385c10",
    "empty_encoder": "3cf1f3a797b6a3ca34229e750d0ae35afcdbc52954600bdcfcc9d916ef90583e",
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN_REPORT_SHA256))
def test_equivalence_report_machine_output_is_pinned(fixture, request):
    enc = request.getfixturevalue(fixture)
    report = equivalence_report(
        enc.p, enc.q, [(1, 1), (1, 2), (1, 4)], 5, 6, encoder=enc
    )
    digest = hashlib.sha256(report.render("machine").encode()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[fixture]


def test_equivalence_report_builds_each_point_once(toy_encoder, monkeypatch):
    built = []
    real = matsem.p_side_matrix
    monkeypatch.setattr(
        matsem, "p_side_matrix", lambda *args: built.append(args[2:]) or real(*args)
    )
    p, q = toy_encoder.p, toy_encoder.q
    equivalence_report(p, q, [(1, 1), (2, 2)], 3, 3, encoder=toy_encoder)
    assert built == [(1, 1), (2, 2)]


def test_equivalence_report_machine_rendering_is_deterministic(squares_encoder):
    p, q = squares_encoder.p, squares_encoder.q
    args = (p, q, [(1, 4)], 5, 6)
    first = equivalence_report(*args, encoder=squares_encoder).render("machine")
    second = equivalence_report(*args, encoder=squares_encoder).render("machine")
    assert first == second


def test_equivalence_report_flags_small_solver_bound(squares_encoder):
    # (1, 4) needs witness word (1,1,2) of length 3: bound 2 must miss it
    # and say so
    p, q = squares_encoder.p, squares_encoder.q
    report = equivalence_report(p, q, [(1, 4)], 5, 2, encoder=squares_encoder)
    row = report.rows[0]
    assert not row.agree
    assert row.caveats == ("oracle witness needs a word of length 3 > solver bound 2",)


def test_equivalence_report_flags_small_oracle_box():
    # p = x2, q = x3 is solvable with j = s, so at s = 3 the solver finds a
    # witness whose tuple lies outside an oracle box bounded by 2
    p = poly.variable(2, 3)
    q = poly.variable(3, 3)
    report = equivalence_report(p, q, [(1, 3)], 2, 8)
    row = report.rows[0]
    assert not row.agree
    assert row.matrix_one.found and row.oracle_witness is None
    assert any("oracle box" in c for c in row.caveats)


def test_equivalence_report_rejects_foreign_encoder(toy_encoder):
    p = poly.variable(2, 3)
    q = poly.variable(3, 3)
    with pytest.raises(ValueError):
        equivalence_report(p, q, [(1, 1)], 2, 2, encoder=toy_encoder)


def test_human_rendering_mentions_every_point(squares_encoder):
    p, q = squares_encoder.p, squares_encoder.q
    report = equivalence_report(p, q, [(1, 1), (1, 2)], 3, 4, encoder=squares_encoder)
    text = report.render("human")
    assert "(1,1)" in text and "(1,2)" in text
    assert "overall" in text
