"""Tests for the bounded solvers and the arithmetic oracle."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diomorph import encode, matsem, poly, solve
from diomorph.solve import (
    diophantine_oracle,
    equivalence_report,
    extract_argument_tuple,
    solve_one_unknown,
    solve_one_unknown_words,
    solve_two_unknowns,
    solve_two_unknowns_words,
    witness_from_tuple,
)


def _sides(enc, n, s):
    m1, m2 = encode.matrices(enc)
    a = matsem.p_side_matrix(m1, m2, n, s)
    b = matsem.q_side_matrix(m1, m2, n, s)
    return a, b, m1, m2


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


def test_witness_from_tuple():
    assert witness_from_tuple(()) == ()
    assert witness_from_tuple((2,)) == (1, 1, 2)
    assert witness_from_tuple((1, 2)) == (1, 2, 1, 1, 2)
    with pytest.raises(ValueError):
        witness_from_tuple((0,))


def test_extract_argument_tuple_round_trip():
    assert extract_argument_tuple(3, 1, 4, (1, 1, 2)) == (1, 4, 2)
    assert extract_argument_tuple(2, 5, 7, ()) == (5, 7)
    assert extract_argument_tuple(4, 2, 1, (1, 2, 1, 1, 1, 2)) == (2, 1, 1, 3)


def test_extract_argument_tuple_rejects_bad_shapes():
    with pytest.raises(ValueError):
        extract_argument_tuple(3, 1, 4, (2,))  # empty block before the raise
    with pytest.raises(ValueError):
        extract_argument_tuple(3, 1, 4, (1, 1, 2, 1))  # trailing ones
    with pytest.raises(ValueError):
        extract_argument_tuple(3, 1, 4, ())  # too few blocks
    with pytest.raises(ValueError):
        extract_argument_tuple(2, 1, 4, (1, 2))  # too many blocks
    with pytest.raises(ValueError):
        extract_argument_tuple(3, 1, 4, (1, 3, 2))  # unknown symbol


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    s=st.integers(min_value=1, max_value=5),
    rest=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=3),
)
def test_extract_inverts_witness_words(n, s, rest):
    dimension = 2 + len(rest)
    x = witness_from_tuple(rest)
    assert extract_argument_tuple(dimension, n, s, x) == (n, s) + tuple(rest)


# ---------------------------------------------------------------------------
# Matrix-level solvers
# ---------------------------------------------------------------------------


def test_one_unknown_empty_witness_on_two_variables(toy_encoder):
    # with two argument slots the argument chain is already complete: the
    # only possible witness is the empty word, valid exactly when p = q
    a, b, m1, m2 = _sides(toy_encoder, 2, 2)
    result = solve_one_unknown(a, b, m1, m2, 4)
    assert result.found and result.witness == ()

    a, b, m1, m2 = _sides(toy_encoder, 2, 3)
    result = solve_one_unknown(a, b, m1, m2, 4)
    assert result.outcome == "exhausted" and result.witness is None


def test_one_unknown_squares_frozen(squares_encoder):
    a, b, m1, m2 = _sides(squares_encoder, 1, 4)
    result = solve_one_unknown(a, b, m1, m2, 6)
    assert result.found and result.witness == (1, 1, 2)

    a, b, m1, m2 = _sides(squares_encoder, 1, 3)
    result = solve_one_unknown(a, b, m1, m2, 8)
    assert result.outcome == "exhausted"


def test_one_unknown_shortlex_returns_least(trivial_encoder):
    # p = q = x3: every argument works, so every word (1,)*j + (2,) is a
    # solution; shortlex must return j = 1
    a, b, m1, m2 = _sides(trivial_encoder, 1, 1)
    result = solve_one_unknown(a, b, m1, m2, 7)
    assert result.found and result.witness == (1, 2)


def test_zero_side_exhausts_immediately(toy_encoder):
    dim = len(toy_encoder.alphabet.letters)
    z = matsem.zeros(dim)
    m1, m2 = encode.matrices(toy_encoder)
    result = solve_one_unknown(z, z, m1, m2, 3)
    assert result.outcome == "exhausted"  # 0 = 0 is annihilating, never a witness


def test_two_unknowns_matches_one_unknown(squares_encoder):
    a, b, m1, m2 = _sides(squares_encoder, 1, 4)
    result = solve_two_unknowns(a, b, m1, m2, 6)
    assert result.found and result.pair == ((1, 1, 2), (1, 1, 2))


def test_two_unknowns_exhausts(squares_encoder):
    a, b, m1, m2 = _sides(squares_encoder, 1, 3)
    result = solve_two_unknowns(a, b, m1, m2, 6)
    assert result.outcome == "exhausted"


def test_negative_bound_rejected(toy_encoder):
    a, b, m1, m2 = _sides(toy_encoder, 1, 1)
    with pytest.raises(ValueError):
        solve_one_unknown(a, b, m1, m2, -1)
    with pytest.raises(ValueError):
        solve_two_unknowns(a, b, m1, m2, -1)


# ---------------------------------------------------------------------------
# Morphism-level solvers
# ---------------------------------------------------------------------------


def test_morphism_level_agrees_with_matrix_level(squares_encoder):
    result = solve_one_unknown_words(squares_encoder, 1, 4, 6)
    assert result.found and result.witness == (1, 1, 2)
    assert result.level == "morphism"
    assert result.method.startswith("parikh-bridge")

    result = solve_one_unknown_words(squares_encoder, 1, 3, 6)
    assert result.outcome == "exhausted"


def test_morphism_level_word_confirmation_on_small_instance(toy_encoder):
    # toy words are tiny, so the bridge verdict is additionally confirmed by
    # materializing the control images
    result = solve_one_unknown_words(toy_encoder, 2, 2, 3)
    assert result.found and result.witness == ()
    assert result.method == "parikh-bridge+word"


def test_morphism_two_unknowns(squares_encoder):
    result = solve_two_unknowns_words(squares_encoder, 1, 4, 6)
    assert result.found and result.pair == ((1, 1, 2), (1, 1, 2))


def test_morphism_level_trivial_and_empty(trivial_encoder, empty_encoder):
    found = solve_one_unknown_words(trivial_encoder, 1, 3, 6)
    assert found.found and found.witness == (1, 2)
    missing = solve_one_unknown_words(empty_encoder, 1, 3, 6)
    assert missing.outcome == "exhausted"


def test_word_confirmation_cap_boundary(trivial_encoder):
    # at (1, 3) the two control trajectories need more than 300k runs but fit
    # the default cap: the bridge verdict stands either way, and only the
    # default cap adds the word-level confirmation
    capped = solve_one_unknown_words(trivial_encoder, 1, 3, 6, cap=300_000)
    full = solve_one_unknown_words(trivial_encoder, 1, 3, 6)
    assert capped.method == "parikh-bridge"
    assert full.method == "parikh-bridge+word"
    assert capped.witness == full.witness == (1, 2)
    first, second = encode.matrices(trivial_encoder), encode.matrices(trivial_encoder)
    assert first[0] is second[0] and first[1] is second[1]


def test_refold_check_survives_optimize_flag():
    # the witness re-verification is a guarantee, so `python -O` must keep it
    code = (
        "from diomorph import matsem, solve\n"
        "m = matsem.identity(2)\n"
        "solve._check_refold(m, m, m, (1,), m)\n"
        "try:\n"
        "    solve._check_refold(m, m, m, (1,), matsem.zeros(2))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(solve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


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
# per point between its solvers; the output must stay byte-identical
GOLDEN_REPORT_SHA256 = {
    "toy_encoder": "7be3fc718a96b043fac778dc46d573923f02ef8a23106d20f08df89422272741",
    "squares_encoder": "1fc706b51e199b90bd880f98a6d4d63be600bea6ef43a4c1a4ee62617bb8eaeb",
    "trivial_encoder": "1aed676ad5b7c8aae3e3436f286342e204bd9c6a33591d31ff4a224d606b4535",
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
    assert any("solver bound" in c for c in row.caveats)


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
