"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test prints ``[acceptance] <name>: PASS/FAIL (<elapsed>)`` and
asserts its stated time bound where one exists.
"""

import hashlib
import itertools
import time
from contextlib import contextmanager

from diomorph import encode, lang, morph, mtriple, poly, solve


@contextmanager
def criterion(label: str, limit: float | None = None):
    status = "FAIL"
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"{label}: time bound exceeded ({elapsed:.1f}s >= {limit:.0f}s)"
            )
        status = "PASS"
    finally:
        print(f"\n[acceptance] {label}: {status} ({time.monotonic() - start:.1f}s)")


def _polynomial_suite() -> list[poly.Polynomial]:
    """All monomials with up to 3 variables and total degree up to 3, plus a
    few mixed sums and small constants."""
    suite = []
    for t in (1, 2, 3):
        for exps in itertools.product(range(4), repeat=t):
            if sum(exps) <= 3:
                suite.append(poly.polynomial(t, {tuple(exps): 1}))
    x1, x2 = poly.variable(1, 2), poly.variable(2, 2)
    suite.append(poly.add(poly.mul(x1, x1), poly.scale(x2, 2)))  # x1^2 + 2*x2
    y1, y2, y3 = (poly.variable(i, 3) for i in (1, 2, 3))
    suite.append(poly.add(poly.mul(y1, y2), y3))  # x1*x2 + x3
    for c in (1, 2, 3):
        suite.append(poly.constant(c, 1))
    return suite


def test_01_compiled_maps_match_polynomial_evaluation():
    with criterion("compiled maps match polynomial evaluation", limit=60.0):
        checked = 0
        for p in _polynomial_suite():
            computable = mtriple.compile_polynomial(p)
            for point in itertools.product((1, 2, 3, 4), repeat=p.arity):
                got = mtriple.compute_word_level(computable, point)
                assert got == poly.evaluate(p, point), (str(p), point)
                checked += 1
        assert checked == 1548


def test_02_power_gadget_letter_counts():
    with criterion("power gadget letter counts"):
        for k in (1, 2, 3):
            alphabet, h = mtriple.kronecker_power_morphism(k)
            last = alphabet.letters[-1]
            current = lang.word(alphabet, [alphabet.letters[0]])
            for n in range(1, 6):
                current = morph.apply(h, current)
                assert lang.count_of(current, last) == n**k, (k, n)


def test_03_validation_condition_profiles(squares_encoder, toy_encoder):
    with criterion("validation condition profiles"):
        # every compiled system satisfies the full set of conditions
        for p in _polynomial_suite():
            report = mtriple.validate(mtriple.compile_polynomial(p).triple)
            assert report.passed, (str(p), report.failed_names)
        # the merged encoder violates square-erasure on exactly its four
        # control letters (their double-raise chain is what drives the
        # equation); the level-raising check co-fails on the same letters
        # and nowhere else
        for enc in (squares_encoder, toy_encoder):
            report = mtriple.validate(enc.triple())
            assert set(report.failed_names) <= {"level_raising", "square_erasing"}
            assert "square_erasing" in report.failed_names
            controls = set(encode.CONTROL_LETTERS)
            assert set(report.condition("square_erasing").violations) == controls
            assert set(report.condition("level_raising").violations) <= controls


def test_04_matrix_functor_tracks_composition(squares_encoder):
    with criterion("matrix functor tracks composition"):
        report = encode.functoriality_suite(squares_encoder, max_len=6)
        assert report.passed, report.failures()
        assert len(report.checks) == 126  # every generator word of length 1..6
        word_exact = sum(1 for c in report.checks if c.method == "word")
        assert word_exact >= 116  # the rest are verified row-wise under the cap
        assert report.notes == ("10 of 126 words exceeded the expansion cap and were "
                                "verified on sampled rows only",)
        # recorded before composites shared one-letter images
        digest = hashlib.sha256(report.render("machine").encode()).hexdigest()
        assert digest == "3b994e0899e2ee7ce738bdb184f6dc95476dee5bce31513f6e6f81e932f23f4b"


def test_05_staged_evaluation_exhaustive(squares_encoder):
    with criterion("staged evaluation suite", limit=300.0):
        report = encode.staged_evaluation_suite(squares_encoder, bound=2)
        assert report.passed, report.failures()


def test_06_annihilation_exhaustive(squares_encoder):
    with criterion("annihilation of composite products"):
        report = encode.annihilation_suite(squares_encoder, max_len=3)
        assert report.passed, report.failures()
        pair_checks = [c for c in report.checks if c.name.startswith("pair")]
        assert len(pair_checks) == 225  # all 15 x 15 suffix pairs


def test_07_squares_equivalence_end_to_end(squares_encoder):
    with criterion("squares instance equivalence", limit=600.0):
        p, q = squares_encoder.p, squares_encoder.q
        points = [(1, s) for s in range(1, 10)]
        report = solve.equivalence_report(
            p, q, points, 5, 12, encoder=squares_encoder
        )
        assert report.all_agree
        solvable = {row.s for row in report.rows if row.oracle_found}
        assert solvable == {1, 4, 9}
        for row in report.rows:
            one, two = row.matrix_one, row.matrix_two
            assert one.found == two.found == row.oracle_found
            if one.found:
                # the recovered tuple re-satisfies the equation
                full = solve.extract_argument_tuple(3, row.n, row.s, one.witness)
                assert poly.evaluate(p, full) == poly.evaluate(q, full)
                assert full[:2] == (row.n, row.s)
                assert two.pair is not None


def test_08_trivial_and_empty_instances(trivial_encoder, empty_encoder):
    with criterion("trivial and empty instances"):
        points = [(1, s) for s in range(1, 10)]
        # p = x3 + x2 vs q = x3 never balances for positive s
        empty_report = solve.equivalence_report(
            empty_encoder.p, empty_encoder.q, points, 5, 12, encoder=empty_encoder
        )
        assert empty_report.all_agree
        for row in empty_report.rows:
            assert row.oracle_witness is None
            for result in (row.matrix_one, row.matrix_two,
                           row.morphism_one, row.morphism_two):
                assert not result.found
        # p = q = x3 balances for every argument; shortlex finds the
        # single-step witness everywhere
        trivial_report = solve.equivalence_report(
            trivial_encoder.p, trivial_encoder.q, points, 5, 12,
            encoder=trivial_encoder,
        )
        assert trivial_report.all_agree
        for row in trivial_report.rows:
            assert row.oracle_witness == (1,)
            assert row.matrix_one.witness == (1, 2)
            assert row.morphism_one.witness == (1, 2)
            assert row.matrix_two.found and row.morphism_two.found


def test_09_tupling_injectivity():
    with criterion("tupling polynomial injectivity"):
        for k, bound in ((2, 25), (3, 12)):
            c = poly.injective_tupling(k)
            seen: dict[int, tuple[int, ...]] = {}
            for point in itertools.product(range(1, bound + 1), repeat=k):
                value = poly.evaluate(c, point)
                assert value not in seen, (point, seen.get(value))
                seen[value] = point
            assert len(seen) == bound**k


def test_10_machine_reports_deterministic(
    squares_encoder, trivial_encoder, empty_encoder
):
    with criterion("machine reports are byte-deterministic"):
        # staged + annihilation suites: fresh encoder object on the second
        # pass so nothing is carried over
        fresh = encode.build_encoder(squares_encoder.p, squares_encoder.q)
        first = encode.staged_evaluation_suite(squares_encoder, bound=1).render("machine")
        second = encode.staged_evaluation_suite(fresh, bound=1).render("machine")
        assert first == second
        first = encode.annihilation_suite(squares_encoder, max_len=2).render("machine")
        second = encode.annihilation_suite(fresh, max_len=2).render("machine")
        assert first == second
        # equivalence reports across all three instances
        for enc in (squares_encoder, trivial_encoder, empty_encoder):
            points = [(1, s) for s in (1, 2, 3, 4)]
            args = (enc.p, enc.q, points, 5, 6)
            renders = {
                solve.equivalence_report(*args, encoder=enc).render("machine")
                for _ in range(2)
            }
            rebuilt = encode.build_encoder(enc.p, enc.q)
            renders.add(solve.equivalence_report(*args, encoder=rebuilt).render("machine"))
            assert len(renders) == 1
