"""End-to-end tests for the command-line driver."""

import argparse
import contextlib
import io
import json
import os
import resource
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diomorph import cli, encode, interchange, matsem, poly, solve
from diomorph.cli import main

from dag_layout import dag_nodes


@pytest.fixture()
def toy_files(tmp_path):
    """Polynomial documents for the two-variable toy pair p=x2, q=x1."""
    p = poly.variable(2, 2)
    q = poly.variable(1, 2)
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    p_path.write_text(interchange.dumps(interchange.polynomial_to_doc(p)))
    q_path.write_text(interchange.dumps(interchange.polynomial_to_doc(q)))
    return str(p_path), str(q_path)


@pytest.fixture()
def toy_encoder_file(tmp_path, toy_encoder):
    path = tmp_path / "enc.json"
    path.write_text(interchange.dumps(interchange.encoder_to_doc(toy_encoder)))
    return str(path)


@pytest.fixture()
def squares_files(tmp_path, squares_encoder):
    p_path = tmp_path / "sq_p.json"
    q_path = tmp_path / "sq_q.json"
    e_path = tmp_path / "sq_enc.json"
    p_path.write_text(interchange.dumps(interchange.polynomial_to_doc(squares_encoder.p)))
    q_path.write_text(interchange.dumps(interchange.polynomial_to_doc(squares_encoder.q)))
    e_path.write_text(interchange.dumps(interchange.encoder_to_doc(squares_encoder)))
    return str(p_path), str(q_path), str(e_path)


# ------------------------------------------------------------------ compile


def test_compile_round_trip(toy_files, tmp_path, toy_encoder):
    p_path, q_path = toy_files
    out = tmp_path / "enc.json"
    code = main(["compile", "--p", p_path, "--q", q_path, "-t", "2", "-o", str(out)])
    assert code == cli.EXIT_OK
    built = interchange.encoder_from_doc(json.loads(out.read_text()))
    assert built == toy_encoder


def test_compile_is_deterministic(toy_files, tmp_path):
    p_path, q_path = toy_files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compile", "--p", p_path, "--q", q_path, "-o", str(a)]) == 0
    assert main(["compile", "--p", p_path, "--q", q_path, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compile_accepts_inline_json(tmp_path):
    p = interchange.dumps(interchange.polynomial_to_doc(poly.variable(2, 2)))
    q = interchange.dumps(interchange.polynomial_to_doc(poly.variable(1, 2)))
    out = tmp_path / "enc.json"
    assert main(["compile", "--p", p, "--q", q, "-o", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["format"] == "diomorph-encoder"


def test_compile_arity_flag_mismatch_is_bad_input(toy_files, capsys):
    p_path, q_path = toy_files
    assert main(["compile", "--p", p_path, "--q", q_path, "-t", "3"]) == cli.EXIT_BAD_INPUT
    assert "arity" in capsys.readouterr().err


def test_compile_missing_file_is_bad_input(tmp_path, capsys):
    ghost = str(tmp_path / "nope.json")
    assert main(["compile", "--p", ghost, "--q", ghost]) == cli.EXIT_BAD_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_compile_malformed_json_is_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compile", "--p", str(bad), "--q", str(bad)]) == cli.EXIT_BAD_INPUT
    assert "malformed" in capsys.readouterr().err


def test_compile_budget_exceeded_exit_code(toy_files, capsys):
    p_path, q_path = toy_files
    code = main(["compile", "--p", p_path, "--q", q_path, "--alphabet-budget", "3"])
    assert code == cli.EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_budget_env_variable_is_honoured(toy_files, monkeypatch, capsys):
    p_path, q_path = toy_files
    monkeypatch.setenv("DIOMORPH_ALPHABET_BUDGET", "3")
    assert main(["compile", "--p", p_path, "--q", q_path]) == cli.EXIT_BUDGET
    capsys.readouterr()
    # explicit flag wins over the environment
    monkeypatch.setenv("DIOMORPH_ALPHABET_BUDGET", "100000")
    code = main(["compile", "--p", p_path, "--q", q_path, "--alphabet-budget", "3"])
    assert code == cli.EXIT_BUDGET
    capsys.readouterr()


def test_compile_budget_boundary(toy_files, tmp_path, capsys):
    # the toy encoder has exactly 88 letters
    p_path, q_path = toy_files
    base = ["compile", "--p", p_path, "--q", q_path, "-o", str(tmp_path / "enc.json")]
    assert main(base + ["--alphabet-budget", "88"]) == cli.EXIT_OK
    assert main(base + ["--alphabet-budget", "87"]) == cli.EXIT_BUDGET
    assert "needs 88 > budget 87" in capsys.readouterr().err


def test_compile_refuses_a_huge_exponent_without_computing_its_gadget(toy_files, capsys):
    # a level of a + 1 letters alone is over the budget, and its exact count
    # is named; no letter of it is built
    _, q_path = toy_files
    p = {"arity": 2, "monomials": [{"coeff": "1", "exponents": [0, 10**30]}]}
    assert main(["compile", "--p", json.dumps(p), "--q", q_path, "-o", os.devnull]) == cli.EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: alphabet budget exceeded: needs {2 + (10**30 + 1) + 1} > budget 32768 "
                   f"(monomial with exponents (1, {10**30}))\n")


def _limit_address_space():
    # building the refused gadgets takes gigabytes: a child that starts
    # building them fails fast instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_compile_refuses_quadratic_gadget_runs_before_building_them(flags, run_python):
    # x2^1000 against x3, tupled on four slots, fits the letter budget, but its
    # gadgets' g1 images would hold (a + 1)(a + 2)/2 runs per block of
    # exponent a >= 1 (2 for a = 0), one block per node of a tupled
    # polynomial's minimal DAG: over eight million, refused before any is built
    p, q = poly.polynomial(3, {(0, 1000, 0): 1}), poly.variable(3, 3)
    tupling = poly.injective_tupling(4)
    runs = sum((a + 1) * (a + 2) // 2 if a else 2
               for side in (p, q) for level in range(1, 4)
               for a in dag_nodes(encode.tupled(side, tupling), level))
    assert runs == 8_037_492
    start = time.perf_counter()
    run = run_python(
        *flags, "-m", "diomorph.cli", "compile", "-t", "3", "-o", os.devnull,
        "--p", json.dumps(interchange.polynomial_to_doc(p)),
        "--q", json.dumps(interchange.polynomial_to_doc(q)),
        capture_output=True, text=True, timeout=5, preexec_fn=_limit_address_space,
    )
    assert time.perf_counter() - start < 1.0
    assert run.returncode == cli.EXIT_BUDGET
    assert run.stdout == ""
    assert run.stderr == (f"error: expansion cap exceeded: needs {runs} > cap 1000000 "
                          "(power gadget runs of the merged encoder alphabet)\n")


def _compile_and_report(p, q, t, points, oracle_bound, solver_bound, tmp_path, capsys):
    """Compile p against q at arity t into a file, then report on it at the
    points; returns the compile exit code, the report's exit code and its
    machine document."""
    p_doc, q_doc = (interchange.dumps(interchange.polynomial_to_doc(r)) for r in (p, q))
    enc_path = str(tmp_path / "enc.json")
    compiled = main(["compile", "--p", p_doc, "--q", q_doc, "-t", str(t), "-o", enc_path])
    args = ["report", "--p", p_doc, "--q", q_doc, "--encoder", enc_path,
            "--oracle-bound", str(oracle_bound), "--solver-bound", str(solver_bound),
            "--format", "machine"]
    for n, s in points:
        args += ["--point", f"{n},{s}"]
    capsys.readouterr()
    reported = main(args)
    out, err = capsys.readouterr()
    assert err == ""
    return compiled, reported, json.loads(out)


def test_compile_takes_a_huge_coefficient_as_one_hand_off(tmp_path, capsys):
    # the coefficient is the power of e that the term's last level hands
    # down, so 10^20 costs no runs; when it repeated the witness, compiling
    # exited 3 (needs 400000000000000000012 > cap 1000000)
    p, q = poly.polynomial(3, {(0, 1, 0): 10**20}), poly.variable(3, 3)
    compiled, reported, doc = _compile_and_report(p, q, 3, [(1, 1)], 3, 8, tmp_path, capsys)
    assert (compiled, reported) == (cli.EXIT_OK, cli.EXIT_OK)
    assert doc["all_agree"] is True
    (row,) = doc["rows"]
    assert row["oracle_witness"] is None and not row["matrix_one"]["witness"]


def test_four_variable_pair_compiles_and_reports(tmp_path, capsys):
    # x2·x4 against 3·x3 at t = 4: when each coefficient repeated its term's
    # witness, compiling exited 3 (needs 1032639 > cap 1000000)
    p = poly.mul(poly.variable(2, 4), poly.variable(4, 4))
    q = poly.mul(poly.constant(3, 4), poly.variable(3, 4))
    compiled, reported, doc = _compile_and_report(p, q, 4, [(1, 1), (1, 2)], 3, 10, tmp_path, capsys)
    assert (compiled, reported) == (cli.EXIT_OK, cli.EXIT_OK)
    assert doc["all_agree"] is True
    assert [row["oracle_witness"] for row in doc["rows"]] == [[1, 3], [2, 3]]
    for row in doc["rows"]:
        assert all(row[k]["outcome"] == "found" for k in
                   ("matrix_one", "matrix_two", "morphism_one", "morphism_two"))
        witnesses = [row["matrix_one"]["witness"], row["morphism_one"]["witness"],
                     *row["matrix_two"]["pair"], *row["morphism_two"]["pair"]]
        for witness in witnesses:
            full = solve.extract_argument_tuple(4, row["n"], row["s"], witness)
            assert full[:2] == (row["n"], row["s"])
            assert poly.evaluate(p, full) == poly.evaluate(q, full)


def test_bad_env_variable_is_bad_input(toy_files, monkeypatch, capsys):
    p_path, q_path = toy_files
    monkeypatch.setenv("DIOMORPH_ALPHABET_BUDGET", "many")
    assert main(["compile", "--p", p_path, "--q", q_path]) == cli.EXIT_BAD_INPUT
    assert "DIOMORPH_ALPHABET_BUDGET" in capsys.readouterr().err


# ----------------------------------------------------------------- matrices


def test_matrices_command(toy_encoder_file, tmp_path, toy_encoder, capsys):
    out = tmp_path / "mats.json"
    assert main(["matrices", "--encoder", toy_encoder_file, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    m1, m2 = encode.matrices(toy_encoder)
    assert interchange.matrix_from_doc(doc["g1"]) == m1
    assert interchange.matrix_from_doc(doc["g2"]) == m2
    assert doc["dimension"] == toy_encoder.dimension


def test_matrices_rejects_non_encoder_document(toy_files, capsys):
    p_path, _ = toy_files
    assert main(["matrices", "--encoder", p_path]) == cli.EXIT_BAD_INPUT
    assert "encoder" in capsys.readouterr().err


# ------------------------------------------------------------------- oracle


def test_oracle_found_and_missing(squares_files, capsys):
    p_path, q_path, _ = squares_files
    base = ["oracle", "--p", p_path, "--q", q_path, "-n", "1", "-B", "5"]
    assert main(base + ["-s", "4", "--format", "machine"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] == [2]
    assert main(base + ["-s", "3", "--format", "machine"]) == cli.EXIT_EXHAUSTED
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] is None


def test_oracle_human_output(squares_files, capsys):
    p_path, q_path, _ = squares_files
    base = ["oracle", "--p", p_path, "--q", q_path, "-n", "1", "-B", "5"]
    assert main(base + ["-s", "4"]) == cli.EXIT_OK
    assert "solution" in capsys.readouterr().out


def test_oracle_human_output_without_a_solution(squares_files, capsys):
    p_path, q_path, _ = squares_files
    args = ["oracle", "--p", p_path, "--q", q_path, "-n", "1", "-s", "3", "-B", "5"]
    assert main(args) == cli.EXIT_EXHAUSTED
    out, err = capsys.readouterr()
    assert out == "no solution with remaining arguments in 1..5 at (n,s)=(1,3)\n"
    assert err == ""


def test_oracle_arity_mismatch_is_bad_input(toy_files, squares_files, capsys):
    p_path, _ = toy_files
    _, q_path, _ = squares_files
    code = main(["oracle", "--p", p_path, "--q", q_path, "-n", "1", "-s", "1", "-B", "2"])
    assert code == cli.EXIT_BAD_INPUT
    capsys.readouterr()


# each case corrupts the polynomial document of p = x2 (arity 3, one monomial)
BAD_POLYNOMIALS = {
    "arity must be at least 1, got 0": lambda doc: doc.update(arity=0),
    "arity must be at least 1, got -1": lambda doc: doc.update(arity=-1),
    "arity must be an integer, got 2.5": lambda doc: doc.update(arity=2.5),
    "exponent vector (0, -1, 0) has a negative exponent":
        lambda doc: doc["monomials"][0].update(exponents=[0, -1, 0]),
    "coeff must be an integer, got 1.5": lambda doc: doc["monomials"][0].update(coeff=1.5),
    "exponent must be an integer, got 1.9":
        lambda doc: doc["monomials"][0].update(exponents=[0, 1.9, 0]),
    "exponent must be an integer, got True":
        lambda doc: doc["monomials"][0].update(exponents=[0, True, 0]),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
@pytest.mark.parametrize("message", sorted(BAD_POLYNOMIALS))
def test_oracle_rejects_bad_polynomial_documents(message, flags, run_python):
    # integer fields and polynomial checks raise typed errors, so `python -O`
    # must not turn a rejected document into an answer
    doc = interchange.polynomial_to_doc(poly.variable(2, 3))
    BAD_POLYNOMIALS[message](doc)
    q = interchange.dumps(interchange.polynomial_to_doc(poly.variable(3, 3)))
    run = run_python(
        *flags, "-m", "diomorph.cli", "oracle", "--p", json.dumps(doc), "--q", q,
        "-n", "1", "-s", "1", "-B", "2",
        capture_output=True, text=True,
    )
    assert run.returncode == cli.EXIT_BAD_INPUT
    assert run.stdout == ""
    assert run.stderr == f"error: {message}\n"


# -------------------------------------------------------------------- solve


def test_solve_found_on_toy(toy_encoder_file, capsys):
    args = ["solve", "--encoder", toy_encoder_file, "-n", "2", "-s", "2",
            "--max-len", "3", "--format", "machine"]
    assert main(args) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "found" and doc["witness"] == []


def test_solve_exhausted_on_toy(toy_encoder_file, capsys):
    args = ["solve", "--encoder", toy_encoder_file, "-n", "2", "-s", "3",
            "--max-len", "3", "--format", "machine"]
    assert main(args) == cli.EXIT_EXHAUSTED
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "exhausted" and doc["witness"] is None


def test_solve_human_output_when_exhausted(toy_encoder_file, capsys):
    args = ["solve", "--encoder", toy_encoder_file, "-n", "2", "-s", "3", "--max-len", "3"]
    assert main(args) == cli.EXIT_EXHAUSTED
    out, err = capsys.readouterr()
    assert out == ("outcome: exhausted (matrix level, method product, bound 3)\n"
                   "no witness within bound\n"
                   "detail: no witness among generator words of length <= 3\n")
    assert err == ""


def test_solve_both_levels(toy_encoder_file, capsys):
    args = ["solve", "--encoder", toy_encoder_file, "-n", "2", "-s", "2",
            "--max-len", "2", "--level", "both", "--format", "machine"]
    assert main(args) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"]["outcome"] == "found"
    assert doc["morphism"]["outcome"] == "found"
    assert doc["matrix"]["witness"] == doc["morphism"]["witness"]


def test_solve_two_unknowns_flag(toy_encoder_file, capsys):
    args = ["solve", "--encoder", toy_encoder_file, "-n", "2", "-s", "2",
            "--max-len", "2", "--two", "--format", "machine"]
    assert main(args) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["pair"] == [[], []]


def test_solve_both_levels_disagreeing_is_a_failure(toy_encoder_file, monkeypatch, capsys):
    # the two levels agree on every equation the construction makes, so the
    # morphism-level search is replaced by one that reports exhaustion
    monkeypatch.setattr(solve, "solve_one_unknown_words", lambda pt, cap=None: solve.SolveResult(
        "exhausted", "morphism", pt.max_len, method="parikh-bridge"))
    args = ["solve", "--encoder", toy_encoder_file, "-n", "2", "-s", "2",
            "--max-len", "2", "--level", "both", "--format", "machine"]
    assert main(args) == cli.EXIT_SUITE_FAILURE
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert (doc["matrix"]["outcome"], doc["morphism"]["outcome"]) == ("found", "exhausted")
    assert err == "error: matrix and morphism levels disagree\n"


def test_solve_both_levels_builds_the_sides_once(toy_encoder_file, monkeypatch, capsys):
    built = []
    for name in ("p_side_matrix", "q_side_matrix"):
        real = getattr(matsem, name)
        monkeypatch.setattr(matsem, name, lambda *args, real=real, name=name:
                            built.append((name, args[2:])) or real(*args))
    for two in ([], ["--two"]):
        built.clear()
        args = ["solve", "--encoder", toy_encoder_file, "-n", "2", "-s", "2",
                "--max-len", "2", "--level", "both", *two]
        assert main(args) == cli.EXIT_OK
        assert built == [("p_side_matrix", (2, 2)), ("q_side_matrix", (2, 2))]


def _rename_c0(doc):
    # c0 is never produced, so it is named only in the alphabet and as a domain letter
    letters = doc["alphabet"]["letters"]
    letters[letters.index("c0")] = "c9"
    for g in ("g1", "g2"):
        doc[g]["images"]["c9"] = doc[g]["images"].pop("c0")


def _merge_last_levels(doc):
    sizes = doc["alphabet"]["level_sizes"]
    sizes[-2:] = [sizes[-2] + sizes[-1]]


# each case makes a part of the toy encoder's document disagree with the rest
INCONSISTENT_ENCODERS = {
    "dimension 7 differs from the arities of p and q (2, 2)": lambda doc: doc.update(dimension=7),
    "dimension 2 needs 3 alphabet levels, found 2": _merge_last_levels,
    "alphabet lacks one of the letters c0, c1, c2, c3, e": _rename_c0,
    "p_tupled and q_tupled must be the tuplings of p and q": lambda doc: doc.update(
        p=interchange.polynomial_to_doc(poly.mul(poly.constant(2, 2), poly.variable(1, 2)))),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
@pytest.mark.parametrize("message", sorted(INCONSISTENT_ENCODERS))
def test_solve_rejects_inconsistent_encoder_documents(message, flags, tmp_path, toy_encoder, run_python):
    doc = interchange.encoder_to_doc(toy_encoder)
    INCONSISTENT_ENCODERS[message](doc)
    path = tmp_path / "bad.json"
    path.write_text(interchange.dumps(doc))
    run = run_python(
        *flags, "-m", "diomorph.cli", "solve", "--encoder", str(path),
        "-n", "1", "-s", "1", "--max-len", "1",
        capture_output=True, text=True,
    )
    assert run.returncode == cli.EXIT_BAD_INPUT
    assert run.stdout == ""
    assert run.stderr == f"error: {message}\n"


# each case corrupts the toy encoder's alphabet (letters, level sizes)
BAD_ALPHABETS = {
    "duplicate letters": lambda letters, sizes: (letters[:1] + letters[:-1], sizes),
    "alphabet must be nonempty": lambda letters, sizes: ([], []),
    "levels must be nonempty": lambda letters, sizes: (letters, sizes[:1] + [0] + sizes[1:]),
    "levels must cover the alphabet": lambda letters, sizes: (letters, sizes[:-1] + [sizes[-1] + 1]),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
@pytest.mark.parametrize("message", sorted(BAD_ALPHABETS))
def test_solve_rejects_bad_alphabet_documents(message, flags, tmp_path, toy_encoder, run_python):
    # alphabet checks raise typed errors, so `python -O` must not change the verdict
    doc = interchange.encoder_to_doc(toy_encoder)
    alphabet = doc["alphabet"]
    alphabet["letters"], alphabet["level_sizes"] = BAD_ALPHABETS[message](
        alphabet["letters"], alphabet["level_sizes"])
    path = tmp_path / "bad.json"
    path.write_text(interchange.dumps(doc))
    run = run_python(
        *flags, "-m", "diomorph.cli", "solve", "--encoder", str(path),
        "-n", "1", "-s", "1", "--max-len", "1",
        capture_output=True, text=True,
    )
    assert run.returncode == cli.EXIT_BAD_INPUT
    assert run.stdout == ""
    assert run.stderr == f"error: {message}\n"


def _swap_first_level_letters(doc):
    letters = doc["alphabet"]["letters"]
    letters[4], letters[5] = letters[5], letters[4]  # A:1.1 and A:1.2, both in the first level


def _differs(field):
    return f"{field} differs from the recompilation of p and q"


# each case changes one field of the toy encoder's document, leaving the rest
# consistent; loading recompiles the encoder from p and q and compares
CORRUPTED_ENCODERS = {
    _differs("g1"): lambda doc: doc["g1"]["images"].update(e="e"),
    _differs("g2"): lambda doc: doc["g2"]["images"].update(c1="c1"),
    _differs("u"): lambda doc: doc.update(u=doc["u"] + " e"),
    _differs("v"): lambda doc: doc.update(v=doc["v"].replace("B:1.1 ", "", 1)),
    _differs("alphabet"): _swap_first_level_letters,
    "encoder document version must be 3, got 4": lambda doc: doc.update(version=4),
    ("encoder document version 1 lays out one chain of gadget blocks per term; "
     "recompile it from p and q with `diomorph compile`"): lambda doc: doc.update(version=1),
    ("encoder document version 2 lays out each tupled polynomial as a prefix tree of gadget blocks; "
     "recompile it from p and q with `diomorph compile`"): lambda doc: doc.update(version=2),
}
RECOMPILE_COMMANDS = {
    "solve": ["solve", "-n", "2", "-s", "2", "--max-len", "3", "--level", "both"],
    "verify": ["verify", "--suite", "conditions"],
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
@pytest.mark.parametrize("command", sorted(RECOMPILE_COMMANDS))
@pytest.mark.parametrize("message", sorted(CORRUPTED_ENCODERS))
def test_loading_refuses_a_document_that_differs_from_its_recompilation(
        message, command, flags, tmp_path, toy_encoder, run_python):
    doc = interchange.encoder_to_doc(toy_encoder)
    CORRUPTED_ENCODERS[message](doc)
    path = tmp_path / "bad.json"
    path.write_text(interchange.dumps(doc))
    run = run_python(
        *flags, "-m", "diomorph.cli", *RECOMPILE_COMMANDS[command], "--encoder", str(path),
        capture_output=True, text=True,
    )
    assert run.returncode == cli.EXIT_BAD_INPUT
    assert run.stdout == ""
    assert run.stderr == f"error: {message}\n"


def test_alphabet_budget_does_not_reach_loading(toy_encoder_file, monkeypatch, capsys):
    # the rebuild's budget is the document's own letter count (88 here)
    args = ["solve", "--encoder", toy_encoder_file, "-n", "2", "-s", "2",
            "--max-len", "3", "--level", "both", "--format", "machine"]
    assert main(args) == cli.EXIT_OK
    expected = capsys.readouterr()
    monkeypatch.setenv("DIOMORPH_ALPHABET_BUDGET", "10")
    assert main(args) == cli.EXIT_OK
    assert capsys.readouterr() == expected


def test_loading_refuses_polynomials_that_need_more_letters(toy_encoder, tmp_path, capsys):
    # a consistent larger pair (x1³ against x2 needs 99 letters) in the toy
    # alphabet: the rebuild runs out of letters, which is bad input (2), not a
    # budget the user set (3)
    doc = interchange.encoder_to_doc(toy_encoder)
    x1 = poly.variable(1, 2)
    larger = encode.build_encoder(poly.mul(x1, poly.mul(x1, x1)), poly.variable(2, 2))
    for name in ("p", "q", "p_tupled", "q_tupled"):
        doc[name] = interchange.polynomial_to_doc(getattr(larger, name))
    path = tmp_path / "larger.json"
    path.write_text(interchange.dumps(doc))
    args = ["solve", "--encoder", str(path), "-n", "1", "-s", "1", "--max-len", "1"]
    assert main(args) == cli.EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: recompiling p and q needs more than the 88 letters")
    assert err.count("\n") == 1


def test_solve_on_squares_encoder_file(squares_files, capsys):
    _, _, enc_path = squares_files
    args = ["solve", "--encoder", enc_path, "-n", "1", "-s", "4",
            "--max-len", "6", "--format", "machine"]
    assert main(args) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] == [1, 1, 2]


# ------------------------------------------------------------------- verify


@pytest.mark.parametrize("suite", ["conditions", "staged", "collapse"])
def test_verify_suites_pass_on_toy(toy_encoder_file, suite, capsys):
    args = ["verify", "--encoder", toy_encoder_file, "--suite", suite,
            "--format", "machine"]
    assert main(args) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True and doc["suite"]


def test_verify_human_output_is_pinned(toy_encoder_file, capsys):
    # human is the default format
    assert main(["verify", "--encoder", toy_encoder_file, "--suite", "conditions"]) == cli.EXIT_OK
    detail = "c2/c3 start the two counters; c0/c1 erase"
    assert capsys.readouterr().out == "".join(line + "\n" for line in [
        "suite conditions: 15/15 checks passed",
        *(f"  [pass] control-g1-image {c} (word) — {detail}" for c in ("c0", "c1", "c2", "c3")),
        *(f"  [pass] control-g2-image {c} (word)" for c in ("c0", "c1", "c2", "c3")),
        "  [pass] final-letter-erased g1 (word)",
        "  [pass] final-letter-erased g2 (word)",
        "  [pass] double-raise-erases-noncontrol (word)",
        "  [pass] square-cube-agreement-off-c0 (word)",
        "  [pass] g1-then-double-raise-is-zero (word)",
        "  [pass] validation-profile (structural) — double-raise erasure fails on exactly "
        "the control letters; failed conditions: level_raising, square_erasing",
        "  [pass] tagged-blocks-match-recompilation (structural)",
    ])


def test_verify_functoriality_on_toy(toy_encoder_file, capsys):
    args = ["verify", "--encoder", toy_encoder_file, "--suite", "functoriality",
            "--max-len", "5", "--format", "machine"]
    assert main(args) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_detects_corruption(toy_encoder_file, tmp_path, capsys):
    # loading recompiles the encoder, so a broken control chain is refused
    # before any suite runs; encode.condition_suite's own check is covered by
    # tests/test_encode.py::test_condition_suite_detects_broken_control_chain
    doc = json.loads(open(toy_encoder_file).read())
    doc["g2"]["images"]["c1"] = "c1"  # break the control chain
    broken = tmp_path / "broken.json"
    broken.write_text(interchange.dumps(doc))
    args = ["verify", "--encoder", str(broken), "--suite", "conditions",
            "--format", "machine"]
    assert main(args) == cli.EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: g2 differs from the recompilation of p and q\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_verify_staged_cap_names_the_stage_and_the_lower_bound(flags, squares_files, run_python):
    # c0 under g2 g2 g1 g2 stays under the cap (g1's image of c2 holds 45
    # runs); under g2 g2 g1 g2 g1 g2 the letter counts bound stage 5 below by
    # 148 runs, which decides the cap before that stage's word is built
    _, _, enc_path = squares_files
    run = run_python(
        *flags, "-m", "diomorph.cli", "verify", "--encoder", enc_path,
        "--suite", "staged", "--bound", "1", "--cap", "100",
        capture_output=True, text=True,
    )
    assert run.returncode == cli.EXIT_BUDGET
    assert run.stdout == ""
    assert run.stderr == ("error: expansion cap exceeded: needs 148 > cap 100 "
                          "(lower bound from letter counts at stage 5 of 6)\n")


def _cap_help(subcommand):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.help for a in commands.choices[subcommand]._actions if "--cap" in a.option_strings)


def test_cap_help_says_where_each_cap_applies():
    assert _cap_help("solve") == ("expansion cap of the one-unknown morphism-level search only "
                                  "(--level morphism or both, without --two)")
    assert _cap_help("verify") == "expansion cap of the staged and functoriality suites"
    assert _cap_help("report") == "expansion cap of the morphism-level witness confirmation"


def test_verify_unknown_suite_is_usage_error(toy_encoder_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--encoder", toy_encoder_file, "--suite", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------------- report


def test_report_agreement_and_determinism(squares_files, capsys):
    p_path, q_path, enc_path = squares_files
    args = ["report", "--p", p_path, "--q", q_path, "--encoder", enc_path,
            "--point", "1,1", "--point", "1,4", "--oracle-bound", "5",
            "--solver-bound", "6", "--format", "machine"]
    assert main(args) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == cli.EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["all_agree"] is True
    assert [row["s"] for row in doc["rows"]] == [1, 4]


def test_report_range_selection(squares_files, capsys):
    p_path, q_path, enc_path = squares_files
    args = ["report", "--p", p_path, "--q", q_path, "--encoder", enc_path,
            "-n", "1", "--s-from", "1", "--s-to", "3", "--oracle-bound", "4",
            "--solver-bound", "5", "--format", "machine"]
    assert main(args) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [row["s"] for row in doc["rows"]] == [1, 2, 3]


def test_report_disagreement_exit_code(squares_files, capsys):
    # solver bound 2 misses the length-3 witness at (1,4)
    p_path, q_path, enc_path = squares_files
    args = ["report", "--p", p_path, "--q", q_path, "--encoder", enc_path,
            "--point", "1,4", "--oracle-bound", "5", "--solver-bound", "2",
            "--format", "machine"]
    assert main(args) == cli.EXIT_SUITE_FAILURE
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_agree"] is False
    assert doc["rows"][0]["caveats"]


def test_report_flags_wrong_morphism_level_witnesses(squares_files, monkeypatch, capsys):
    # the morphism-level searches are replaced by ones that return a witness
    # whose tuple (1, 4, 1) misses the equation and a pair whose second word
    # does not parse as an argument chain
    monkeypatch.setattr(solve, "solve_one_unknown_words", lambda pt, cap=None: solve.SolveResult(
        "found", "morphism", pt.max_len, witness=(1, 2), method="parikh-bridge"))
    monkeypatch.setattr(solve, "solve_two_unknowns_words", lambda pt: solve.SolveResult(
        "found", "morphism", pt.max_len, pair=((1, 1, 2), (1,)), method="parikh-bridge"))
    p_path, q_path, enc_path = squares_files
    args = ["report", "--p", p_path, "--q", q_path, "--encoder", enc_path,
            "--point", "1,4", "--oracle-bound", "5", "--solver-bound", "6",
            "--format", "machine"]
    assert main(args) == cli.EXIT_SUITE_FAILURE
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_agree"] is False
    [row] = doc["rows"]
    assert row["agree"] is False
    assert row["caveats"] == [
        "recovered tuple (1, 4, 1) does not satisfy the equation",
        "witness (1,) does not parse as an argument chain: "
        "trailing level-preserving steps after the last raise",
        "matrix and morphism searches disagree on the witness",
        "matrix and morphism searches disagree on the pair",
    ]


def test_report_requires_points(squares_files, capsys):
    p_path, q_path, enc_path = squares_files
    args = ["report", "--p", p_path, "--q", q_path, "--encoder", enc_path,
            "--oracle-bound", "2", "--solver-bound", "2"]
    assert main(args) == cli.EXIT_BAD_INPUT
    assert "point" in capsys.readouterr().err


def test_report_rejects_malformed_point(squares_files, capsys):
    p_path, q_path, enc_path = squares_files
    args = ["report", "--p", p_path, "--q", q_path, "--encoder", enc_path,
            "--point", "1;4", "--oracle-bound", "2", "--solver-bound", "2"]
    assert main(args) == cli.EXIT_BAD_INPUT
    capsys.readouterr()


def test_report_human_format(squares_files, capsys):
    p_path, q_path, enc_path = squares_files
    args = ["report", "--p", p_path, "--q", q_path, "--encoder", enc_path,
            "--point", "1,4", "--oracle-bound", "5", "--solver-bound", "6"]
    assert main(args) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "overall" in out and "(1,4)" in out


# ------------------------------------------------------------------- fuzzing


def _paths(value, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _numeric(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, str) and value.lstrip("-").isdigit())


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_TOY_P, _TOY_Q = (interchange.polynomial_to_doc(poly.variable(i, 2)) for i in (2, 1))
_TOY_ENCODER = interchange.encoder_to_doc(encode.build_encoder(poly.variable(2, 2), poly.variable(1, 2)))
_FUZZ_TARGETS = {"p": _TOY_P, "q": _TOY_Q, "encoder": _TOY_ENCODER}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw):
    """One target document with one change: a key dropped, a value replaced by
    random JSON, or a number negated, made a float or made huge."""
    target = draw(st.sampled_from(sorted(_FUZZ_TARGETS)))
    doc = json.loads(json.dumps(_FUZZ_TARGETS[target]))
    paths = list(_paths(doc))
    numeric = [path for path in paths if _numeric(_get(doc, path))]
    op = draw(st.sampled_from(["drop", "json", "negate", "float", "huge"]))
    path = draw(st.sampled_from(paths if op in ("drop", "json") else numeric))
    parent, key = _get(doc, path[:-1]), path[-1]
    if op == "drop":
        del parent[key]
    elif op == "json":
        parent[key] = draw(_JSON_VALUES)
    else:
        n = int(parent[key])
        parent[key] = {"negate": -n, "float": float(n),
                       "huge": draw(st.integers(min_value=2**63, max_value=10**40))}[op]
    return target, op, doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_mutated())
def test_mutated_documents_end_in_a_documented_exit(case):
    # in-process and fast; the corruption cases above replay under -O.  Every
    # ending is a documented exit code, never an exception, and a nonzero exit
    # writes one line to stderr.  Every numeric field is an integer field, so
    # a float anywhere is bad input
    target, op, doc = case
    if target == "encoder":
        argv = ["solve", "--encoder", json.dumps(doc), "-n", "2", "-s", "2",
                "--max-len", "3", "--level", "both"]
    else:
        docs = {"p": _TOY_P, "q": _TOY_Q, target: doc}
        argv = ["compile", "--p", json.dumps(docs["p"]), "--q", json.dumps(docs["q"]),
                "-o", os.devnull]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    lines = err.getvalue().splitlines(keepends=True)
    if code == cli.EXIT_OK:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
    if code in (cli.EXIT_BAD_INPUT, cli.EXIT_BUDGET):
        assert out.getvalue() == ""
    if op == "float":
        assert code == cli.EXIT_BAD_INPUT
