"""The two renderings of a suite report."""

import json

from diomorph.reporting import CheckResult, SuiteReport

REPORT = SuiteReport(
    "demo",
    (CheckResult("kept", True, "matrix", "why it holds"), CheckResult("broken", False)),
    ("one note",),
)


def test_human_rendering_marks_each_check():
    assert REPORT.render("human") == (
        "suite demo: 1/2 checks passed\n"
        "  [pass] kept (matrix) — why it holds\n"
        "  [FAIL] broken (word)\n"
        "  note: one note\n"
    )


def test_machine_rendering_is_the_fields_and_the_verdict():
    assert json.loads(REPORT.render("machine")) == {
        "suite": "demo",
        "passed": False,
        "checks": [
            {"name": "kept", "passed": True, "method": "matrix", "detail": "why it holds"},
            {"name": "broken", "passed": False, "method": "word", "detail": ""},
        ],
        "notes": ["one note"],
    }
