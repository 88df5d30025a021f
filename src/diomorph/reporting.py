"""Uniform pass/fail reporting for the verification suites.

A suite is a flat list of named checks.  The machine rendering is fully
deterministic (stable ordering, no timings, decimal strings only) so that
repeated runs over the same inputs are byte-identical; wall-clock notes, when
wanted, belong to the human rendering only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    method: str = "word"  # word | matrix | parikh-bridge | oracle | structural
    detail: str = ""

    def __str__(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name} ({self.method}){tail}"


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_doc(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def render(self, fmt: str = "human") -> str:
        if fmt == "machine":
            return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"
        good, total = self.counts
        lines = [f"suite {self.suite}: {good}/{total} checks passed"]
        lines += [f"  {c}" for c in self.checks]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines) + "\n"
