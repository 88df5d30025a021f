"""Default resource limits.

The expansion cap bounds how much word data any single operation may
materialize (RLE runs while rewriting, plain letters when expanding).
The alphabet budget bounds how many letters a construction may allocate.
Both are overridable per call.  In the CLI, DIOMORPH_EXPANSION_CAP sets the
cap of solve, verify and report, and DIOMORPH_ALPHABET_BUDGET the budget of
compile; compile itself always runs under the default cap.
"""

DEFAULT_EXPANSION_CAP = 10**6
DEFAULT_ALPHABET_BUDGET = 32768


def expansion_cap(cap: int | None) -> int:
    if cap is None:
        return DEFAULT_EXPANSION_CAP
    if cap < 1:
        raise ValueError("expansion cap must be >= 1")
    return cap


def alphabet_budget(budget: int | None) -> int:
    if budget is None:
        return DEFAULT_ALPHABET_BUDGET
    if budget < 1:
        raise ValueError("alphabet budget must be >= 1")
    return budget
