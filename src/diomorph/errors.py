"""Shared error types.

Everything user-facing raises one of these so the CLI can map failures to
stable exit codes.
"""


class ArityMismatch(ValueError):
    """Polynomial operands disagree on the number of variables."""


class InvalidPolynomial(ValueError):
    """A polynomial has arity below 1 or a negative exponent."""


class InvalidDocument(ValueError):
    """A document field that must hold an integer holds something else."""


class AlphabetMismatch(ValueError):
    """A word or morphism was used with an alphabet it does not belong to."""


class InvalidAlphabet(ValueError):
    """A leveled alphabet is empty, repeats a letter, or has bad level sizes."""


class DimensionMismatch(ValueError):
    """Matrix operands (or M-triple summands) disagree on dimension."""


class ExpansionCapExceeded(RuntimeError):
    """An operation would materialize more word data than the configured cap.

    Carries enough context to name the offending letter in diagnostics.
    """

    def __init__(self, needed: int, cap: int, context: str = ""):
        self.needed = needed
        self.cap = cap
        self.context = context
        msg = f"expansion cap exceeded: needs {needed} > cap {cap}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class AlphabetBudgetExceeded(RuntimeError):
    """A construction would allocate more letters than the configured budget.

    ``needed`` is the letter count, or a text bound on it where the count is
    too large to compute.
    """

    def __init__(self, needed: int | str, budget: int, context: str = ""):
        self.needed = needed
        self.budget = budget
        self.context = context
        msg = f"alphabet budget exceeded: needs {needed} > budget {budget}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class InvalidMatrix(ValueError):
    """A matrix has a bad dimension, position or entry, or unsorted entries."""


class InvalidEncoder(ValueError):
    """The parts of an encoder document disagree with each other."""
