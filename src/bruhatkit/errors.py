"""Exceptions shared across the package."""


class SingularMatrixError(ValueError):
    """Raised when an operation needs an invertible matrix and the input is not.

    ``column`` is the 1-based index of the first column in which no usable
    pivot exists, when the failure was detected during elimination.
    """

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed the configured element budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


def check_budget(size: int, budget: int, what: str) -> None:
    """Raise BudgetError("<what>, over budget <budget>") when size is over
    the budget; ``what`` names the phase and the size it needs."""
    if size > budget:
        raise BudgetError(f"{what}, over budget {budget}", required=size, budget=budget)


class IntegrityError(RuntimeError):
    """Raised when a computation contradicts a structural fact it relies on.

    Never swallowed or corrected: an integrity failure means either a bug or
    a genuinely falsified expectation, and both must surface.
    """
