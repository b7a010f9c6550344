"""Exception vocabulary shared across the package.

Each class carries the CLI exit code of its outcome (`exit_code`): 1 for
a failed numerical guarantee, 2 for bad input, 4 for an exhausted budget.
Distinct classes let callers tell an invalid exponent pair apart from a
solver that ran out of budget.
"""

from __future__ import annotations


class ExleError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DomainError(ExleError, ValueError):
    """Bad input: a value outside its domain (exponents, dimension, loads,
    grid size) or a state that does not fit its grid."""

    exit_code = 2


class NumericalError(ExleError, RuntimeError):
    """A numerical guarantee failed (no bracket, broken maximum principle)."""


class BudgetError(ExleError, RuntimeError):
    """Iteration or step budget exhausted.  Carries partial results."""

    exit_code = 4

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
