"""Exception vocabulary shared across the package.

Each class carries the CLI exit code it maps to (`exit_code`): 1 for a
failed guarantee or diagnostic, 2 for bad input or configuration, 4 for
an exhausted budget.  Distinct classes let callers tell an invalid
exponent pair apart from a solver that ran out of budget.
"""

from __future__ import annotations


class ExleError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DomainError(ExleError, ValueError):
    """Input outside the mathematical domain (bad exponents, bad dimension)."""

    exit_code = 2


class ConfigurationError(ExleError, ValueError):
    """Structurally invalid configuration (grid too coarse, misshapen state)."""

    exit_code = 2


class NumericalError(ExleError, RuntimeError):
    """A numerical guarantee failed (no bracket, broken maximum principle)."""


class BudgetError(ExleError, RuntimeError):
    """Iteration or step budget exhausted.  Carries partial results."""

    exit_code = 4

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class DiagnosticError(ExleError, RuntimeError):
    """A diagnostic was requested on data that cannot support it."""
