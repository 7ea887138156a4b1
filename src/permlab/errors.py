"""Exception types shared across the package.

The CLI maps these to exit codes: ParseError -> 2, BudgetExceeded -> 3,
InternalCheckError -> 4.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed permutation or pattern text."""


class BudgetExceeded(RuntimeError):
    """An enumeration was requested beyond the configured degree cap."""


class InternalCheckError(RuntimeError):
    """A closed-form computation failed its own consistency check."""
