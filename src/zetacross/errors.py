"""Exception hierarchy for the zetacross package.

Every error raised by the numerical layers derives from ZetacrossError so
callers (harness, CLI) can distinguish certification failures from bugs.
"""

from __future__ import annotations


class ZetacrossError(Exception):
    """Base class for all package errors."""


class DomainError(ZetacrossError):
    """Input outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested too close to a pole.

    Carries the offending pole location in ``pole``.
    """

    def __init__(self, message: str, pole: complex):
        super().__init__(message)
        self.pole = pole


class AccuracyError(ZetacrossError):
    """A tolerance could not be met; carries the achieved estimate."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class SearchError(ZetacrossError):
    """Bracketing or region expansion exhausted without a solution."""


class DegeneracyError(ZetacrossError):
    """A construction collapsed (e.g. an integrand that never crosses its mean)."""


class ContractError(ZetacrossError):
    """Mismatched inputs violate an operation's contract."""


class ConfigError(ZetacrossError):
    """Invalid run configuration or config file."""
