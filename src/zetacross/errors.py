"""Exception hierarchy for the zetacross package.

Every error raised by the numerical layers derives from ZetacrossError so
callers (harness, CLI) can distinguish certification failures from bugs.
"""

from __future__ import annotations

from typing import Callable


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
    """A tolerance could not be met. A gate's error carries the achieved
    value, the bound it had to meet, its stage ("mother", "level",
    "transmutation", "crossbreed" or "quadrature") and, for a level
    point, its slot (n, l)."""

    def __init__(self, message: str, achieved: float | None = None,
                 bound: float | None = None, stage: str | None = None,
                 slot: tuple[int, int] | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.bound = bound
        self.stage = stage
        self.slot = slot


def gate(achieved: float, bound: float, stage: str, message: Callable[[], str],
         slot: tuple[int, int] | None = None) -> None:
    """Raise AccuracyError unless achieved <= bound, so NaN in either fails.
    message is called for the error's text on failure only."""
    if not achieved <= bound:
        raise AccuracyError(message(), achieved, bound, stage, slot)


class SearchError(ZetacrossError):
    """Bracketing or region expansion exhausted without a solution."""


class DegeneracyError(ZetacrossError):
    """A construction collapsed (e.g. an integrand that never crosses its mean)."""


class ContractError(ZetacrossError):
    """Mismatched inputs violate an operation's contract."""


class ConfigError(ZetacrossError):
    """Invalid run configuration or config file."""
