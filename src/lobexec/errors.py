"""Exception types shared across the package.

The split mirrors how callers need to react: bad inputs (InvalidParam),
evaluation outside a shape's covered domain or beyond float range
(OutOfDomain), a model assumption that fails a preflight check
(PreconditionFailed), and numerical machinery giving up
(NoRootInBracket, BudgetExceeded).
"""

from __future__ import annotations


class LobExecError(Exception):
    """Base class for all package errors."""


class InvalidParam(LobExecError):
    """A parameter is outside the range an operation supports."""


class OutOfDomain(LobExecError):
    """A shape transform was evaluated outside its covered domain, or its
    value overflowed there."""


class PreconditionFailed(LobExecError):
    """A model assumption failed a validation scan.

    Carries the offending ValidationReport in ``report`` when raised by
    the solvers, so callers can inspect the witness.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NoRootInBracket(LobExecError):
    """The bracketed root search found no sign change."""


class BudgetExceeded(LobExecError):
    """An exhaustive search would exceed its point budget."""
