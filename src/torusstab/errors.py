"""The package's failure taxonomy: the CLI exit-code contract.

A violated hypothesis of the theorem or of an operation (the dominance gate
ell > 3 + 2/tau, the smallness bound, a k = 0 mode in a homological solve,
too few points for a fit) raises PreconditionError, exit 2.  Arithmetic
that breaks mid-computation (a small divisor, a complex series where a real
one is needed, a diverging Lie series or midpoint step) raises
NumericalFault, exit 3.  The message names what failed.  A pipeline stage
wraps either in PipelineStageError, which exits with its cause's code.
An input out of range raises ValueError naming it and its value, through
require_positive and require_at_least, and a series of another d raises
PreconditionError through require_dimension.
"""

import math


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class NumericalFault(RuntimeError):
    """A numerical invariant broke during a computation."""


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; carries the stage tag."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")


def require_positive(**values):
    """Raise ValueError naming the first value that is not positive and finite."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def require_dimension(series, d, owner):
    """Raise PreconditionError when series lives on another T^d x R^d than owner's d."""
    if series.d != d:
        raise PreconditionError(f"series has d = {series.d}, {owner} has d = {d}")


def require_real(series, owner):
    """Raise NumericalFault unless series is real-valued to 1e-9 of its mass."""
    if not series.is_real(tol=1e-9):
        raise NumericalFault(f"{owner} requires a real-valued series")


def require_at_least(bound, **values):
    """Raise ValueError naming the first value below bound, or nan."""
    for name, value in values.items():
        if not value >= bound:
            raise ValueError(f"{name} must be >= {bound}, got {value!r}")
