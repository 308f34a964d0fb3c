"""Shared exception hierarchy.

Two families matter for the CLI exit codes: precondition failures (exit 2)
and numerical faults discovered mid-computation (exit 3).
"""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class NumericalFault(RuntimeError):
    """A numerical invariant broke during a computation."""


class RealityViolationError(NumericalFault):
    """A nominally real-valued series produced a complex result."""


class MeanNotRemovedError(PreconditionError):
    """Homological solve received a series with a k=0 mode."""


class SmallDivisorError(NumericalFault):
    """A divisor |omega.k| fell below the safety floor."""

    def __init__(self, k, divisor, floor):
        self.k = tuple(k)
        self.divisor = divisor
        self.floor = floor
        super().__init__(
            f"small divisor |omega.k|={divisor:.3e} below floor {floor:.1e} at k={self.k}"
        )


class SmallnessViolationError(PreconditionError):
    """Perturbation norm exceeds the normal-form smallness threshold."""


class LieDivergenceError(NumericalFault):
    """Lie series brackets grew faster than the divergence guard allows."""


class StepFailureError(NumericalFault):
    """Implicit-midpoint inner iteration failed to converge."""


class DominanceViolationError(PreconditionError):
    """Regularity too low for the smoothing-gap term to dominate."""


class InsufficientDataError(PreconditionError):
    """Not enough usable data points for a fit."""


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; carries the stage tag."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
