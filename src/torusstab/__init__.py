"""Numerical laboratory for effective stability of Diophantine invariant
tori of finitely differentiable (Holder) Hamiltonians.

The toolchain: Fourier-Taylor series arithmetic, analytic smoothing by
sharp Fourier cutoff, quantitative resonant normal forms via Lie series,
the parameter schedule and remainder-bound chain behind polynomially long
stability times, and long-time symplectic integration to measure escape
times against the predictions.
"""

from .errors import (
    DomainEscapeError,
    DominanceViolationError,
    EnumerationBudgetError,
    InsufficientDataError,
    LieDivergenceError,
    MeanNotRemovedError,
    NumericalFault,
    PipelineStageError,
    PreconditionError,
    RealityViolationError,
    SmallDivisorError,
    SmallnessViolationError,
    StepFailureError,
)
from .freqlib import (
    DiophantineCertificate,
    Frequency,
    diophantine_constant,
    golden_frequency,
    is_completely_nonresonant,
)
from .ftseries import (
    AnalyticityWidths,
    FourierTaylorSeries,
    HamiltonianVectorField,
    TWO_PI,
    theta_gradient_majorant,
)
from .smoothing import (
    FourierNormReport,
    HolderClass,
    SlopeReport,
    SmoothingResult,
    cp_tail_majorant,
    fourier_norm_bound_check,
    holder_norm_majorant,
    lacunary_series,
    smooth,
    verify_smoothing_estimate,
)
from .normalform import (
    LieResult,
    NormalFormParams,
    NormalFormResult,
    apply_transform,
    lie_transform,
    resonant_normal_form,
    solve_homological,
)
from .stabpipe import (
    RHO_MAX,
    BoundConstants,
    ParameterSchedule,
    PipelineReport,
    RemainderBounds,
    SmoothedSplit,
    StabilityPrediction,
    TaylorSplit,
    coefficient_norm_max,
    diffusion_time_reference,
    dominance_threshold,
    parameter_schedule,
    perturbation_of,
    predicted_stability_time,
    remainder_bounds,
    run_pipeline,
    smooth_coefficients,
    taylor_split,
)
from .dynamics import (
    EscapeRecord,
    Trajectory,
    ballistic_bound,
    default_dt,
    escape_time,
    integrate,
    linear_frequency,
    sample_initial_conditions,
)
from .experiment import (
    ExperimentConfig,
    FitReport,
    SweepRow,
    build_test_hamiltonian,
    emit_plots,
    fit_exponent,
    fit_exponent_rows,
    load_config,
    parse_config,
    read_sweep_csv,
    sweep,
)

__version__ = "0.1.0"
