"""Numerical laboratory for effective stability of Diophantine invariant
tori of finitely differentiable (Holder) Hamiltonians.

The toolchain: Fourier-Taylor series arithmetic, analytic smoothing by
sharp Fourier cutoff, quantitative resonant normal forms via Lie series,
the parameter schedule and remainder-bound chain behind polynomially long
stability times, and long-time symplectic integration to measure escape
times against the predictions.
"""

from .errors import NumericalFault, PipelineStageError, PreconditionError
from .freqlib import (
    DiophantineCertificate,
    Frequency,
    diophantine_constant,
    golden_frequency,
)
from .ftseries import (
    AnalyticityWidths,
    FourierTaylorSeries,
    HamiltonianVectorField,
    TWO_PI,
    linear_frequency,
    theta_gradient_majorant,
)
from .smoothing import (
    HolderClass,
    SlopeReport,
    SmoothingResult,
    coefficient_norm_max,
    cp_tail_majorant,
    holder_norm_majorant,
    lacunary_series,
    smooth,
    verify_smoothing_estimate,
)
from .normalform import (
    LieResult,
    NormalFormParams,
    NormalFormResult,
    lie_transform,
    resonant_normal_form,
    solve_homological,
)
from .stabpipe import (
    RHO_MAX,
    ParameterSchedule,
    PipelineReport,
    RemainderBounds,
    SmoothedSplit,
    StabilityPrediction,
    TaylorSplit,
    dominance_threshold,
    parameter_schedule,
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
