"""The package's public names, pinned: removing or adding one edits this list."""

import types

import torusstab

PUBLIC_NAMES = [
    "AnalyticityWidths", "BoundConstants", "DiophantineCertificate",
    "DomainEscapeError", "DominanceViolationError", "EnumerationBudgetError",
    "EscapeRecord", "ExperimentConfig", "FitReport", "FourierNormReport",
    "FourierTaylorSeries", "Frequency", "HamiltonianVectorField", "HolderClass",
    "InsufficientDataError", "LieDivergenceError", "LieResult", "MeanNotRemovedError",
    "NormalFormParams", "NormalFormResult", "NumericalFault", "ParameterSchedule",
    "PipelineReport", "PipelineStageError", "PreconditionError", "RHO_MAX",
    "RealityViolationError", "RemainderBounds", "SlopeReport", "SmallDivisorError",
    "SmallnessViolationError", "SmoothedSplit", "SmoothingResult",
    "StabilityPrediction", "StepFailureError", "SweepRow", "TWO_PI", "TaylorSplit",
    "Trajectory", "apply_transform", "ballistic_bound", "build_test_hamiltonian",
    "coefficient_norm_max", "cp_tail_majorant", "default_dt",
    "diffusion_time_reference", "diophantine_constant", "dominance_threshold",
    "emit_plots", "escape_time", "fit_exponent", "fit_exponent_rows",
    "fourier_norm_bound_check", "golden_frequency", "holder_norm_majorant", "integrate",
    "is_completely_nonresonant", "lacunary_series", "lie_transform", "linear_frequency",
    "load_config", "parameter_schedule", "parse_config", "perturbation_of",
    "predicted_stability_time", "read_sweep_csv", "remainder_bounds",
    "resonant_normal_form", "run_pipeline", "sample_initial_conditions", "smooth",
    "smooth_coefficients", "solve_homological", "sweep", "taylor_split",
    "theta_gradient_majorant", "verify_smoothing_estimate",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name in dir(torusstab)
        if not name.startswith("_") and not isinstance(getattr(torusstab, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
