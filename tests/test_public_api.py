"""The package's public names, the full signatures of its public functions (and
of the vector field's constructor and the series' evaluate), the public
attributes of FourierTaylorSeries, the fields of its public
dataclasses, its exception classes, the options of each CLI subcommand and
the sweep CSV's columns, pinned: removing or adding one edits these lists."""

import argparse
import dataclasses
import importlib
import inspect
import operator
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import torusstab
from torusstab.cli import build_parser
from torusstab.experiment import CSV_COLUMNS, CSV_HEADER

PUBLIC_NAMES = [
    "AnalyticityWidths", "DiophantineCertificate", "EscapeRecord",
    "ExperimentConfig", "FitReport",
    "FourierTaylorSeries", "Frequency", "HamiltonianVectorField", "HolderClass",
    "LieResult", "NormalFormParams", "NormalFormResult", "NumericalFault", "ParameterSchedule",
    "PipelineReport", "PipelineStageError", "PreconditionError", "RHO_MAX",
    "RemainderBounds", "SmoothedSplit",
    "StabilityPrediction", "SweepRow", "TWO_PI", "TaylorSplit",
    "Trajectory", "ballistic_bound", "build_test_hamiltonian",
    "coefficient_norm_max", "default_dt",
    "diophantine_constant", "dominance_threshold",
    "emit_plots", "escape_time", "fit_exponent", "fit_exponent_rows",
    "golden_frequency", "holder_norm_majorant", "integrate", "lie_transform",
    "load_config", "parameter_schedule", "parse_config",
    "predicted_stability_time", "read_sweep_csv", "remainder_bounds",
    "resonant_normal_form", "run_pipeline", "sample_initial_conditions",
    "smooth_coefficients", "solve_homological", "sweep", "taylor_split",
    "theta_gradient_majorant",
]

# the full signature of every public function, defaults and keyword-only
# markers included
PUBLIC_SIGNATURES = {
    "ballistic_bound": "(H, threshold, radius)",
    "build_test_hamiltonian": "(hc, seed=0, amplitude=1e-12, j_max=8)",
    "coefficient_norm_max": "(P, hc)",
    "default_dt": "(H)",
    "diophantine_constant": "(freq, tau, K)",
    "dominance_threshold": "(tau)",
    "emit_plots": "(rows, outdir)",
    "escape_time": "(H, rho, threshold, t_cap, n_samples, seed, dt=None)",
    "fit_exponent": "(rhos, times, log_exponent=None)",
    "fit_exponent_rows": "(rows, source='t_pred', log_exponent=None)",
    "golden_frequency": "(d)",
    "holder_norm_majorant": "(g, hc)",
    "integrate": "(H, start, t_end, dt, record_every=None, r_max=None)",
    "lie_transform": "(H, chi, order=6, *, widths, chop)",
    "load_config": "(path)",
    "parameter_schedule": "(rho, gamma, tau, hc, coeff_norm_max)",
    "parse_config": "(text)",
    "predicted_stability_time": "(rho, hc, tau)",
    "read_sweep_csv": "(path)",
    "remainder_bounds": "(schedule, hc)",
    "resonant_normal_form": "(omega, f, params)",
    "run_pipeline": "(H, omega, gamma, tau, hc, rho)",
    "sample_initial_conditions": "(d, rho, n_samples, seed)",
    "smooth_coefficients": "(split, s)",
    "solve_homological": "(f_nr, omega)",
    "sweep": "(config, csv_path=None)",
    "taylor_split": "(f, hc, rho)",
    "theta_gradient_majorant": "(H, radius)",
}

# the series' data (d, K, M, C), constructors, calculus, norms and text form
SERIES_ATTRIBUTES = [
    "C", "K", "M", "constant", "d", "evaluate",
    "fourier_nonzero_part", "fourier_zero_part", "from_text",
    "is_real", "items", "linear", "load", "mass", "masses",
    "max_taylor_order", "min_taylor_order", "poisson_bracket", "save", "select",
    "to_text", "weighted_norm",
]

# the signatures of the vector field's constructor and of the series' evaluate
CALLABLE_SIGNATURES = {
    "HamiltonianVectorField": "(series)",
    "FourierTaylorSeries.evaluate": "(self, theta, I)",
}

# the fields of every public dataclass, in declaration order
DATACLASS_FIELDS = {
    "AnalyticityWidths": ('sigma', 'rho'),
    "DiophantineCertificate": ('tau', 'K', 'gamma_K', 'attained_k'),
    "EscapeRecord": ('rho', 'threshold', 'n_samples', 'escape_times', 'censored', 't_cap',
                     'max_drift_at_cap', 'max_energy_drift', 'seed', 'dt'),
    "ExperimentConfig": ('ell', 'tau', 'gamma', 'rho_list', 'amplitude', 'j_max', 'seed', 'dt',
                         't_cap', 'max_steps', 'n_samples', 'threshold_factor',
                         'dynamics_only'),
    "FitReport": ('model', 'p', 'c0', 'residuals', 'n_points'),
    "HolderClass": ('ell', 'd'),
    "LieResult": ('series', 'tail_mass', 'dropped_mass'),
    "NormalFormParams": ('alpha', 'K', 'widths'),
    "NormalFormResult": ('h', 'f_star', 'contraction', 'target_contraction',
                         'action_shift_bound', 'stop', 'iterations', 'f_initial_norm',
                         'dropped_mass', 'params'),
    "ParameterSchedule": ('rho', 'tau', 'a', 'b', 'rho_tilde', 'K', 's', 'alpha'),
    "PipelineReport": ('rho', 'coeff_norm_max', 'schedule', 'split', 'smoothed', 'normal_form',
                       'bounds', 'prediction', 'gates'),
    "RemainderBounds": ('analytic', 'smoothing_gap', 'taylor'),
    "SmoothedSplit": ('P_s', 'grad_I_gap', 'grad_theta_gap', 'dropped_mass', 's'),
    "StabilityPrediction": ('t_theorem', 'exponent', 'log_exponent'),
    "SweepRow": ('rho', 't_pred', 'min_escape', 'censored_fraction', 'max_drift',
                 'schedule_flags', 'contraction', 't_cap', 'error'),
    "TaylorSplit": ('P', 'Z', 'Z_bound', 'rho'),
    "Trajectory": ('t', 'theta', 'I', 'energy', 'dt', 'domain_exit'),
}

# every exception class the package defines: the two families of the CLI's
# exit codes (2 and 3) and the stage wrapper that takes its cause's code
EXCEPTION_CLASSES = ["NumericalFault", "PipelineStageError", "PreconditionError"]

# every option of every subcommand, in the order `--help` lists them
CLI_OPTIONS = {
    "dioph": ('--omega', '--tau', '--K'),
    "nf": ('--input', '--alpha', '--K', '--sigma', '--rho', '--output'),
    "predict": ('--rho', '--ell', '--d', '--tau', '--gamma', '--input'),
    "escape": ('--input', '--ell', '--amplitude', '--rho', '--threshold', '--t-cap',
               '--n-samples', '--seed', '--dt'),
    "sweep": ('--config', '--csv'),
    "fit": ('--csv', '--source', '--log-exponent'),
    "plots": ('--csv', '--outdir'),
}

# the sweep CSV's columns, in file order: the fields of SweepRow
SWEEP_SCHEMA = "# torusstab sweep schema v3"
SWEEP_COLUMNS = ('rho', 't_pred', 'min_escape', 'censored_fraction', 'max_drift',
                 'schedule_flags', 'contraction', 't_cap', 'error')


def test_public_names_are_pinned():
    names = sorted(
        name
        for name in dir(torusstab)
        if not name.startswith("_") and not isinstance(getattr(torusstab, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_public_function_parameters_are_pinned():
    functions = {
        name: str(inspect.signature(getattr(torusstab, name)))
        for name in PUBLIC_NAMES
        if inspect.isfunction(getattr(torusstab, name))
    }
    assert functions == PUBLIC_SIGNATURES


def test_series_attributes_are_pinned():
    series = torusstab.FourierTaylorSeries
    assert sorted(name for name in dir(series) if not name.startswith("_")) == SERIES_ATTRIBUTES


def test_callable_parameters_are_pinned():
    assert {
        name: str(inspect.signature(operator.attrgetter(name)(torusstab)))
        for name in CALLABLE_SIGNATURES
    } == CALLABLE_SIGNATURES


def test_dataclass_fields_are_pinned():
    classes = {name: getattr(torusstab, name) for name in PUBLIC_NAMES}
    assert {
        name: tuple(f.name for f in dataclasses.fields(cls))
        for name, cls in classes.items()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    } == DATACLASS_FIELDS


def test_exception_classes_are_pinned():
    classes = {
        cls
        for info in pkgutil.iter_modules(torusstab.__path__, "torusstab.")
        for _, cls in inspect.getmembers(importlib.import_module(info.name), inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__.startswith("torusstab")
    }
    assert sorted(cls.__name__ for cls in classes) == EXCEPTION_CLASSES


def test_cli_options_are_pinned():
    (commands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: tuple(
            flag for action in sub._actions for flag in action.option_strings
            if flag not in ("-h", "--help")
        )
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS


def test_sweep_columns_are_pinned(tmp_path):
    assert (CSV_HEADER, CSV_COLUMNS) == (SWEEP_SCHEMA, SWEEP_COLUMNS)
    csv = tmp_path / "sweep.csv"
    torusstab.sweep(torusstab.ExperimentConfig(rho_list=(0.1,), t_cap=0.1, n_samples=1),
                    csv_path=csv)
    assert csv.read_text().splitlines()[:2] == [SWEEP_SCHEMA, ",".join(SWEEP_COLUMNS)]


def test_readme_example_runs():
    # the README's one python block, run as a reader would: its first line
    # of output is the certificate, True
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout.splitlines()[0] == "True"


def test_import_loads_no_scipy():
    # the package needs only numpy: no scipy module loads on import, nor when
    # integrate flows a series
    child = """
import sys
import torusstab, torusstab.cli
from torusstab import FourierTaylorSeries, golden_frequency, integrate
H = FourierTaylorSeries.linear(golden_frequency(2)) + FourierTaylorSeries(
    2, {((1, 0), (2, 0)): 5e-4, ((-1, 0), (2, 0)): 5e-4})
integrate(H, ((0.1, 0.2), (0.0, 0.0)), t_end=0.1, dt=0.01)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
