"""Experiment orchestration: test Hamiltonians, rho sweeps, exponent fits,
and plot-data emission.

Config files are flat `key = value` text with `#` comments and
comma-separated lists.  CSV output carries a versioned schema header and is
byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .dynamics import default_dt, escape_time
from .errors import NumericalFault, PipelineStageError, PreconditionError
from .errors import require_at_least, require_positive
from .freqlib import golden_frequency
from .ftseries import FourierTaylorSeries, split_linear
from .smoothing import HolderClass, lacunary_series
from .stabpipe import RHO_MAX, _gate_ratio, predicted_stability_time, run_pipeline

CSV_HEADER = "# torusstab sweep schema v3"


@dataclass(frozen=True)
class ExperimentConfig:
    ell: float = 6.5
    tau: float = 1.0
    gamma: float = 0.5
    rho_list: tuple = (0.1, 0.05, 0.025)
    amplitude: float = 1e-12
    j_max: int = 8
    seed: int = 0
    dt: float | None = None
    t_cap: float | None = None  # None -> min(t_theorem, max_steps*dt)
    max_steps: int = 1_000_000
    n_samples: int = 50
    threshold_factor: float = 0.5
    dynamics_only: bool = True

    def __post_init__(self):
        rhos = tuple(float(r) for r in self.rho_list)
        for rho in rhos:  # every row starts from its headline time: refuse a rho without one
            predicted_stability_time(rho, self.holder, self.tau)
        if any(b >= a for a, b in zip(rhos, rhos[1:])):
            raise ValueError("rho_list must be strictly decreasing")
        for name in ("dt", "t_cap"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be None or positive and finite, got {value!r}")
        require_at_least(1, max_steps=self.max_steps, n_samples=self.n_samples)
        require_at_least(0, seed=self.seed)
        require_positive(threshold_factor=self.threshold_factor)
        if not self.dynamics_only and any(r >= RHO_MAX for r in rhos):
            raise ValueError(
                f"pipeline runs require every rho < e^-6 = {RHO_MAX:.4e}; "
                "set dynamics_only for larger radii"
            )
        object.__setattr__(self, "rho_list", rhos)

    @property
    def holder(self):
        return HolderClass(self.ell, 2)


def _float_list(value):
    return tuple(float(v) for v in value.split(","))


def _optional_float(value):
    return None if value.lower() == "none" else float(value)


def _flag(value):
    value = value.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a flag: {value!r}")
    return value in ("1", "true", "yes")


# every field of ExperimentConfig is a key a file may set, converted by its
# annotation
_CONVERTERS = {"float": float, "int": int, "float | None": _optional_float,
               "tuple": _float_list, "bool": _flag}
_CONFIG_KEYS = {f.name: _CONVERTERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(text):
    """Parse flat `key = value` config text with `#` comments into an
    ExperimentConfig."""
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key: {key}")
        if key in values:
            raise ValueError(f"config key set twice: {key}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ValueError(f"bad value for config key {key}: {value!r}") from None
    return ExperimentConfig(**values)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def build_test_hamiltonian(hc, seed=0, amplitude=1e-12, j_max=8):
    """H = omega.I + sum_{2 <= |m|_1 <= q-2} a_m(theta) I^m with lacunary a_m, for d=2.

    omega is the golden frequency; each coefficient a_m is a lacunary series
    with |a^_k| = amplitude 2^{-j ell} at |k|_1 = 2^j and phases drawn from a
    per-monomial derived seed, so the whole series lies in C^ell by
    construction and is byte-reproducible.
    """
    H = FourierTaylorSeries.linear(golden_frequency(2))
    for idx, m in enumerate(_compositions(2, 2, hc.q - 2)):
        a_m = lacunary_series(2, hc.ell, j_max=j_max, seed=[seed, idx], amplitude=amplitude)
        H = H + FourierTaylorSeries(2, {(k, m): c for (k, _), c in a_m.items()})
    return H


def _compositions(d, lo, hi):
    """All m in N^d with lo <= |m|_1 <= hi, in lexicographic order."""
    return [m for m in itertools.product(range(hi + 1), repeat=d) if lo <= sum(m) <= hi]


@dataclass(frozen=True)
class SweepRow:
    """One sweep row.  Its fields, in order, are the CSV's columns; `error`
    stays last, so that its commas need no quoting."""

    rho: float
    t_pred: float
    min_escape: float | None
    censored_fraction: float
    max_drift: float
    schedule_flags: str
    contraction: float
    t_cap: float = math.nan  # how long the samples ran; nan in v1 and v2 files
    error: str = ""

    def to_csv(self):
        def cell(f):
            value = getattr(self, f.name)
            if f.type == "str":
                return value
            return "nan" if value is None else repr(float(value))

        return ",".join(cell(f) for f in fields(self))

    @classmethod
    def from_csv(cls, line, columns):
        """Parse a row written under the columns line `columns`.  A column
        SweepRow lacks (v1 and v2's t_diff_ref) is skipped, and a field the
        file lacks takes its default."""
        for f in fields(cls):
            if f.default is MISSING and f.name not in columns:
                raise ValueError(f"sweep columns line lacks {f.name}")
        cells = line.strip().split(",", len(columns) - 1)
        if len(cells) < len(columns):
            raise ValueError(f"malformed sweep row: {line!r}")
        types = {f.name: f.type for f in fields(cls)}
        values = {}
        for name, cell in zip(columns, cells):
            if name in types:
                try:
                    value = cell if types[name] == "str" else float(cell)
                except ValueError:
                    raise ValueError(
                        f"bad value for sweep column {name}: {cell!r} in row {line.strip()!r}"
                    ) from None
                if types[name] == "float | None" and math.isnan(value):
                    value = None
                values[name] = value
        return cls(**values)


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def sweep(config, csv_path=None):
    """Run the pipeline/dynamics sweep over config.rho_list.

    Rows are written incrementally when csv_path is given, so partial runs
    remain usable; per-row failures are recorded in the row and the sweep
    continues.
    """
    hc = config.holder
    H = build_test_hamiltonian(
        hc, seed=config.seed, amplitude=config.amplitude, j_max=config.j_max
    )
    dt = config.dt if config.dt is not None else default_dt(H)
    rows = []
    fh = None
    if csv_path is not None:
        fh = open(csv_path, "w")
        fh.write(CSV_HEADER + "\n" + ",".join(CSV_COLUMNS) + "\n")
        fh.flush()
    try:
        for rho in config.rho_list:
            row = _sweep_row(config, H, hc, rho, dt)
            rows.append(row)
            if fh is not None:
                fh.write(row.to_csv() + "\n")
                fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return rows


def _sweep_row(config, H, hc, rho, dt):
    """One sweep row.  A dynamics-only row's t_pred is the headline shape; a
    pipeline row's is its report's prediction, and nan where the pipeline
    gave none (a failed schedule or stage), so that its default cap is
    max_steps * dt."""
    flags = "dynamics-only" if config.dynamics_only else "-"
    contraction = math.nan
    error = ""
    if config.dynamics_only:
        t_pred = predicted_stability_time(rho, hc, config.tau).t_theorem
    else:
        t_pred = math.nan
        try:
            omega, _ = split_linear(H, "pipeline")
            report = run_pipeline(H, omega, config.gamma, config.tau, hc, rho)
            if report.gates:  # none for an integrable H
                # dominance, (3 + 2/tau)/ell, is rho-independent; a failing one raises
                ratio, name = max((_gate_ratio(v, b), name) for name, v, b in report.gates
                                  if name != "dominance")
                flags = f"{name}:{ratio!r}"
            error = report.failure or ""
            if report.normal_form is not None:
                contraction = report.normal_form.contraction
            if report.prediction is not None:
                t_pred = report.prediction.t_theorem
        except PipelineStageError as exc:
            error = str(exc)
    t_cap = config.t_cap
    if t_cap is None:
        t_cap = config.max_steps * dt
        if not math.isnan(t_pred):  # min(nan, x) is nan
            t_cap = min(t_pred, t_cap)
    try:
        record = escape_time(
            H,
            rho,
            threshold=config.threshold_factor * rho,
            t_cap=t_cap,
            n_samples=config.n_samples,
            seed=config.seed,
            dt=dt,
        )
        min_escape = record.min_escape
        censored_fraction = record.censored_fraction
        max_drift = record.max_drift_at_cap
    except (ValueError, NumericalFault) as exc:  # recorded, the sweep continues
        min_escape = None
        censored_fraction = math.nan
        max_drift = math.nan
        error = (error + "; " if error else "") + f"dynamics: {exc}"
    return SweepRow(
        rho=float(rho),
        t_pred=t_pred,
        min_escape=min_escape,
        censored_fraction=censored_fraction,
        max_drift=max_drift,
        schedule_flags=flags,
        contraction=contraction,
        t_cap=t_cap,
        error=error,
    )


def read_sweep_csv(path):
    """The rows of a sweep CSV of any schema version, each read by the
    file's own `rho,...` columns line."""
    rows, columns = [], None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("rho,"):
                columns = line.split(",")
            elif columns is None:
                raise ValueError(f"sweep row before the columns line: {line!r}")
            else:
                rows.append(SweepRow.from_csv(line, columns))
    return rows


@dataclass(frozen=True)
class FitReport:
    model: str
    p: float
    c0: float
    residuals: tuple
    n_points: int


def fit_exponent(rhos, times, log_exponent=None):
    """Least-squares fit of log t against -log rho.

    pure-power (no log_exponent):  log t = c0 - p log rho
    power-with-log:                log t = c0 - p log rho - log_exponent * log|log rho|,
    with the log-exponent held fixed (pass ell - 1).
    """
    if log_exponent is not None and not math.isfinite(log_exponent):
        raise ValueError(f"log_exponent must be finite, got {log_exponent!r}")
    rhos = np.asarray(rhos, dtype=float)
    times = np.asarray(times, dtype=float)
    good = np.isfinite(times) & (times > 0)
    rhos, times = rhos[good], times[good]
    if len(rhos) < 4:
        raise PreconditionError(f"only {len(rhos)} usable rows (need >= 4)")
    y = np.log(times)
    if log_exponent is not None:
        y = y + log_exponent * np.log(np.abs(np.log(rhos)))
    x = -np.log(rhos)
    p, c0 = np.polyfit(x, y, 1)
    residuals = y - (c0 + p * x)
    return FitReport(
        model="pure-power" if log_exponent is None else "power-with-log",
        p=float(p),
        c0=float(c0),
        residuals=tuple(float(r) for r in residuals),
        n_points=len(rhos),
    )


def fit_exponent_rows(rows, source="t_pred", log_exponent=None):
    if source not in ("t_pred", "min_escape"):
        raise ValueError(f"unknown fit source {source!r}")
    # a row without an escape has min_escape None, which reads as nan
    times = [getattr(r, source) for r in rows]
    return fit_exponent([r.rho for r in rows], times, log_exponent=log_exponent)


def emit_plots(rows, outdir):
    """Write gnuplot-ready two-column data (log10 rho vs log10 t) plus a stub.

    Rows whose every sample was censored go to a separate series file, at
    the t_cap their samples ran to; a row without a finite t_cap (v1 and v2
    files) or whose integration failed is in neither escape file.
    Returns the list of written paths.
    """
    if not rows:
        raise ValueError("no rows to plot")
    os.makedirs(outdir, exist_ok=True)
    paths = []

    def write(name, pairs):
        path = os.path.join(outdir, name)
        with open(path, "w") as fh:
            fh.write("# log10(rho) log10(t)\n")
            for x, y in pairs:
                fh.write(f"{x!r} {y!r}\n")
        paths.append(path)

    def points(time, among):
        """(log10 rho, log10 t) of the rows whose time is positive and finite."""
        return [
            (math.log10(r.rho), math.log10(t))
            for r in among
            if (t := time(r)) is not None and 0 < t < math.inf
        ]

    write("pred.dat", points(lambda r: r.t_pred, rows))
    write("escape.dat", points(lambda r: r.min_escape, rows))
    # a row whose integration raised has censored_fraction nan: not censored
    censored = [r for r in rows if r.censored_fraction == 1.0]
    write("escape_censored.dat", points(lambda r: r.t_cap, censored))
    stub = os.path.join(outdir, "plot.gp")
    with open(stub, "w") as fh:
        fh.write(
            "set xlabel 'log10 rho'\nset ylabel 'log10 t'\n"
            "plot 'pred.dat' with linespoints title 'predicted', \\\n"
            "     'escape.dat' with points title 'escape', \\\n"
            "     'escape_censored.dat' with points title 'censored'\n"
        )
    paths.append(stub)
    return paths
