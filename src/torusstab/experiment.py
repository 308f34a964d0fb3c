"""Experiment orchestration: test Hamiltonians, rho sweeps, exponent fits,
and plot-data emission.

Config files are flat `key = value` text with `#` comments and
comma-separated lists.  CSV output carries a versioned schema header and is
byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import default_dt, escape_time
from .errors import InsufficientDataError, PipelineStageError
from .freqlib import Frequency, golden_frequency
from .ftseries import FourierTaylorSeries
from .smoothing import HolderClass, lacunary_series
from .stabpipe import (
    BoundConstants,
    RHO_MAX,
    predicted_stability_time,
    diffusion_time_reference,
    run_pipeline,
)

CSV_HEADER = "# torusstab sweep schema v1"
CSV_COLUMNS = (
    "rho,t_pred,t_diff_ref,min_escape,censored_fraction,max_drift,schedule_flags,contraction"
)


@dataclass(frozen=True)
class ExperimentConfig:
    d: int = 2
    ell: float = 6.5
    tau: float = 1.0
    gamma: float = 0.5
    omega: tuple | None = None  # None -> golden frequency for d=2
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
    epsilon: float = 0.1
    T0: float = 1.0
    constants: BoundConstants = field(default_factory=BoundConstants)

    def __post_init__(self):
        rhos = tuple(float(r) for r in self.rho_list)
        if any(b >= a for a, b in zip(rhos, rhos[1:])):
            raise ValueError("rho_list must be strictly decreasing")
        if not self.dynamics_only and any(r >= RHO_MAX for r in rhos):
            raise ValueError(
                f"pipeline runs require every rho < e^-6 = {RHO_MAX:.4e}; "
                "set dynamics_only for larger radii"
            )
        object.__setattr__(self, "rho_list", rhos)

    @property
    def xi(self):
        return self.constants.xi

    @property
    def holder(self):
        return HolderClass(self.ell, self.d)

    @property
    def frequency(self):
        if self.omega is not None:
            return Frequency(self.omega)
        return golden_frequency(self.d)


_CONFIG_FLOATS = {"ell", "tau", "gamma", "amplitude", "threshold_factor", "epsilon", "T0"}
_CONFIG_INTS = {"d", "j_max", "seed", "max_steps", "n_samples"}
_CONFIG_OPT_FLOATS = {"dt", "t_cap"}
_CONFIG_CONSTANTS = {f.name for f in fields(BoundConstants)}


def _key_values(text):
    """(key, value) pairs of flat `key = value` text with `#` comments."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield key, value


def parse_config(text):
    """Parse flat `key = value` config text into an ExperimentConfig."""
    kwargs = {}
    constants = {}
    for key, value in _key_values(text):
        if key in _CONFIG_FLOATS:
            kwargs[key] = float(value)
        elif key in _CONFIG_INTS:
            kwargs[key] = int(value)
        elif key in _CONFIG_OPT_FLOATS:
            kwargs[key] = None if value.lower() == "none" else float(value)
        elif key == "rho_list":
            kwargs[key] = tuple(float(v) for v in value.split(","))
        elif key == "omega":
            kwargs[key] = tuple(float(v) for v in value.split(","))
        elif key == "dynamics_only":
            kwargs[key] = value.lower() in ("1", "true", "yes")
        elif key in _CONFIG_CONSTANTS:
            constants[key] = float(value)
        else:
            raise ValueError(f"unknown config key: {key}")
    kwargs["constants"] = BoundConstants(**constants)
    return ExperimentConfig(**kwargs)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def load_constants(path):
    """Flat key=value file of C-constants."""
    values = {}
    with open(path) as fh:
        for key, value in _key_values(fh.read()):
            if key not in _CONFIG_CONSTANTS:
                raise ValueError(f"unknown constants key: {key}")
            values[key] = float(value)
    return BoundConstants(**values)


def build_test_hamiltonian(hc, seed=0, amplitude=1e-12, d=2, j_max=8, modes_per_shell=2):
    """H = omega.I + sum_{2 <= |m|_1 <= q-2} a_m(theta) I^m with lacunary a_m.

    omega is the golden frequency; each coefficient a_m is a lacunary series
    with |a^_k| = amplitude 2^{-j ell} at |k|_1 = 2^j and phases drawn from a
    per-monomial derived seed, so the whole series lies in C^ell by
    construction and is byte-reproducible.
    """
    if d != 2:
        raise ValueError("test Hamiltonians are defined for d=2")
    omega = golden_frequency(d)
    H = FourierTaylorSeries.linear(omega)
    monomials = sorted(
        tuple(m)
        for m in _compositions(d, 2, hc.q - 2)
    )
    for idx, m in enumerate(monomials):
        a_m = lacunary_series(
            d,
            hc.ell,
            j_max=j_max,
            seed=[seed, idx],
            amplitude=amplitude,
            modes_per_shell=modes_per_shell,
        )
        H = H + FourierTaylorSeries(
            d, {(k, m): c for (k, _), c in a_m.items()}
        )
    return H


def _compositions(d, lo, hi):
    """All m in N^d with lo <= |m|_1 <= hi."""
    out = []

    def rec(prefix, remaining_axes, total):
        if remaining_axes == 1:
            for v in range(0, hi - total + 1):
                m = prefix + (v,)
                if lo <= total + v <= hi:
                    out.append(m)
            return
        for v in range(0, hi - total + 1):
            rec(prefix + (v,), remaining_axes - 1, total + v)

    rec((), d, 0)
    return out


@dataclass(frozen=True)
class SweepRow:
    rho: float
    t_pred: float
    t_diff_ref: float
    min_escape: float | None
    censored_fraction: float
    max_drift: float
    schedule_flags: str
    contraction: float
    error: str = ""

    def to_csv(self):
        def num(v):
            return "nan" if v is None else repr(float(v))

        return ",".join(
            [
                repr(self.rho),
                num(self.t_pred),
                num(self.t_diff_ref),
                num(self.min_escape),
                num(self.censored_fraction),
                num(self.max_drift),
                self.schedule_flags or "-",
                num(self.contraction),
            ]
        )

    @classmethod
    def from_csv(cls, line):
        parts = line.strip().split(",")
        if len(parts) != 8:
            raise ValueError(f"malformed sweep row: {line!r}")
        def num(sv):
            v = float(sv)
            return v

        min_escape = float(parts[3])
        return cls(
            rho=float(parts[0]),
            t_pred=num(parts[1]),
            t_diff_ref=num(parts[2]),
            min_escape=None if math.isnan(min_escape) else min_escape,
            censored_fraction=num(parts[4]),
            max_drift=num(parts[5]),
            schedule_flags=parts[6],
            contraction=num(parts[7]),
        )


def sweep(config, csv_path=None):
    """Run the pipeline/dynamics sweep over config.rho_list.

    Rows are written incrementally when csv_path is given, so partial runs
    remain usable; per-row failures are recorded in the row and the sweep
    continues.
    """
    hc = config.holder
    omega = config.frequency
    H = build_test_hamiltonian(
        hc, seed=config.seed, amplitude=config.amplitude, d=config.d, j_max=config.j_max
    )
    dt = config.dt if config.dt is not None else default_dt(H)
    rows = []
    fh = None
    if csv_path is not None:
        fh = open(csv_path, "w")
        fh.write(CSV_HEADER + "\n" + CSV_COLUMNS + "\n")
        fh.flush()
    try:
        for rho in config.rho_list:
            row = _sweep_row(config, H, omega, hc, rho, dt)
            rows.append(row)
            if fh is not None:
                fh.write(row.to_csv() + "\n")
                fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return rows


def _sweep_row(config, H, omega, hc, rho, dt):
    consts = config.constants
    pred = predicted_stability_time(rho, hc, config.tau, consts)
    t_pred = pred.t_theorem
    t_diff = diffusion_time_reference(rho, hc, config.tau, config.epsilon, config.T0)
    flags = "dynamics-only"
    contraction = math.nan
    error = ""
    if not config.dynamics_only:
        try:
            report = run_pipeline(H, omega, config.gamma, config.tau, hc, rho, consts)
            flags = ";".join(
                f"{name}:{int(ok)}" for name, ok in sorted(report.schedule.flags.items())
            )
            if report.failure:
                error = report.failure
            elif report.normal_form is not None:
                contraction = report.normal_form.contraction
            if report.prediction is not None:
                t_pred = report.prediction.t_theorem
        except PipelineStageError as exc:
            error = str(exc)
    t_cap = config.t_cap
    if t_cap is None:
        t_cap = min(t_pred, config.max_steps * dt)
    if not math.isfinite(t_cap):
        t_cap = config.max_steps * dt
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
    except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
        min_escape = None
        censored_fraction = math.nan
        max_drift = math.nan
        error = (error + "; " if error else "") + f"dynamics: {exc}"
    return SweepRow(
        rho=float(rho),
        t_pred=t_pred,
        t_diff_ref=t_diff,
        min_escape=min_escape,
        censored_fraction=censored_fraction,
        max_drift=max_drift,
        schedule_flags=flags,
        contraction=contraction,
        error=error,
    )


def read_sweep_csv(path):
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("rho,"):
                continue
            rows.append(SweepRow.from_csv(line))
    return rows


@dataclass(frozen=True)
class FitReport:
    model: str
    p: float
    c0: float
    residuals: tuple
    n_points: int


def fit_exponent(rhos, times, model="pure-power", log_exponent=None):
    """Least-squares fit of log t against -log rho.

    pure-power:      log t = c0 - p log rho
    power-with-log:  log t = c0 - p log rho - log_exponent * log|log rho|,
    with the log-exponent held fixed (pass ell - 1).
    """
    rhos = np.asarray(rhos, dtype=float)
    times = np.asarray(times, dtype=float)
    good = np.isfinite(times) & (times > 0)
    rhos, times = rhos[good], times[good]
    if len(rhos) < 4:
        raise InsufficientDataError(f"only {len(rhos)} usable rows (need >= 4)")
    y = np.log(times)
    if model == "power-with-log":
        if log_exponent is None:
            raise ValueError("power-with-log model needs log_exponent (= ell - 1)")
        y = y + log_exponent * np.log(np.abs(np.log(rhos)))
    elif model != "pure-power":
        raise ValueError(f"unknown fit model {model!r}")
    x = -np.log(rhos)
    p, c0 = np.polyfit(x, y, 1)
    residuals = y - (c0 + p * x)
    return FitReport(
        model=model,
        p=float(p),
        c0=float(c0),
        residuals=tuple(float(r) for r in residuals),
        n_points=len(rhos),
    )


def fit_exponent_rows(rows, model="pure-power", source="t_pred", log_exponent=None):
    rhos = [r.rho for r in rows]
    if source == "t_pred":
        times = [r.t_pred for r in rows]
    elif source == "min_escape":
        times = [r.min_escape if r.min_escape is not None else math.nan for r in rows]
    else:
        raise ValueError(f"unknown fit source {source!r}")
    return fit_exponent(rhos, times, model=model, log_exponent=log_exponent)


def emit_plots(rows, outdir):
    """Write gnuplot-ready two-column data (log10 rho vs log10 t) plus a stub.

    Censored escape points go to a separate series file.  Returns the list of
    written paths.
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

    write(
        "pred.dat",
        [
            (math.log10(r.rho), math.log10(r.t_pred))
            for r in rows
            if math.isfinite(r.t_pred) and r.t_pred > 0
        ],
    )
    write(
        "escape.dat",
        [
            (math.log10(r.rho), math.log10(r.min_escape))
            for r in rows
            if r.min_escape is not None and r.min_escape > 0
        ],
    )
    write(
        "escape_censored.dat",
        [
            (math.log10(r.rho), math.log10(r.t_pred) if r.t_pred > 0 and math.isfinite(r.t_pred) else 0.0)
            for r in rows
            if r.min_escape is None
        ],
    )
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
