"""The benchmark's three workloads and their output checks.

Every workload runs on the same built-in test Hamiltonian,
`build_test_hamiltonian(HolderClass(6.5, 2), HAMILTONIAN_SEED,
amplitude=1e-12, j_max=8)`.  The benchmark seed draws the escape samples and
the orbit's starting point.  The Hamiltonian seed is fixed because the
`pipeline-ladder` point rho=3e-4 fails to certify on only some Hamiltonian
seeds (5 of seeds 0..19), where it runs the full 2K = 986 normal-form
iterations (63-87 s) instead of one (0.2 s); a seeded Hamiltonian would make
that workload's time bimodal.  Seed 1 (404 terms, 63 s) was the cheapest of
the failing seeds timed (0, 7 and 13 took 75-87 s), which keeps a traced run
of the ladder within its time limit.

Calls leave every optional argument of the package at its default, so that a
change of default (dt, nf_rel_chop, the stop rule) shows in the numbers.

An operation is one rho, or the orbit.  It fails when a gate is missed, when
the pipeline does not certify, or when it raises; failures are counted, not
fatal.  Violations of the output checks (a certified point above its target
contraction, samples outside their ball) make the run incorrect instead.

Two of the checks cannot trip at this commit, and are kept so that they do
if the package changes: `integrate` is called without `r_max`, so
`domain_exit` stays false, and `resonant_normal_form` only certifies when the
contraction is at most its target.  The orbit's real guard is its action
drift, gated at rho/2 like an escape.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from torusstab import dynamics, experiment, freqlib, smoothing, stabpipe

HAMILTONIAN_SEED = 1
ELL = 6.5
D = 2
ENERGY_DRIFT_GATE = 1e-8

ESCAPE_RHOS = (0.1, 0.05, 0.025)
ESCAPE_T_CAP = 0.5
ESCAPE_SAMPLES = 50

ORBIT_RHO = 0.1
ORBIT_T_END = 2.0

LADDER_RHOS = (1e-3, 5e-4, 3e-4)
GAMMA = 0.5
TAU = 1.0


def rho_label(rho):
    return f"rho{rho:g}"


@dataclass
class OpResult:
    """Outcome of one operation: what failed, its exact outputs and counts."""

    label: str
    failure: str | None = None
    fingerprint: str = ""
    counts: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    check_errors: list = field(default_factory=list)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _steps(t, dt):
    """Steps taken to reach time t, the last one shortened to land on it."""
    return int(math.ceil(t / dt - 1e-9))


def build_hamiltonian():
    hc = smoothing.HolderClass(ELL, D)
    return experiment.build_test_hamiltonian(hc, HAMILTONIAN_SEED, amplitude=1e-12, j_max=8)


class EscapeQuiet:
    """Monte-Carlo escape runs with no escapes: the slow no-escape check, scaled down."""

    name = "escape-quiet"

    def __init__(self, rhos=ESCAPE_RHOS, t_cap=ESCAPE_T_CAP, n_samples=ESCAPE_SAMPLES):
        self.rhos = tuple(rhos)
        self.t_cap = t_cap
        self.n_samples = n_samples

    def setup(self, seed):
        H = build_hamiltonian()
        samples = {
            rho: dynamics.sample_initial_conditions(D, rho, self.n_samples, seed)
            for rho in self.rhos
        }
        return {"H": H, "seed": seed, "samples": samples}

    def operations(self, inputs):
        for rho in self.rhos:
            yield rho_label(rho), lambda rho=rho: self._run(inputs, rho)

    def _run(self, inputs, rho):
        threshold = rho / 2.0
        rec = dynamics.escape_time(
            inputs["H"],
            rho,
            threshold=threshold,
            t_cap=self.t_cap,
            n_samples=self.n_samples,
            seed=inputs["seed"],
        )
        res = OpResult(rho_label(rho))
        escaped = int(np.count_nonzero(~rec.censored))
        steps_each = [_steps(t, rec.dt) for t in rec.escape_times]
        res.counts = {"steps": max(steps_each), "sample_steps": sum(steps_each)}
        res.values = {
            "energy_drift": rec.max_energy_drift,
            "drift_to_threshold": rec.max_drift_at_cap / threshold,
            "sample_time": float(np.sum(rec.escape_times)),
        }
        res.fingerprint = _digest(
            rec.escape_times, rec.censored, rec.max_drift_at_cap, rec.max_energy_drift, rec.dt
        )
        if escaped:
            res.failure = f"{escaped} of {self.n_samples} samples escaped"
        elif rec.max_energy_drift > ENERGY_DRIFT_GATE:
            res.failure = f"energy drift {rec.max_energy_drift:.3e} > {ENERGY_DRIFT_GATE:g}"
        theta0, I0 = inputs["samples"][rho]
        if not (np.all((theta0 >= 0) & (theta0 < 1)) and np.all(np.abs(I0) <= rho)):
            res.check_errors.append(f"{res.label}: initial samples outside T^d x B_rho")
        return res


class Orbit:
    """One single-row trajectory recorded at every step."""

    name = "orbit"

    def __init__(self, t_end=ORBIT_T_END):
        self.t_end = t_end

    def setup(self, seed):
        H = build_hamiltonian()
        thetas, Is = dynamics.sample_initial_conditions(D, ORBIT_RHO, 1, seed)
        return {"H": H, "start": (thetas[0], Is[0])}

    def operations(self, inputs):
        yield "orbit", lambda: self._run(inputs)

    def _run(self, inputs):
        H = inputs["H"]
        traj = dynamics.integrate(
            H, inputs["start"], t_end=self.t_end, dt=dynamics.default_dt(H), record_every=1
        )
        res = OpResult("orbit")
        steps = len(traj.t) - 1
        res.counts = {"steps": steps, "sample_steps": steps}
        drift = traj.relative_energy_drift()
        action_drift = float(np.max(np.abs(traj.I - traj.I[0])))
        res.values = {
            "energy_drift": drift,
            "drift_to_threshold": action_drift / (ORBIT_RHO / 2.0),
            "sample_time": float(traj.t[-1]),
        }
        res.fingerprint = _digest(traj.t, traj.theta, traj.I, traj.energy, traj.dt)
        if traj.domain_exit:
            res.failure = "orbit left the action domain"
        elif action_drift > ORBIT_RHO / 2.0:
            res.failure = f"action drift {action_drift:.3e} > rho/2 = {ORBIT_RHO / 2.0:g}"
        elif drift > ENERGY_DRIFT_GATE:
            res.failure = f"energy drift {drift:.3e} > {ENERGY_DRIFT_GATE:g}"
        if steps != _steps(self.t_end, traj.dt):
            res.check_errors.append(f"orbit recorded {steps} steps, expected every step")
        return res


class PipelineLadder:
    """run_pipeline down a ladder of radii, ending below the chop floor."""

    name = "pipeline-ladder"

    def __init__(self, rhos=LADDER_RHOS):
        self.rhos = tuple(rhos)

    def setup(self, seed):
        return {"H": build_hamiltonian(), "omega": freqlib.golden_frequency(D)}

    def operations(self, inputs):
        for rho in self.rhos:
            yield rho_label(rho), lambda rho=rho: self._run(inputs, rho)

    def _run(self, inputs, rho):
        hc = smoothing.HolderClass(ELL, D)
        report = stabpipe.run_pipeline(inputs["H"], inputs["omega"], GAMMA, TAU, hc, rho)
        res = OpResult(rho_label(rho))
        nf = report.normal_form
        res.counts = {"K": report.schedule.K}
        res.values = {"certified": int(report.certified)}
        if nf is not None:
            res.counts["iterations"] = nf.iterations
            res.values["terms_final"] = len(nf.h) + len(nf.f_star)
            res.values["contraction_over_target"] = nf.contraction / nf.target_contraction
            if nf.certified and nf.contraction > nf.target_contraction:
                res.check_errors.append(
                    f"{res.label}: certified with contraction {nf.contraction:.3e} > "
                    f"target {nf.target_contraction:.3e}"
                )
        res.fingerprint = _digest(report.to_text(), res.counts)
        if not report.certified:
            res.failure = report.failure or (
                f"not certified after {nf.iterations} iterations "
                f"(contraction {nf.contraction:.3e} > target {nf.target_contraction:.3e})"
            )
        return res


WORKLOADS = {w.name: w for w in (EscapeQuiet, Orbit, PipelineLadder)}
