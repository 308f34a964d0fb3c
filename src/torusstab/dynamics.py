"""Long-time symplectic integration and Monte-Carlo escape measurement.

The integrator splits H = omega.I + f (Strang, as in Wisdom-Holman): a
step is an exact half rotation theta += omega h/2, one implicit-midpoint
step on the field of f alone (a fixed-point iteration), and another half
rotation.  It is symplectic, symmetric and second order for general
non-separable f, and exact when f = 0.  On a small f the fixed point is
reached in one sweep, since the rotation no longer moves the iterate.

Escape measurement samples initial conditions from a seeded, counter-based
RNG; aggregation uses only order-independent reductions, so results do not
depend on scheduling.  Runs with the same inputs, batch size and BLAS build
give the same bits; a row's last bits may differ between batch sizes (the
matrix products round a row differently in a batch of another shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault, RealityViolationError, StepFailureError
from .ftseries import HamiltonianVectorField, theta_gradient_majorant

METHOD = "split-midpoint"

FIXED_POINT_TOL = 1e-13
MAX_SWEEPS = 50
MAX_RECORDED_SAMPLES = 100_000
# steps between energy-drift checks of an escape run
ENERGY_CHECK_EVERY = 1000


def linear_frequency(H):
    """The frequency vector of the k=0, |m|=1 part of H."""
    w = np.zeros(H.d)
    rows = ~H.K.any(axis=1) & (H.M.sum(axis=1) == 1)
    w[H.M[rows].argmax(axis=1)] = H.C[rows].real
    return w


def default_dt(H):
    """min(0.01, 0.01/||omega||_inf): resolves the fast angle."""
    wmax = float(np.max(np.abs(linear_frequency(H)))) if len(H) else 0.0
    return 0.01 if wmax == 0.0 else min(0.01, 0.01 / wmax)


def ballistic_bound(H, threshold, radius):
    """Elementary lower bound on the time to drift by `threshold`:
    threshold / sup||I_dot||, the sup taken on the tube of `radius`."""
    sup = theta_gradient_majorant(H, radius)
    return math.inf if sup == 0.0 else threshold / sup


def _midpoint_step(field, theta, I, dt, tol=FIXED_POINT_TOL, max_sweeps=MAX_SWEEPS):
    """One implicit-midpoint step on a batch; returns the new (theta, I)."""
    wt = theta
    wI = I
    for _ in range(max_sweeps):
        td, Id = field(wt, wI)
        nt = theta + 0.5 * dt * td
        nI = I + 0.5 * dt * Id
        delta = max(np.max(np.abs(nt - wt)), np.max(np.abs(nI - wI)))
        wt, wI = nt, nI
        if delta <= tol:
            break
    else:
        raise StepFailureError(
            f"fixed-point iteration did not reach {tol:.1e} in {max_sweeps} sweeps"
        )
    return 2.0 * wt - theta, 2.0 * wI - I


def _split(H):
    """(omega, vector field of f) for a real H = omega.I + f, where omega.I
    is the k=0, |m|_1=1 part of H."""
    if not H.is_real(tol=1e-9):
        raise RealityViolationError("vector field requires a real-valued series")
    f = H.select(lambda nk, nm, c: (nk > 0) | (nm != 1))
    return linear_frequency(H), HamiltonianVectorField(f, check_real=False)


def _split_step(field, omega, theta, I, dt):
    """One split step on a batch: half rotation, midpoint step on f, half rotation."""
    half = 0.5 * dt * omega
    theta, I = _midpoint_step(field, theta + half, I, dt)
    return theta + half, I


def _energy(field, omega, theta, I):
    """H = f + omega.I per point."""
    return field.energy(theta, I) + I @ omega


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run; theta reduced mod 1."""

    t: np.ndarray
    theta: np.ndarray
    I: np.ndarray
    energy: np.ndarray
    dt: float
    method: str
    domain_exit: bool

    def relative_energy_drift(self):
        e0 = self.energy[0]
        return float(np.max(np.abs(self.energy - e0)) / max(abs(e0), 1.0))

    def action_drift(self):
        """sup over samples of ||I(t) - I(0)||_inf."""
        return float(np.max(np.abs(self.I - self.I[0]), initial=0.0))


def integrate(H, start, t_end, dt, record_every=None, r_max=None):
    """Split implicit-midpoint integration of a real Hamiltonian series.

    dt may be negative for backward runs.  The final step is shortened to
    land exactly on t_end.  Recording is decimated to at most
    MAX_RECORDED_SAMPLES samples unless record_every is given.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if t_end * dt <= 0:
        raise ValueError("t_end and dt must have the same sign")
    omega, field = _split(H)
    theta0, I0 = start
    theta = np.asarray(theta0, dtype=float).reshape(1, -1).copy()
    I = np.asarray(I0, dtype=float).reshape(1, -1).copy()
    n_steps = max(1, int(math.ceil(abs(t_end / dt) - 1e-9)))
    if record_every is None:
        record_every = max(1, -(-n_steps // MAX_RECORDED_SAMPLES))
    ts = [0.0]
    thetas = [theta[0] % 1.0]
    Is = [I[0].copy()]
    energies = [float(_energy(field, omega, theta, I)[0])]
    t = 0.0
    domain_exit = False
    for n in range(1, n_steps + 1):
        step_dt = dt if n < n_steps else t_end - t
        theta, I = _split_step(field, omega, theta, I, step_dt)
        t += step_dt
        if r_max is not None and np.max(np.abs(I)) > r_max:
            domain_exit = True
        if n % record_every == 0 or n == n_steps or domain_exit:
            ts.append(t)
            thetas.append(theta[0] % 1.0)
            Is.append(I[0].copy())
            energies.append(float(_energy(field, omega, theta, I)[0]))
        if domain_exit:
            break
    return Trajectory(
        t=np.array(ts),
        theta=np.array(thetas),
        I=np.array(Is),
        energy=np.array(energies),
        dt=float(dt),
        method=METHOD,
        domain_exit=domain_exit,
    )


@dataclass(frozen=True)
class EscapeRecord:
    """Per-rho Monte-Carlo escape-time measurements with censoring flags."""

    rho: float
    threshold: float
    n_samples: int
    escape_times: np.ndarray
    censored: np.ndarray
    t_cap: float
    max_drift_at_cap: float
    max_energy_drift: float
    seed: int
    dt: float
    method: str

    @property
    def min_escape(self):
        uncensored = self.escape_times[~self.censored]
        return float(np.min(uncensored)) if len(uncensored) else None

    @property
    def censored_fraction(self):
        return float(np.mean(self.censored))


def sample_initial_conditions(d, rho, n_samples, seed):
    """Uniform product samples on T^d x B_rho (sup-norm ball), one derived
    RNG stream per sample index."""
    thetas = np.empty((n_samples, d))
    Is = np.empty((n_samples, d))
    for i in range(n_samples):
        rng = np.random.default_rng([seed, i])
        thetas[i] = rng.random(d)
        Is[i] = rng.uniform(-rho, rho, d)
    return thetas, Is


def escape_time(H, rho, threshold, t_cap, n_samples, seed, dt=None):
    """Monte-Carlo lower estimate of the escape time from drift `threshold`.

    Integrates the batch synchronously, freezing each sample at its first
    crossing; censored samples carry t_cap.  Every uncensored time must pass
    the ballistic a-priori bound (sup of ||I_dot|| on the reachable tube of
    radius rho + threshold), otherwise an integration fault is raised.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if t_cap <= 0:
        raise ValueError("t_cap must be positive")
    if dt is None:
        dt = default_dt(H)
    omega, field = _split(H)
    d = H.d
    theta0, I0 = sample_initial_conditions(d, rho, n_samples, seed)
    theta = theta0.copy()
    I = I0.copy()
    active = np.arange(n_samples)
    escape_times = np.full(n_samples, float(t_cap))
    censored = np.ones(n_samples, dtype=bool)
    max_drift = np.zeros(n_samples)
    e0 = _energy(field, omega, theta0, I0)
    max_energy_drift = 0.0
    n_steps = max(1, int(math.ceil(t_cap / dt - 1e-9)))
    t = 0.0
    for n in range(1, n_steps + 1):
        step_dt = dt if n < n_steps else t_cap - t
        theta, I = _split_step(field, omega, theta, I, step_dt)
        t += step_dt
        drift = np.max(np.abs(I - I0[active]), axis=1)
        max_drift[active] = np.maximum(max_drift[active], drift)
        hit = drift >= threshold
        if hit.any():
            escaped = active[hit]
            escape_times[escaped] = t
            censored[escaped] = False
            keep = ~hit
            active = active[keep]
            theta = theta[keep]
            I = I[keep]
            if len(active) == 0:
                break
        if n % ENERGY_CHECK_EVERY == 0 or n == n_steps:
            e = _energy(field, omega, theta, I)
            if len(e):
                rel = np.max(np.abs(e - e0[active]) / np.maximum(np.abs(e0[active]), 1.0))
                max_energy_drift = max(max_energy_drift, float(rel))
    bound = ballistic_bound(H.fourier_nonzero_part(), threshold, rho * (1.0 + threshold / rho))
    bad = (~censored) & (escape_times < bound * (1.0 - 1e-12))
    if bad.any():
        idx = int(np.argmax(bad))
        raise NumericalFault(
            f"sample {idx} escaped at t={escape_times[idx]:.6e}, faster than the "
            f"ballistic bound {bound:.6e}"
        )
    max_drift_at_cap = float(np.max(max_drift[censored], initial=0.0))
    return EscapeRecord(
        rho=float(rho),
        threshold=float(threshold),
        n_samples=int(n_samples),
        escape_times=escape_times,
        censored=censored,
        t_cap=float(t_cap),
        max_drift_at_cap=max_drift_at_cap,
        max_energy_drift=max_energy_drift,
        seed=int(seed),
        dt=float(dt),
        method=METHOD,
    )
