"""Long-time symplectic integration and Monte-Carlo escape measurement.

The integrator splits H = omega.I + c_0 + f (ftseries.split_linear; Strang,
as in Wisdom-Holman): a step is an exact half rotation theta += omega h/2,
one implicit-midpoint step on the field of f alone (a fixed-point
iteration), and another half rotation.  It is symplectic, symmetric and
second order for general non-separable f, and exact when f = 0.  On a small
f the fixed point is reached in one sweep, since the rotation no longer
moves the iterate.

A batch's state is one (N, 2d) array z = [theta | I] from start to end of a
step: a half rotation adds the shift [omega h/2 | 0], built when the step
size changes, and a sweep is one call field(z) -> [theta_dot | I_dot].
`integrate`'s step loop only steps and records (t, z).  The energy (f +
omega.I, without the offset c_0) never feeds back into a step, so
Trajectory.energy is evaluated after the run, at theta mod 1, in one call
field.energy(z); the field bounds its own batches.

The sweep and the checks step one H at several radii with one seed, so the
last H's split field and the last seed's unit draws are kept between calls.

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

from .errors import NumericalFault, require_at_least, require_positive
from .ftseries import HamiltonianVectorField, keep_last, split_linear, theta_gradient_majorant

FIXED_POINT_TOL = 1e-13
MAX_SWEEPS = 50
MAX_RECORDED_SAMPLES = 100_000
# steps between energy-drift checks of an escape run
ENERGY_CHECK_EVERY = 1000


def default_dt(H):
    """min(0.01, 0.01/||omega||_inf), omega of the kept split: resolves the fast angle."""
    wmax = float(np.max(np.abs(_split(H)[0])))
    return 0.01 if wmax == 0.0 else min(0.01, 0.01 / wmax)


def ballistic_bound(H, threshold, radius):
    """Elementary lower bound on the time to drift by `threshold`:
    threshold / sup||I_dot||, the sup taken on the tube of `radius`."""
    sup = theta_gradient_majorant(H, radius)
    return math.inf if sup == 0.0 else threshold / sup


def _midpoint_step(field, z, dt):
    """One implicit-midpoint step on a batch of z = [theta | I]; returns the new z.
    The increment u = (dt/2) field(z + u) is iterated from u = 0 until it moves
    by at most FIXED_POINT_TOL, and the step returns z + 2u.  The test is on u,
    not on the iterate z + u, whose theta rounds coarser than the tolerance
    once |theta| >= 512 and could straddle a rounding boundary for ever.
    An increment that is not finite raises NumericalFault at once."""
    w, u = z, 0.0
    for sweep in range(1, MAX_SWEEPS + 1):
        v = field(w)
        v *= 0.5 * dt
        delta = np.abs(v - u).max()
        u = v
        if delta <= FIXED_POINT_TOL:
            break
        if not math.isfinite(delta):
            raise NumericalFault(
                f"fixed-point iterate {sweep} is not finite: the step diverged"
            )
        w = z + u
    else:
        raise NumericalFault(
            f"fixed-point iteration did not reach {FIXED_POINT_TOL:.1e} in {MAX_SWEEPS} sweeps"
        )
    u *= 2.0
    u += z
    return u


@keep_last
def _split(H):
    """(omega, vector field of f) for split_linear's H = omega.I + c_0 + f.
    The last H object's split is kept."""
    omega, f = split_linear(H, "vector field")
    return omega, HamiltonianVectorField(f)


def _half_rotation(omega, dt):
    """The shift [omega dt/2 | 0] of z = [theta | I] by half a rotation."""
    return np.concatenate([0.5 * dt * omega, np.zeros_like(omega)])


def _split_step(field, half, z, dt):
    """One split step on a batch of z: shift by `half`, midpoint step on f, shift."""
    z = _midpoint_step(field, z + half, dt)
    z += half
    return z


def _energy(field, omega, z):
    """omega.I + f at each row of z = [theta | I]: H without its offset c_0."""
    return field.energy(z) + z[:, len(omega) :] @ omega


def _relative_drift(e, e0):
    """max |e - e0| / max(|e0|, 1), with e0 one value or one per entry of e."""
    return float(np.max(np.abs(e - e0) / np.maximum(np.abs(e0), 1.0)))


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run; theta reduced mod 1."""

    t: np.ndarray
    theta: np.ndarray
    I: np.ndarray
    energy: np.ndarray
    dt: float
    domain_exit: bool

    def relative_energy_drift(self):
        return _relative_drift(self.energy, self.energy[0])


def integrate(H, start, t_end, dt, record_every=None, r_max=None):
    """Split implicit-midpoint integration of a real Hamiltonian series.

    dt may be negative for backward runs.  The final step is shortened to
    land exactly on t_end.  Recording is decimated to at most
    MAX_RECORDED_SAMPLES samples unless record_every is given.
    """
    if dt == 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be nonzero and finite, got {dt!r}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if t_end * dt <= 0:
        raise ValueError("t_end and dt must have the same sign")
    if record_every is not None:
        require_at_least(1, record_every=record_every)
    omega, field = _split(H)
    d = H.d
    z = np.empty((1, 2 * d))
    z[0, :d], z[0, d:] = start
    n_steps = max(1, int(math.ceil(abs(t_end / dt) - 1e-9)))
    if record_every is None:
        record_every = max(1, -(-n_steps // MAX_RECORDED_SAMPLES))
    # the start, every record_every-th step, and a last or exiting step
    rows = n_steps // record_every + 2
    ts = np.empty(rows)
    zs = np.empty((rows, 2 * d))
    ts[0], zs[0] = 0.0, z[0]
    k = 1
    t = 0.0
    step_dt, half = dt, _half_rotation(omega, dt)
    domain_exit = False
    # a diverging step raises NumericalFault, so its overflow need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            if n == n_steps:  # a last step that lands exactly on t_end
                step_dt, half = t_end - t, _half_rotation(omega, t_end - t)
            z = _split_step(field, half, z, step_dt)
            t += step_dt
            if r_max is not None and np.max(np.abs(z[0, d:])) > r_max:
                domain_exit = True
            if n % record_every == 0 or n == n_steps or domain_exit:
                ts[k], zs[k] = t, z[0]
                k += 1
            if domain_exit:
                break
    zs = zs[:k]
    zs[:, :d] %= 1.0
    return Trajectory(
        t=ts[:k],
        theta=zs[:, :d],
        I=zs[:, d:],
        energy=_energy(field, omega, zs),
        dt=float(dt),
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

    @property
    def min_escape(self):
        uncensored = self.escape_times[~self.censored]
        return float(np.min(uncensored)) if len(uncensored) else None

    @property
    def censored_fraction(self):
        return float(np.mean(self.censored))


@keep_last
def _unit_draws(d, n_samples, seed):
    """Read-only (n_samples, 2d) rows of default_rng([seed, i]).random(2d)."""
    u = np.empty((n_samples, 2 * d))
    for i in range(n_samples):
        u[i] = np.random.default_rng([seed, i]).random(2 * d)
    u.flags.writeable = False
    return u


def sample_initial_conditions(d, rho, n_samples, seed):
    """Uniform product samples on T^d x B_rho (sup-norm ball), one derived
    RNG stream per sample index; the seed must be >= 0.  The last (d,
    n_samples, seed)'s unit draws u are kept; I = -rho + 2 rho u[d:] is
    numpy's uniform(-rho, rho) bit for bit, and the arrays are fresh."""
    require_positive(rho=rho, diameter=2 * float(rho))  # the width of B_rho
    require_at_least(1, dimension=d)
    require_at_least(0, n_samples=n_samples, seed=seed)
    u = _unit_draws(d, n_samples, seed)
    return u[:, :d].copy(), -rho + (2 * rho) * u[:, d:]


def escape_time(H, rho, threshold, t_cap, n_samples, seed, dt=None):
    """Monte-Carlo lower estimate of the escape time from drift `threshold`.

    Integrates the batch synchronously, freezing each sample at its first
    crossing; censored samples carry t_cap.  Every uncensored time must pass
    the ballistic a-priori bound (sup of ||I_dot|| on the reachable tube of
    radius rho + threshold), otherwise an integration fault is raised.
    """
    require_positive(rho=rho, threshold=threshold, t_cap=t_cap)
    require_at_least(1, n_samples=n_samples)
    if dt is None:
        dt = default_dt(H)
    require_positive(dt=dt)
    omega, field = _split(H)
    d = H.d
    theta, I0 = sample_initial_conditions(d, rho, n_samples, seed)
    z = np.hstack([theta, I0])
    active = np.arange(n_samples)
    escape_times = np.full(n_samples, float(t_cap))
    censored = np.ones(n_samples, dtype=bool)
    max_drift = np.zeros((n_samples, d))  # per sample and action axis
    e0 = _energy(field, omega, z)
    max_energy_drift = 0.0
    n_steps = max(1, int(math.ceil(t_cap / dt - 1e-9)))
    t = 0.0
    step_dt, half = dt, _half_rotation(omega, dt)
    # a diverging step raises NumericalFault, so its overflow need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            if n == n_steps:  # a last step that lands exactly on t_cap
                step_dt, half = t_cap - t, _half_rotation(omega, t_cap - t)
            z = _split_step(field, half, z, step_dt)
            t += step_dt
            dev = np.abs(z[:, d:] - I0)
            np.maximum(max_drift, dev, out=max_drift)
            if dev.max() >= threshold:
                hit = dev.max(axis=1) >= threshold
                escaped = active[hit]
                escape_times[escaped] = t
                censored[escaped] = False
                active, z, I0, max_drift, e0 = (a[~hit] for a in (active, z, I0, max_drift, e0))
                if len(active) == 0:
                    break
            if n % ENERGY_CHECK_EVERY == 0 or n == n_steps:
                e = _energy(field, omega, z)
                max_energy_drift = max(max_energy_drift, _relative_drift(e, e0))
    bound = ballistic_bound(H.fourier_nonzero_part(), threshold, rho * (1.0 + threshold / rho))
    bad = (~censored) & (escape_times < bound * (1.0 - 1e-12))
    if bad.any():
        idx = int(np.argmax(bad))
        raise NumericalFault(
            f"sample {idx} escaped at t={escape_times[idx]:.6e}, faster than the "
            f"ballistic bound {bound:.6e}"
        )
    # the samples still active are the censored ones
    max_drift_at_cap = float(np.max(max_drift, initial=0.0))
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
    )
