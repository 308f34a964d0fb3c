"""Constructive resonant normal forms via Lie series.

The certificate targets: remainder contraction e^{-K sigma/6} between the
(sigma, rho) and (sigma/6, rho/2) domains, and identity-closeness ratios
1/(32 xi) and 1/(24 xi) for the action and angle shifts of the change of
variables.  For a Diophantine
frequency every mode 0 < |k|_1 <= K is non-resonant, so the normal form is
a pure average: the integrable part only gains k=0 terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    DomainEscapeError,
    LieDivergenceError,
    MeanNotRemovedError,
    SmallDivisorError,
    SmallnessViolationError,
)
from .ftseries import TWO_PI, AnalyticityWidths, FourierTaylorSeries

DIVISOR_FLOOR = 1e-12
# bracket growth between consecutive Lie-series orders taken as divergence
DIVERGENCE_FACTOR = 1e3


@dataclass(frozen=True)
class NormalFormParams:
    """Non-resonance threshold alpha, cutoff K, widths, xi > 1, Hessian bound M."""

    alpha: float
    K: int
    widths: AnalyticityWidths
    xi: float = 2.0
    M: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.xi <= 1:
            raise ValueError("xi must exceed 1")
        if self.K * self.widths.sigma < 6.0:
            raise ValueError(
                f"K*sigma = {self.K * self.widths.sigma:.3f} violates K*sigma >= 6"
            )
        if self.M > 0 and self.widths.rho > self.alpha / (2 * self.xi * self.M * self.K):
            raise ValueError("rho exceeds alpha/(2 xi M K) for M > 0")

    @property
    def smallness_threshold(self):
        return self.alpha * self.widths.rho / (256.0 * self.xi * self.K)

    @property
    def target_contraction(self):
        return math.exp(-self.K * self.widths.sigma / 6.0)


@dataclass(frozen=True)
class LieResult:
    series: FourierTaylorSeries
    tail_mass: float
    dropped_mass: float


@dataclass(frozen=True)
class NormalFormResult:
    h: FourierTaylorSeries
    f_star: FourierTaylorSeries
    generators: tuple
    contraction: float
    target_contraction: float
    action_shift_bound: float
    angle_shift_bound: float
    certified: bool
    iterations: int
    f_initial_norm: float
    dropped_mass: float
    params: NormalFormParams

    @property
    def action_shift_ratio(self):
        return self.action_shift_bound / self.params.widths.rho

    @property
    def angle_shift_ratio(self):
        return self.angle_shift_bound / self.params.widths.sigma


def solve_homological(f_nr, omega):
    """Solve omega . d_theta chi = f_nr mode-wise: chi_{k,m} = f_{k,m}/(2 pi i omega.k)."""
    w = omega.as_array() if hasattr(omega, "as_array") else np.asarray(omega, dtype=float)
    terms = {}
    for (k, m), c in f_nr.items():
        if all(v == 0 for v in k):
            raise MeanNotRemovedError(f"k=0 mode present at m={m}; remove the mean first")
        divisor = float(np.dot(k, w))
        if abs(divisor) < DIVISOR_FLOOR:
            raise SmallDivisorError(k, abs(divisor), DIVISOR_FLOOR)
        terms[(k, m)] = c / (TWO_PI * 1j * divisor)
    return FourierTaylorSeries(f_nr.d, terms)


def lie_transform(H, chi, order=6, widths=None, chop=0.0):
    """Truncated Lie series H o Psi = sum_{n<=order} ad_chi^n H / n!.

    Psi is the time-1 Hamiltonian flow of chi, so ad_chi H = {H, chi}.
    Term masses are measured with the weighted norm at `widths` when given
    (coefficient mass otherwise); terms below `chop` in that measure are
    dropped and reported, and a growth factor above DIVERGENCE_FACTOR
    between consecutive brackets aborts with a divergence error.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    weight = widths.weight if widths is not None else None
    prunes = weight is not None and chop > 0.0

    def pruned(nk, nm, c):
        return np.abs(c) * weight(nk, nm) < chop

    result = H
    bracket = H
    dropped = 0.0
    prev_mass = None
    tail = 0.0
    fact = 1.0
    for n in range(1, order + 1):
        bracket = bracket.poisson_bracket(chi)
        if prunes:
            dropped += bracket.mass(weight, where=pruned)
            bracket = bracket.select(lambda nk, nm, c: ~pruned(nk, nm, c))
        mass = bracket.mass(weight)
        if prev_mass is not None and prev_mass > 0.0 and mass > DIVERGENCE_FACTOR * prev_mass:
            raise LieDivergenceError(
                f"bracket norm grew by {mass / prev_mass:.2e} at order {n}"
            )
        prev_mass = mass
        fact *= n
        result = result + bracket * (1.0 / fact)
        tail = mass / fact
        if mass == 0.0:
            break
    return LieResult(series=result, tail_mass=tail, dropped_mass=dropped)


def resonant_normal_form(H, omega, params, max_iter=None, order=6, rel_chop=0.0):
    """Iterated averaging: remove modes 0 < |k|_1 <= K until the remainder
    certificate contraction <= e^{-K sigma/6} holds, or max_iter is reached.

    Raises SmallnessViolationError if the perturbation fails the entry bound
    |||f|||_{sigma,rho} <= alpha rho / (256 xi K).  A result that stops on
    max_iter is returned with certified=False.
    """
    widths = params.widths
    inner = AnalyticityWidths(widths.sigma / 6.0, widths.rho / 2.0)
    K = params.K
    if max_iter is None:
        max_iter = 2 * K

    f0 = H.fourier_nonzero_part()
    f0_norm = f0.weighted_norm(widths)
    if f0_norm > params.smallness_threshold:
        raise SmallnessViolationError(
            f"|||f|||_(sigma,rho) = {f0_norm:.6e} exceeds alpha*rho/(256*xi*K) = "
            f"{params.smallness_threshold:.6e}"
        )
    target = params.target_contraction
    chop = rel_chop * f0_norm if rel_chop > 0.0 else 0.0

    current = H
    generators = []
    dropped = 0.0
    certified = False
    contraction = 0.0
    iterations = 0
    while True:
        f_star = current.fourier_nonzero_part()
        f_nr = f_star.select(lambda nk, nm, c: (nk > 0) & (nk <= K))
        star_norm = f_star.weighted_norm(inner) + dropped
        contraction = star_norm / f0_norm if f0_norm > 0.0 else 0.0
        # at least one averaging pass: the change of variables must actually
        # remove the sub-cutoff modes, not merely certify the domain shrink
        if contraction <= target and not (iterations == 0 and f_nr):
            certified = True
            break
        if iterations >= max_iter:
            break
        if not f_nr:
            break  # only high modes remain; no further progress possible
        chi = solve_homological(f_nr, omega)
        lie = lie_transform(current, chi, order=order, widths=widths, chop=chop)
        current = lie.series
        dropped += lie.dropped_mass + lie.tail_mass
        generators.append(chi)
        iterations += 1

    h = current.fourier_zero_part()
    f_star = current.fourier_nonzero_part()
    action_shift = 8.0 * K / params.alpha * f0_norm
    angle_shift = (
        32.0 * K / (3.0 * params.alpha * widths.rho) * f0_norm * widths.sigma
    )
    tol = 1e-12
    certified = bool(
        certified
        and action_shift / widths.rho <= 1.0 / (32.0 * params.xi) * (1.0 + tol)
        and angle_shift / widths.sigma <= 1.0 / (24.0 * params.xi) * (1.0 + tol)
    )
    return NormalFormResult(
        h=h,
        f_star=f_star,
        generators=tuple(generators),
        contraction=contraction,
        target_contraction=target,
        action_shift_bound=action_shift,
        angle_shift_bound=angle_shift,
        certified=certified,
        iterations=iterations,
        f_initial_norm=f0_norm,
        dropped_mass=dropped,
        params=params,
    )


def apply_transform(
    generators,
    point,
    direction="forward",
    rtol=1e-12,
    atol=1e-14,
    r_max=None,
):
    """Compose the time +-1 Hamiltonian flows of the generators at a real point.

    `forward` maps normal-form coordinates to original ones (time +1 flows in
    listed order); `inverse` undoes it (time -1 flows in reverse order).
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    theta, I = point
    theta = np.asarray(theta, dtype=float).copy()
    I = np.asarray(I, dtype=float).copy()
    d = len(theta)
    ordered = list(generators) if direction == "forward" else list(reversed(generators))
    t_final = 1.0 if direction == "forward" else -1.0
    for chi in ordered:
        fieldfn = chi.vector_field(check_real=False)

        def rhs(t, y):
            td, Id = fieldfn(y[:d], y[d:])
            return np.concatenate([td[0], Id[0]])

        sol = solve_ivp(
            rhs,
            (0.0, t_final),
            np.concatenate([theta, I]),
            method="DOP853",
            rtol=rtol,
            atol=atol,
        )
        if not sol.success:
            raise DomainEscapeError(f"generator flow failed: {sol.message}")
        y = sol.y[:, -1]
        theta, I = y[:d], y[d:]
        if r_max is not None and np.max(np.abs(I)) > r_max:
            raise DomainEscapeError(
                f"flow left the action domain: max|I| = {np.max(np.abs(I)):.3e} > {r_max:.3e}"
            )
    return theta, I
