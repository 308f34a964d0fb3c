"""Analytic smoothing of periodic Holder functions by sharp Fourier cutoff.

For functions given by their Fourier data on the torus the smoothing
operator is the sharp l1-ball truncation at |k|_1 <= 1/s: it is the unique
operator consistent with the Fourier-norm equality

    sum_k |(g_s)^_k| e^{|k|_1 s} = sum_{|k|_1 <= 1/s} |g^_k| e^{|k|_1 s},

which therefore holds by construction.  The C^ell norm is replaced
throughout by a computable coefficient majorant, and the bound of |||g_s|||_s
by it is one line of algebra: e^{|k|_1 s} <= e on every kept mode and the
majorant is at least (1 + 2^{1-mu}) sum_k |g^_k|, so for any g and s
|||g_s|||_s / majorant <= e / (1 + 2^{1-mu}) (1.13 at ell = 6.5).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, require_at_least, require_dimension
from .ftseries import TWO_PI, FourierTaylorSeries, _merge


@dataclass(frozen=True)
class HolderClass:
    """Regularity ell > 2d+1 with integer part q and fractional part mu."""

    ell: float
    d: int

    def __post_init__(self):
        require_at_least(1, d=self.d)
        if not math.isfinite(self.ell):
            raise ValueError(f"ell must be finite, got {self.ell!r}")
        if not self.ell > 2 * self.d + 1:
            raise ValueError(
                f"regularity ell={self.ell} must exceed 2d+1={2 * self.d + 1} for d={self.d}"
            )

    @property
    def q(self):
        return int(math.floor(self.ell))

    @property
    def mu(self):
        return self.ell - self.q


@dataclass(frozen=True)
class SmoothingResult:
    """Sharp-cutoff smoothing of a pure-angle series at width s."""

    g_s: FourierTaylorSeries
    s: float
    fourier_norm_at_s: float
    dropped_tail_mass: float


def sharp_cutoff(g, s):
    """Split g at |k|_1 <= 1/s into (g_s, dropped tail); s must lie in (0, 1]."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    cutoff = 1.0 / s
    return g.select(lambda nk, nm, c: nk <= cutoff), g.select(lambda nk, nm, c: nk > cutoff)


def _check_pure_angle(g):
    if not g.is_pure_angle():
        order = g.max_taylor_order()
        raise ValueError(f"smoothing operates on pure-angle series only, got Taylor order {order}")


def smooth(g, s):
    """Sharp cutoff at |k|_1 <= 1/s; keeps the Fourier-norm equality exactly."""
    _check_pure_angle(g)
    g_s, tail = sharp_cutoff(g, s)
    return SmoothingResult(
        g_s=g_s,
        s=float(s),
        fourier_norm_at_s=g_s.mass(lambda nk, nm: np.exp(s * nk)),
        dropped_tail_mass=tail.mass(),
    )


def holder_norm_majorant(g, hc):
    """Certified coefficient upper bound on the Holder C^ell norm.

    Uses |e^{i xi x} - e^{i xi y}| <= 2^{1-mu} |xi|^mu |x-y|^mu, giving
    (1 + 2^{1-mu}) sum_k |g^_k| (1 + (2 pi |k|_1)^ell).
    """
    _check_pure_angle(g)
    return coefficient_norm_max(g, hc)


def coefficient_norm_max(P, hc):
    """max over the Taylor indices m of P of the Holder majorant of the
    coefficient a_m(theta) of I^m (0 for an empty P), in one pass.

    P's weighted masses are grouped by m by a stable sort, which keeps each
    a_m's terms in k order, and each group is summed.  The positive factor is
    applied once, to the largest sum: rounding is monotone, so the max
    commutes with it.  The value is stored on P per Holder class.
    """
    return P._derived(_coefficient_norm_max, hc)


def _coefficient_norm_max(P, hc):
    order = np.lexsort(P.M.T)
    M, masses = P.M[order], P.masses(lambda nk, nm: 1.0 + (TWO_PI * nk) ** hc.ell)[order]
    bounds = [0, *(np.flatnonzero((M[1:] != M[:-1]).any(axis=1)) + 1).tolist(), len(M)]
    with np.errstate(over="ignore"):
        sums = [masses[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])]
    return (1.0 + 2.0 ** (1.0 - hc.mu)) * float(max(sums))


def cp_tail_majorant(g, s, p):
    """C^p-style majorant of g - g_s: mass of dropped modes weighted (2 pi |k|_1)^p."""
    return sharp_cutoff(g, s)[1].mass(lambda nk, nm: (TWO_PI * nk) ** p)


def lacunary_series(d, ell, j_max=10, seed=0, amplitude=1.0):
    """Real pure-angle test function with |g^_k| = amplitude 2^{-j ell} at |k|_1 = 2^j,
    two random modes (each with its mirror) per shell.

    Lives exactly in C^ell for non-integer ell; the canonical family for slope
    verification.  Deterministic in the seed, an integer or a non-empty
    sequence of them.  A j_max outside [0, 62] or too large for d (2^j_max
    and the modes' keys must fit an int64), an empty or negative seed, or a
    non-finite amplitude raises ValueError.
    """
    K, C = _lacunary_draws(d, ell, j_max, seed, amplitude)
    return _series_of_draws(d, j_max, (K, np.zeros_like(K), C))


def _series_of_draws(d, j_max, *parts):
    """The merged (K, M, C) draws as a series; keys past int64 are refused by j_max and d."""
    try:
        return FourierTaylorSeries._of(d, *_merge(*parts))
    except ValueError as exc:
        raise ValueError(f"j_max = {j_max} is too large for d = {d}: {exc}") from exc


def _lacunary_draws(d, ell, j_max, seed, amplitude):
    """The modes (K) and coefficients (C) that lacunary_series draws, each mode
    followed by its mirror, in draw order: merging them sums a repeated mode
    in that order."""
    require_at_least(0, j_max=j_max)
    if j_max > 62:
        raise ValueError(f"j_max must be at most 62 (2^j_max must fit an int64), got {j_max}")
    if np.size(seed) == 0:
        raise ValueError(f"seed must be an integer or a non-empty sequence, got {seed!r}")
    if np.min(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    rng = np.random.default_rng(seed)
    pvals = np.full(d, 1.0 / d)
    parts, bits, C = [], [], []
    for j in range(j_max + 1):
        scale = amplitude * 2.0 ** (-j * ell)
        for _ in range(2):
            # random split of |k|_1 = 2^j over d components, signs random beyond
            # the first nonzero one (the conjugate supplies the mirror)
            parts.append(rng.multinomial(2**j, pvals))
            bits.append(rng.integers(0, 2, size=d))
            c = scale * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
            C += (c, c.conjugate())
    k = np.array(parts) * (2 * np.array(bits) - 1)
    return np.stack((k, -k), axis=1).reshape(-1, d), np.array(C)


@dataclass(frozen=True)
class SlopeReport:
    slope: float
    intercept: float
    target: float
    s_used: tuple
    errors: tuple
    saturated: tuple
    passed: bool


def verify_smoothing_estimate(g, hc, p, s_list):
    """Fit log ||g - g_s||_{C^p} against log s; PASS iff slope >= ell - p - 0.3.

    Errors are computed with the dropped-mode tail majorant; s values where
    nothing is dropped are reported as saturated and excluded from the fit.
    """
    require_dimension(g, hc.d, "Holder class")
    _check_pure_angle(g)
    if not (0 <= p <= hc.ell and p == int(p)):
        raise ValueError(f"p must be an integer in [0, ell], got {p}")
    s_used, errors, saturated = [], [], []
    for s in s_list:
        err = cp_tail_majorant(g, s, p)
        if err == 0.0:
            saturated.append(float(s))
        else:
            s_used.append(float(s))
            errors.append(err)
    if len(s_used) < 4:
        raise PreconditionError(
            f"only {len(s_used)} usable s values (need >= 4); {len(saturated)} saturated"
        )
    slope, intercept = np.polyfit(np.log(s_used), np.log(errors), 1)
    target = hc.ell - p
    return SlopeReport(
        slope=float(slope),
        intercept=float(intercept),
        target=float(target),
        s_used=tuple(s_used),
        errors=tuple(errors),
        saturated=tuple(saturated),
        passed=bool(slope >= target - 0.3),
    )
