"""Analytic smoothing of periodic Holder functions by sharp Fourier cutoff.

For functions given by their Fourier data on the torus the smoothing
operator is the sharp l1-ball truncation at |k|_1 <= 1/s: it is the unique
operator consistent with the Fourier-norm equality

    sum_k |(g_s)^_k| e^{|k|_1 s} = sum_{|k|_1 <= 1/s} |g^_k| e^{|k|_1 s},

which is re-verified numerically on every call.  The C^ell norm is replaced
throughout by a computable coefficient majorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .ftseries import TWO_PI, FourierTaylorSeries


@dataclass(frozen=True)
class HolderClass:
    """Regularity ell > 2d+1 with integer part q and fractional part mu."""

    ell: float
    d: int

    def __post_init__(self):
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
    equality_residual: float


def smooth(g, s):
    """Sharp cutoff at |k|_1 <= 1/s; keeps the Fourier-norm equality exactly."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    if not g.is_pure_angle():
        raise ValueError("smoothing operates on pure-angle series only")
    cutoff = 1.0 / s

    def kept(nk, nm, c):
        return nk <= cutoff

    def at_s(nk, nm):
        return np.exp(s * nk)

    g_s = g.select(kept)
    lhs = g_s.mass(at_s)
    rhs = g.mass(at_s, where=kept)
    dropped = g.mass(where=lambda nk, nm, c: nk > cutoff)
    residual = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return SmoothingResult(
        g_s=g_s,
        s=float(s),
        fourier_norm_at_s=lhs,
        dropped_tail_mass=dropped,
        equality_residual=residual,
    )


def holder_norm_majorant(g, hc):
    """Certified coefficient upper bound on the Holder C^ell norm.

    Uses |e^{i xi x} - e^{i xi y}| <= 2^{1-mu} |xi|^mu |x-y|^mu, giving
    (1 + 2^{1-mu}) sum_k |g^_k| (1 + (2 pi |k|_1)^ell).
    """
    if not g.is_pure_angle():
        raise ValueError("Holder majorant operates on pure-angle series only")
    total = g.mass(lambda nk, nm: 1.0 + (TWO_PI * nk) ** hc.ell)
    return (1.0 + 2.0 ** (1.0 - hc.mu)) * total


def cp_tail_majorant(g, s, p):
    """C^p-style majorant of g - g_s: mass of dropped modes weighted (2 pi |k|_1)^p."""
    cutoff = 1.0 / s
    return g.mass(lambda nk, nm: (TWO_PI * nk) ** p, where=lambda nk, nm, c: nk > cutoff)


def lacunary_series(d, ell, j_max=10, seed=0, amplitude=1.0, modes_per_shell=2):
    """Real pure-angle test function with |g^_k| = amplitude 2^{-j ell} at |k|_1 = 2^j.

    Lives exactly in C^ell for non-integer ell; the canonical family for slope
    verification.  Deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    terms = {}
    z = (0,) * d
    for j in range(j_max + 1):
        n = 2**j
        for _ in range(modes_per_shell):
            # random split of |k|_1 = n over d components, signs random beyond
            # the first nonzero one (the conjugate supplies the mirror)
            parts = rng.multinomial(n, np.full(d, 1.0 / d))
            while not parts.any():  # pragma: no cover - multinomial of n>=1 is nonzero
                parts = rng.multinomial(n, np.full(d, 1.0 / d))
            signs = rng.choice((-1, 1), size=d)
            k = tuple(int(p * s_) for p, s_ in zip(parts, signs))
            phase = rng.uniform(0.0, TWO_PI)
            c = amplitude * 2.0 ** (-j * ell) * np.exp(1j * phase)
            neg = tuple(-v for v in k)
            terms[(k, z)] = terms.get((k, z), 0j) + c
            terms[(neg, z)] = terms.get((neg, z), 0j) + np.conj(c)
    return FourierTaylorSeries(d, terms)


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
    if not (0 <= p <= hc.ell and p == int(p)):
        raise ValueError(f"p must be an integer in [0, ell], got {p}")
    s_used, errors, saturated = [], [], []
    for s in s_list:
        if not 0.0 < s <= 1.0:
            raise ValueError(f"s values must lie in (0, 1], got {s}")
        err = cp_tail_majorant(g, s, p)
        if err == 0.0:
            saturated.append(float(s))
        else:
            s_used.append(float(s))
            errors.append(err)
    if len(s_used) < 4:
        raise InsufficientDataError(
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


@dataclass(frozen=True)
class FourierNormReport:
    s_list: tuple
    ratios: tuple
    sup_ratio: float
    first_third_mean: float
    last_third_mean: float
    majorant: float
    passed: bool


def fourier_norm_bound_check(g, hc, s_list):
    """Ratio |||g_s|||_s / C^ell-majorant across an s sweep; PASS iff no growth trend."""
    maj = holder_norm_majorant(g, hc)
    ratios = []
    for s in s_list:
        res = smooth(g, s)
        ratios.append(res.fourier_norm_at_s / maj if maj > 0 else 0.0)
    n = len(ratios)
    if n == 0:
        raise InsufficientDataError("empty s sweep")
    third = max(1, n // 3)
    first = float(np.mean(ratios[:third]))
    last = float(np.mean(ratios[-third:]))
    return FourierNormReport(
        s_list=tuple(float(s) for s in s_list),
        ratios=tuple(ratios),
        sup_ratio=float(max(ratios)),
        first_third_mean=first,
        last_third_mean=last,
        majorant=maj,
        passed=bool(last <= 2.0 * first),
    )
