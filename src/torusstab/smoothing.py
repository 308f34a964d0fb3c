"""Analytic smoothing of the Holder coefficients of a perturbation by sharp
Fourier cutoff.

The pipeline smooths each Taylor coefficient a_m(theta) of the polynomial
part P = sum_m a_m(theta) I^m of f (`stabpipe.smooth_coefficients`).  The
smoothing operator is the sharp l1-ball truncation at |k|_1 <= 1/s of every
a_m at once: `sharp_cutoff` splits P into P_s and a dropped tail that share
no term and sum to P.  So for every a_m the Fourier-norm equality

    sum_k |(a_m,s)^_k| e^{|k|_1 s} = sum_{|k|_1 <= 1/s} |(a_m)^_k| e^{|k|_1 s}

holds by construction, and sup |a_m - a_m,s| is at most the mass of a_m's
dropped modes.  The C^ell norm of a_m is replaced throughout by a computable
coefficient majorant, and the bound of |||a_m,s|||_s by it is one line of
algebra: e^{|k|_1 s} <= e on every kept mode and the majorant is at least
(1 + 2^{1-mu}) sum_k |(a_m)^_k|, so for any a_m and s
|||a_m,s|||_s / majorant <= e / (1 + 2^{1-mu}) (1.13 at ell = 6.5).

The lacunary draws of the test Hamiltonian's coefficients live here too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import require_at_least
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


def sharp_cutoff(g, s):
    """Split g at |k|_1 <= 1/s into (g_s, dropped tail); s must lie in (0, 1]."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    cutoff = 1.0 / s
    return g.select(lambda nk, nm, c: nk <= cutoff), g.select(lambda nk, nm, c: nk > cutoff)


def holder_norm_majorant(g, hc):
    """Certified coefficient upper bound on the Holder C^ell norm.

    Uses |e^{i xi x} - e^{i xi y}| <= 2^{1-mu} |xi|^mu |x-y|^mu, giving
    (1 + 2^{1-mu}) sum_k |g^_k| (1 + (2 pi |k|_1)^ell).
    """
    order = g.max_taylor_order()
    if order:
        raise ValueError(f"smoothing operates on pure-angle series only, got Taylor order {order}")
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


def _series_of_draws(d, j_max, *parts):
    """The merged (K, M, C) draws as a series; keys past int64 are refused by j_max and d."""
    try:
        return FourierTaylorSeries._of(d, *_merge(*parts))
    except ValueError as exc:
        raise ValueError(f"j_max = {j_max} is too large for d = {d}: {exc}") from exc


def _lacunary_draws(d, ell, j_max, seed, amplitude):
    """The modes (K) and coefficients (C) of a real lacunary function of theta,
    |c| = amplitude 2^{-j ell} at |k|_1 = 2^j with two random modes per shell,
    each mode followed by its mirror, in draw order: merging them sums a
    repeated mode in that order.  It lies in C^ell for non-integer ell.

    The seed is build_test_hamiltonian's checked one with the monomial's
    index.  A j_max outside [0, 62] or a non-finite amplitude raises
    ValueError.
    """
    require_at_least(0, j_max=j_max)
    if j_max > 62:
        raise ValueError(f"j_max must be at most 62 (2^j_max must fit an int64), got {j_max}")
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
