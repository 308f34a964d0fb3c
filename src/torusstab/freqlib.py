"""Frequency vectors and finite-cutoff non-resonance certificates.

All mode sizes are measured in the l1 norm |k|_1 = |k_1| + ... + |k_d|,
matching the cutoff used by the smoothing equality.  Certificates come
from exhaustive lattice enumeration, never from heuristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError

DEFAULT_ENUMERATION_CAP = 200
_MAX_LATTICE_POINTS = 50_000_000


@dataclass(frozen=True)
class Frequency:
    """A frequency vector omega in R^d, d >= 2, for the basis e^{2 pi i k.theta}."""

    omega: tuple

    def __post_init__(self):
        omega = tuple(float(w) for w in self.omega)
        object.__setattr__(self, "omega", omega)
        if len(omega) < 2:
            raise ValueError("frequency dimension must be at least 2")
        if not all(math.isfinite(w) for w in omega):
            raise ValueError("frequency components must be finite")
        if all(w == 0.0 for w in omega):
            raise ValueError("frequency must be nonzero")

    @property
    def d(self):
        return len(self.omega)

    def as_array(self):
        return np.array(self.omega, dtype=float)

    def scaled(self, factor):
        return Frequency(tuple(factor * w for w in self.omega))


@dataclass(frozen=True)
class DiophantineCertificate:
    """gamma_K = min over 0 < |k|_1 <= K of |omega.k| |k|_1^tau, with its minimizer."""

    tau: float
    K: int
    gamma_K: float
    attained_k: tuple

    @property
    def alpha(self):
        """(alpha, K) complete non-resonance threshold implied by the certificate."""
        return self.gamma_K / float(self.K) ** self.tau


def golden_frequency(d):
    """The canonical d=2 test frequency (1, (1+sqrt 5)/2), Diophantine with tau=1."""
    if d != 2:
        raise ValueError(f"golden frequency only defined for d=2, got d={d}")
    return Frequency((1.0, (1.0 + math.sqrt(5.0)) / 2.0))


def _lattice_half_ball(d, K):
    """All k with 0 < |k|_1 <= K, one representative per {k, -k} pair.

    The representative has its first nonzero component positive.  Returns an
    (n, d) integer array in a deterministic order.
    """
    side = 2 * K + 1
    if side**d > _MAX_LATTICE_POINTS:
        raise EnumerationBudgetError(
            f"lattice ball (2K+1)^d = {side}^{d} exceeds the enumeration budget"
        )
    grids = np.meshgrid(*(np.arange(-K, K + 1),) * d, indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.abs(ks).sum(axis=1)
    ks = ks[(norms > 0) & (norms <= K)]
    # keep the representative whose first nonzero entry is positive
    first_nonzero_sign = np.zeros(len(ks), dtype=int)
    for j in range(d):
        col = ks[:, j]
        undecided = first_nonzero_sign == 0
        first_nonzero_sign[undecided] = np.sign(col[undecided])
    return ks[first_nonzero_sign > 0]


def diophantine_constant(freq, tau, K, cap=DEFAULT_ENUMERATION_CAP):
    """Exhaustive Diophantine constant over the l1 ball of radius K.

    Raises EnumerationBudgetError if K exceeds the configured cap rather than
    silently approximating.
    """
    K = int(K)
    if K < 1:
        raise ValueError("K must be >= 1")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if K > cap:
        raise EnumerationBudgetError(
            f"enumeration budget: K={K} exceeds cap {cap}; raise the cap explicitly"
        )
    ks = _lattice_half_ball(freq.d, K)
    norms = np.abs(ks).sum(axis=1).astype(float)
    values = np.abs(ks @ freq.as_array()) * norms**tau
    i = int(np.argmin(values))
    return DiophantineCertificate(
        tau=float(tau), K=K, gamma_K=float(values[i]), attained_k=tuple(int(v) for v in ks[i])
    )


def is_completely_nonresonant(freq, alpha, K, cap=DEFAULT_ENUMERATION_CAP):
    """True iff |omega.k| >= alpha for every 0 < |k|_1 <= K: gamma_K at tau = 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return diophantine_constant(freq, 0.0, K, cap).gamma_K >= alpha
