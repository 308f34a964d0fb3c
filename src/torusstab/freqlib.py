"""Frequencies, validated float tuples, and finite-cutoff non-resonance certificates.

All mode sizes are measured in the l1 norm |k|_1 = |k_1| + ... + |k_d|,
matching the cutoff used by the smoothing equality.  Certificates come
from an exact search of the lattice ball, never from heuristics: branch and
bound over every prefix for d >= 3, and for d = 2 over the only prefixes
that can hold a minimiser, the continued-fraction denominators of the
frequency ratio.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import require_at_least

# prefixes per block of the lattice search; bounds its working memory
PREFIX_BLOCK = 1 << 18


class Frequency(tuple):
    """omega in R^d for the basis e^{2 pi i k.theta}: d >= 2 finite floats, not all 0."""

    def __new__(cls, omega):
        self = super().__new__(cls, map(float, omega))
        if len(self) < 2:
            raise ValueError("frequency dimension must be at least 2")
        if not all(map(math.isfinite, self)):
            raise ValueError("frequency components must be finite")
        if not any(self):
            raise ValueError("frequency must be nonzero")
        return self

    @property
    def d(self):
        return len(self)


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


def _record_prefixes(w, j, K):
    """The convergent denominators q_n <= K of alpha = |w_i / w_j| <= 1 (d = 2,
    i = 1 - j), the exact ratio of the floats; None if some 1 <= r <= 2K has
    ||r alpha|| <= 8u(K + 2) (u = 2^-53), where rounding could reorder the
    candidates."""
    ni, di = abs(w[1 - j]).as_integer_ratio()
    nj, dj = abs(w[j]).as_integer_ratio()
    x, y = di * nj, ni * dj % (di * nj)  # alpha - floor(alpha) = y / x
    qs, q_prev, q = [1], 0, 1
    while q <= 2 * K:
        if not y:
            return None
        a, r = divmod(x, y)
        q_prev, q, x, y = q, a * q + q_prev, y, r
        if q_prev < q <= K:
            qs.append(q)
    # min over r <= 2K of ||r alpha|| is ||q_prev alpha|| > 1 / (q_prev + q)
    return qs if (q_prev + q) * (K + 2) <= 2**50 else None


def _prefix_blocks(w, j, K):
    """Every k in Z^d with k_j = 0 and |k|_1 <= K, as (n, d) arrays of at most
    PREFIX_BLOCK rows; for d = 2 only k_i = q at the record prefixes q, if any,
    in one block: the q grow at least as the Fibonacci numbers and stay below
    2^50, so there are fewer than 80 of them."""
    d = len(w)
    qs = _record_prefixes(w, j, K) if d == 2 else None
    if qs is not None:
        block = np.zeros((len(qs), 2), dtype=np.int64)
        block[:, 1 - j] = qs
        yield block
        return
    for outer in itertools.product(range(-K, K + 1), repeat=d - 2):
        r = K - sum(map(abs, outer))
        for lo in range(-r, r + 1, PREFIX_BLOCK):
            last = np.arange(lo, min(lo + PREFIX_BLOCK, r + 1))
            block = np.empty((len(last), d - 1), dtype=np.int64)
            block[:, :-1] = outer
            block[:, -1] = last
            yield np.insert(block, j, 0, axis=1)


def _check_tau(tau):
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")


def _smallest(ks, w, tau):
    """(gamma, k): the least |omega.k| |k|_1^tau over the nonzero rows of ks, taken
    at their representatives (first nonzero entry positive); ties go to the
    lexicographically smallest representative.  omega.k is the exact value
    rounded once: integers over the floats' largest denominator, a power of
    two.  The float dot products bound every value, and only the rows whose
    lower bound reaches the least upper bound are evaluated exactly."""
    ks = ks[ks.any(axis=1)]
    sizes = np.abs(ks)
    powers = np.add.reduce(sizes, axis=1).astype(float) ** tau
    dots = np.abs(ks @ w)
    # a d-term dot product errs by at most gamma_d sum |k_i omega_i|, plus a few
    # 2^-1075 where it underflows (generous margins); a bound below 0 passes as 0
    slack = (len(w) + 2) * 2.0**-52 * (sizes @ np.abs(w)) + 2.0**-1060
    lower = (dots - slack) * powers * (1 - 2.0**-48)
    upper = (dots + slack) * powers * (1 + 2.0**-48)
    near = lower <= upper.min()
    ratios = [v.as_integer_ratio() for v in w.tolist()]
    scale = max(den for _, den in ratios)
    nums = [num * (scale // den) for num, den in ratios]
    reps = [k if next(filter(None, k)) > 0 else [-v for v in k] for k in ks[near].tolist()]
    exact = [abs(sum(map(operator.mul, k, nums)) / scale) for k in reps]
    return min(zip(map(operator.mul, exact, powers[near].tolist()), reps))


def diophantine_constant(freq, tau, K):
    """Exact Diophantine constant over the l1 ball of radius K.

    Branch and bound along the axis j of the largest |omega_j|: as |k|_1^tau >= 1,
    only k with |omega.k| <= gamma can attain gamma.  The unit vectors lie in the
    ball, so gamma <= min_i |omega_i| <= |omega_j|, and each prefix (the other d-1
    coordinates) tries at most five k_j near the root of omega.k = 0, in blocks
    of PREFIX_BLOCK prefixes that carry the best (gamma, k) on.  For d >= 3 every
    prefix is tried: O(K^{d-1}) work.

    For d = 2 only the record prefixes are tried.  Let i be the other axis,
    alpha = |omega_i / omega_j| and k a minimiser with p = |k_i| >= 1 (p = 0
    gives +-e_j, a unit vector).  F(k) <= F(e_i) = |omega_i|, so |omega.k| <=
    |omega_i| and |k_j| >= (p - 1) alpha.  A q < p with ||q alpha|| <= |omega.k|
    / |omega_j| would give k' = (q, -round(q alpha)) with |k'|_1 <= q + q alpha
    + 1/2 < |k|_1, so F(k') <= F(k), with equality only if r alpha is an integer
    for some r <= 2K.  Barring that, p is a record of q -> ||q alpha||, a
    convergent denominator of alpha (Khinchin, Continued Fractions, ch. II):
    O(log K) prefixes.  Rounding cannot reorder them either when every r <= 2K
    has ||r alpha|| > 8u(K + 2) (u = 2^-53): then |omega.k| - |omega.k'| >=
    |omega_j| ||(p -+ q) alpha|| outgrows the rounding of both F values (a few
    u relative, so a few u |omega_j|).  Otherwise alpha is rational or nearly
    so, and every prefix is tried: for omega = (5, 2), tau = 0, K = 4 the
    minimiser (1, -3) sits at 3, not a convergent denominator of 2/5.  One
    sign per prefix is enough: the window of -q mirrors that of q exactly, and
    k and -k share a representative.  So the record prefixes give the bits of
    the search over all 2K + 1 prefixes, as the tests check on thousands of
    cases.

    In every dimension omega.k is evaluated exactly, from the floats' integer
    ratios, and rounded once, so each k has one value whichever prefixes are
    tried, and gamma_K is non-increasing in K.  A float dot product can round
    a tiny |omega.k| to zero: for omega = (-0.5, -0.7000000000000001), tau = 1,
    K = 569 it gave gamma_K = 0.0 at (35, -25), where the exact minimum is
    4.0e-15 at (7, -5).
    """
    try:
        K = operator.index(K)  # numpy integers pass; 10.7, inf and '12' do not
    except TypeError:
        raise ValueError(f"K must be an integer >= 1, got {K!r}") from None
    require_at_least(1, K=K)
    _check_tau(tau)
    w = np.array(Frequency(freq))
    j = int(np.abs(w).argmax())
    units = np.eye(len(w), dtype=np.int64)
    # exact: units @ w == w and 1**tau == 1
    gamma, k = float(np.abs(w).min()), units[0]
    for prefixes in _prefix_blocks(w, j, K):
        room = K - np.add.reduce(np.abs(prefixes), axis=1)
        root = (prefixes @ w) / -w[j]
        half = gamma / abs(w[j])
        # one extra integer each side: rounding at the ends drops no candidate;
        # as half <= 1, a window holds at most five integers from its lowest
        window = np.maximum(np.ceil(root - half) - 1, -room)[:, None] + np.arange(5)
        hi = np.minimum(np.floor(root + half) + 1, room)
        ks = prefixes.repeat(5, axis=0)
        ks[:, j] = window.ravel()
        ks = ks[(window <= hi[:, None]).ravel()]
        # the unit vectors ride along: the first gamma may sit at another unit than k
        gamma, k = _smallest(np.concatenate([units, [k], ks]), w, tau)
    return DiophantineCertificate(float(tau), K, gamma, tuple(int(v) for v in k))
