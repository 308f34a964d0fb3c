"""Sparse Fourier-Taylor series algebra on T^d x R^d.

A series is a finite map (k, m) -> c representing

    f(theta, I) = sum c_{k,m} e^{2 pi i k.theta} I^m,

with k an integer Fourier mode and m a non-negative Taylor multi-index.
The torus is R^d/Z^d, so small divisors carry a 2 pi factor.  The terms
are stored as three read-only arrays, K (n x d modes), M (n x d Taylor
indices) and C (n coefficients), sorted by (k, m) with no repeated key and
no zero coefficient; two series are equal iff their arrays are equal.
Products and brackets are broadcast over term pairs and merged by a sort.
A real-valued series satisfies c_{-k,m} = conj(c_{k,m}) for every stored
term.

Weighted norms use the computable coefficient majorant

    |||f|||_{sigma,rho} = sum |c_{k,m}| rho^{|m|_1} e^{sigma |k|_1},

an upper bound for the sup-over-polydisc Fourier norm; this majorant is the
norm used by every certificate in the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import RealityViolationError

TWO_PI = 2.0 * math.pi
# term pairs formed at once by a series product: it bounds the product's
# working memory, whatever the operands' sizes
PAIR_BLOCK = 1 << 18


@dataclass(frozen=True)
class AnalyticityWidths:
    """Angle-strip half-width sigma and action-polydisc radius rho."""

    sigma: float
    rho: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")

    def weight(self, nk, nm):
        """Majorant weights rho^{|m|_1} e^{sigma |k|_1} of terms of orders (nk, nm)."""
        return self.rho**nm * np.exp(self.sigma * nk)


class FourierTaylorSeries:
    """Immutable sparse series; all operations return new values."""

    __slots__ = ("d", "K", "M", "C")

    def __init__(self, d, terms=None):
        """Series from a map (k, m) -> c; the indices are validated."""
        d = int(d)
        if d < 1:
            raise ValueError("dimension must be >= 1")
        rows, coeffs = [], []
        for (k, m), c in (terms or {}).items():
            k = tuple(int(v) for v in k)
            m = tuple(int(v) for v in m)
            if len(k) != d or len(m) != d:
                raise ValueError(f"index length mismatch for d={d}: k={k}, m={m}")
            if any(v < 0 for v in m):
                raise ValueError(f"Taylor multi-index must be non-negative, got {m}")
            rows.append(k + m)
            coeffs.append(complex(c))
        KM = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * d)
        self._set(d, *_merge((KM[:, :d], KM[:, d:], np.array(coeffs, dtype=complex))))

    def _set(self, d, K, M, C):
        """Store terms sorted by (k, m) with distinct keys: signed zeros are
        cleared (as 0j + c does), zero terms dropped, the arrays locked."""
        C = C + 0j
        keep = C != 0
        if not keep.all():
            K, M, C = K[keep], M[keep], C[keep]
        for a in (K, M, C):
            a.flags.writeable = False
        self.d, self.K, self.M, self.C = d, K, M, C

    @classmethod
    def _of(cls, d, K, M, C):
        """Series of terms already sorted by (k, m) with distinct keys."""
        out = cls.__new__(cls)
        out._set(d, K, M, C)
        return out

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, d):
        return cls(d)

    @classmethod
    def constant(cls, d, value):
        z = (0,) * d
        return cls(d, {(z, z): value})

    @classmethod
    def monomial(cls, d, m, coeff=1.0):
        """coeff * I^m."""
        return cls(d, {((0,) * d, tuple(m)): coeff})

    @classmethod
    def harmonic(cls, d, k, m=None, coeff=1.0):
        """Single (generally complex) term coeff e^{2 pi i k.theta} I^m."""
        m = (0,) * d if m is None else tuple(m)
        return cls(d, {(tuple(k), m): coeff})

    @classmethod
    def cosine(cls, d, k, m=None, amplitude=1.0, phase=0.0):
        """amplitude * cos(2 pi k.theta + phase) * I^m, stored as a conjugate pair."""
        m = (0,) * d if m is None else tuple(m)
        k = tuple(k)
        neg = tuple(-v for v in k)
        half = 0.5 * amplitude * cmath.exp(1j * phase)
        return cls(d, {(k, m): half, (neg, m): half.conjugate()})

    @classmethod
    def sine(cls, d, k, m=None, amplitude=1.0):
        return cls.cosine(d, k, m=m, amplitude=amplitude, phase=-0.5 * math.pi)

    @classmethod
    def linear(cls, omega):
        """omega . I for a frequency vector or plain sequence."""
        values = tuple(omega.omega) if hasattr(omega, "omega") else tuple(omega)
        d = len(values)
        terms = {}
        for i, w in enumerate(values):
            if w != 0:
                m = tuple(1 if j == i else 0 for j in range(d))
                terms[((0,) * d, m)] = w
        return cls(d, terms)

    # -- canonical access -----------------------------------------------------

    @property
    def terms(self):
        return MappingProxyType(dict(self.items()))

    def items(self):
        """((k, m), c) for every term, in (k, m) order."""
        keys = zip(map(tuple, self.K.tolist()), map(tuple, self.M.tolist()))
        return list(zip(keys, self.C.tolist()))

    def __len__(self):
        return len(self.C)

    def __bool__(self):
        return len(self.C) > 0

    def __eq__(self, other):
        if not isinstance(other, FourierTaylorSeries):
            return NotImplemented
        return (
            self.d == other.d
            and np.array_equal(self.K, other.K)
            and np.array_equal(self.M, other.M)
            and np.array_equal(self.C, other.C)
        )

    def __hash__(self):
        return hash((self.d, self.K.tobytes(), self.M.tobytes(), self.C.tobytes()))

    def __repr__(self):
        return f"FourierTaylorSeries(d={self.d}, nterms={len(self)})"

    # -- algebra --------------------------------------------------------------

    def _check_same_d(self, other):
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FourierTaylorSeries.constant(self.d, other)
        self._check_same_d(other)
        return self._of(self.d, *_merge((self.K, self.M, self.C), (other.K, other.M, other.C)))

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.d, self.K, self.M, -self.C)

    def __sub__(self, other):
        return self + (-other if isinstance(other, FourierTaylorSeries) else -complex(other))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._of(self.d, self.K, self.M, self.C * other)
        self._check_same_d(other)
        d = self.d
        K, M, C = self.K[:0], self.M[:0], self.C[:0]
        rows = max(1, PAIR_BLOCK // max(len(other), 1))
        for i in range(0, len(self), rows):
            block = slice(i, i + rows)
            pairs = (
                (self.K[block, None] + other.K).reshape(-1, d),
                (self.M[block, None] + other.M).reshape(-1, d),
                (self.C[block, None] * other.C).ravel(),
            )
            K, M, C = _merge((K, M, C), pairs)
        return self._of(d, K, M, C)

    __rmul__ = __mul__

    # -- calculus -------------------------------------------------------------

    def partial_theta(self, axis):
        """Exact d/d theta_axis: multiplies c_{k,m} by 2 pi i k_axis."""
        if not 0 <= axis < self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        rows = self.K[:, axis] != 0
        K = self.K[rows]
        return self._of(self.d, K, self.M[rows], self.C[rows] * (TWO_PI * 1j * K[:, axis]))

    def partial_I(self, axis):
        """Exact d/d I_axis: shifts m_axis down with factor m_axis."""
        if not 0 <= axis < self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        rows = self.M[:, axis] > 0
        M = self.M[rows]
        C = self.C[rows] * M[:, axis]
        M[:, axis] -= 1  # a uniform shift keeps the (k, m) order
        return self._of(self.d, self.K[rows], M, C)

    def poisson_bracket(self, other):
        """{f, g} = sum_i (d_theta_i f d_I_i g - d_I_i f d_theta_i g)."""
        self._check_same_d(other)
        out = FourierTaylorSeries.zero(self.d)
        for i in range(self.d):
            out = out + self.partial_theta(i) * other.partial_I(i)
            out = out - self.partial_I(i) * other.partial_theta(i)
        return out

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, theta, I, reality_tol=1e-12):
        """Pointwise value; raises if the imaginary residual is not negligible."""
        theta = np.asarray(theta, dtype=float)
        I = np.asarray(I, dtype=float)
        if theta.shape != (self.d,) or I.shape != (self.d,):
            raise ValueError("point dimension mismatch")
        # the kernel sums real parts, and Im f = Re(-i f)
        real = HamiltonianVectorField(self, check_real=False).energy(theta, I)[0]
        imag = HamiltonianVectorField(self * -1j, check_real=False).energy(theta, I)[0]
        scale = float(np.abs(self.C) @ np.prod(np.abs(I) ** self.M, axis=1))
        if abs(imag) > reality_tol * max(scale, 1.0):
            raise RealityViolationError(
                f"imaginary residual {imag:.3e} exceeds {reality_tol:.1e} "
                f"relative to term mass {scale:.3e}"
            )
        return float(real)

    # -- norms, selection, structure ----------------------------------------

    def _orders(self):
        """|k|_1 and |m|_1 of every term."""
        return np.abs(self.K).sum(axis=1), self.M.sum(axis=1)

    def select(self, keep):
        """Sub-series of the terms where the mask keep(|k|_1, |m|_1, c) is true;
        keep receives one array entry per term."""
        rows = keep(*self._orders(), self.C)
        return self._of(self.d, self.K[rows], self.M[rows], self.C[rows])

    def mass(self, weight=None, where=None):
        """sum |c| weight(|k|_1, |m|_1) over the terms where the mask
        where(|k|_1, |m|_1, c) is true; both receive arrays, weight defaults
        to 1 and where to every term.  inf if a weight overflows."""
        nk, nm = self._orders()
        a = np.abs(self.C)
        if where is not None:
            rows = where(nk, nm, self.C)
            a, nk, nm = a[rows], nk[rows], nm[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            if weight is not None:
                w = weight(nk, nm)
                if not np.all(np.isfinite(w)):
                    return math.inf
                a = a * w
            return float(a.sum())

    def coefficient_mass(self):
        return self.mass()

    def weighted_norm(self, widths):
        """Coefficient majorant sum |c| rho^{|m|_1} e^{sigma |k|_1}; inf on overflow."""
        return self.mass(widths.weight)

    def fourier_zero_part(self):
        return self.select(lambda nk, nm, c: nk == 0)

    def fourier_nonzero_part(self):
        return self.select(lambda nk, nm, c: nk > 0)

    def pure_angle_part(self):
        return self.select(lambda nk, nm, c: nm == 0)

    def is_pure_angle(self):
        return self.max_taylor_order() == 0

    def max_fourier_order(self):
        return int(self._orders()[0].max(initial=0))

    def min_taylor_order(self):
        return int(self._orders()[1].min()) if self else 0

    def max_taylor_order(self):
        return int(self._orders()[1].max(initial=0))

    def taylor_monomials(self):
        """Sorted list of action multi-indices carrying at least one term."""
        return [tuple(m) for m in np.unique(self.M, axis=0).tolist()]

    def angle_coefficient(self, m):
        """The pure-angle coefficient series a_m(theta) of I^m."""
        rows = np.all(self.M == np.asarray(m, dtype=np.int64), axis=1)
        return self._of(self.d, self.K[rows], np.zeros_like(self.M[rows]), self.C[rows])

    def is_real(self, tol=1e-12):
        """Check c_{-k,m} = conj(c_{k,m}) up to tol relative to the total mass."""
        scale = max(self.coefficient_mass(), 1e-300)
        # c_{k,m} - conj(c_{-k,m}) at every key of the series or its mirror
        _, _, gap = _merge((self.K, self.M, self.C), (-self.K, self.M, -self.C.conj()))
        return not np.any(np.abs(gap) > tol * scale)

    # -- serialization --------------------------------------------------------

    def to_text(self):
        """One term per line: `k_1 .. k_d | m_1 .. m_d | re im`.

        Floats are written with repr, so the round trip is bit-exact at double
        precision.  Lines starting with `#` are comments.
        """
        lines = [f"# d={self.d}"]
        for (k, m), c in self.items():
            lines.append(
                " ".join(str(v) for v in k)
                + " | "
                + " ".join(str(v) for v in m)
                + f" | {c.real!r} {c.imag!r}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        d = None
        terms = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("d="):
                    d = int(body[2:])
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3:
                raise ValueError(f"malformed series line: {raw!r}")
            k = tuple(int(v) for v in parts[0].split())
            m = tuple(int(v) for v in parts[1].split())
            re_s, im_s = parts[2].split()
            if d is None:
                d = len(k)
            key = (k, m)
            terms[key] = terms.get(key, 0j) + complex(float(re_s), float(im_s))
        if d is None:
            raise ValueError("series text carries no dimension header and no terms")
        return cls(d, terms)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read())

    def vector_field(self, check_real=True):
        return HamiltonianVectorField(self, check_real=check_real)


def _merge(*parts):
    """Concatenate (K, M, C) term arrays, sort the terms by (k, m) and sum
    repeated keys; the sort is stable, so each key's terms reach
    np.add.reduceat in input order."""
    K, M, C = (np.concatenate(a) for a in zip(*parts))
    KM = np.hstack([K, M])
    order = np.lexsort(KM.T[::-1])
    KM, C = KM[order], C[order]
    first = np.ones(len(C), dtype=bool)
    first[1:] = np.any(KM[1:] != KM[:-1], axis=1)
    starts = np.flatnonzero(first)
    if len(starts) < len(C):
        C = np.add.reduceat(C, starts)
    rows = order[starts]
    return K[rows], M[rows], C


def theta_gradient_majorant(H, radius):
    """sup of ||d_theta H||_inf on the tube of the given action radius,
    as the coefficient majorant sum |c| 2 pi |k|_1 radius^{|m|_1}."""
    return H.mass(lambda nk, nm: TWO_PI * nk * radius**nm)


class HamiltonianVectorField:
    """Batched Hamiltonian vector field (theta_dot, I_dot) of a real series.

    theta_dot = dH/dI, I_dot = -dH/dtheta, all real parts of the series sum.
    A term whose mode k has a negative first nonzero entry is folded onto
    (-k, m, conj c) at construction, which leaves Re c e^{2 pi i k.theta} I^m
    unchanged, so for any series the kernel sums the half spectrum

        Re f = sum (a cos 2 pi k.theta - b sin 2 pi k.theta) I^m,  c = a + ib,

    with one real cosine and sine per point and folded term per call.  The
    energy and the d components of I_dot come out of one product of the
    stacked [cos P, sin P] (P the action powers I^m) with a weight matrix;
    each theta_dot_j takes one more, with the powers I^{m - e_j}.  The same
    kernel gives FourierTaylorSeries.evaluate.  `n` counts the folded terms.
    """

    def __init__(self, series, check_real=True):
        if check_real and not series.is_real(tol=1e-9):
            raise RealityViolationError("vector field requires a real-valued series")
        self.d = d = series.d
        K, M, C = series.K, series.M, series.C
        first = K[np.arange(len(K)), (K != 0).argmax(axis=1)]  # 0 for k = 0
        neg = first < 0
        K, M, C = _merge((np.where(neg[:, None], -K, K), M, np.where(neg, C.conj(), C)))
        keep = C != 0
        K, M, C = K[keep], M[keep], C[keep]
        a, b = C.real, C.imag
        self.n = n = len(C)
        self.Kt = K.T.astype(float)
        self.pmax = int(M.max()) if n else 0
        # action exponents: m for the energy and I_dot, m - e_j for theta_dot_j
        self.exps = np.repeat(M[None], 1 + d, axis=0)
        for j in range(d):
            self.exps[1 + j, :, j] = np.maximum(M[:, j] - 1, 0)
        # columns: the energy sum (a cos - b sin) P, then
        # I_dot_j = sum 2 pi k_j (b cos + a sin) P
        self.W = np.empty((2 * n, 1 + d))
        self.W[:n, 0], self.W[n:, 0] = a, -b
        for j in range(d):
            self.W[:n, 1 + j] = TWO_PI * K[:, j] * b
            self.W[n:, 1 + j] = TWO_PI * K[:, j] * a
        # theta_dot_j = sum m_j (a cos - b sin) I^{m - e_j}
        self.W_theta = [np.concatenate([M[:, j] * a, -M[:, j] * b]) for j in range(d)]

    def _table(self, theta, I):
        """[cos, sin] of 2 pi k.theta as an (N, 2, n) array, and the table I_j^p as (N, d, p)."""
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        I = np.atleast_2d(np.asarray(I, dtype=float))
        phase = TWO_PI * (theta @ self.Kt)
        cs = np.empty((theta.shape[0], 2, self.n))
        np.cos(phase, out=cs[:, 0])
        np.sin(phase, out=cs[:, 1])
        return cs, I[:, :, None] ** np.arange(self.pmax + 1)

    def _powers(self, pw, exps):
        """prod_j I_j^{e_j} per point, for exponent rows exps[..., term, j]."""
        P = pw[:, 0, exps[..., 0]]
        for j in range(1, self.d):
            P *= pw[:, j, exps[..., j]]
        return P

    @staticmethod
    def _weighted(cs, P, W):
        """[cos P, sin P] @ W, for P of shape (N, 1, n)."""
        N, _, n = cs.shape
        return (cs * P).reshape(N, 2 * n) @ W

    def __call__(self, theta, I):
        cs, pw = self._table(theta, I)
        P = self._powers(pw, self.exps)
        I_dot = self._weighted(cs, P[:, :1], self.W)[:, 1:]
        theta_dot = np.empty_like(I_dot)
        for j in range(self.d):
            theta_dot[:, j] = self._weighted(cs, P[:, 1 + j : 2 + j], self.W_theta[j])
        return theta_dot, I_dot

    def energy(self, theta, I):
        cs, pw = self._table(theta, I)
        return self._weighted(cs, self._powers(pw, self.exps[:1]), self.W[:, 0])
