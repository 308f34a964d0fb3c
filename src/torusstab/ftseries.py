"""Sparse Fourier-Taylor series algebra on T^d x R^d.

A series is a finite map (k, m) -> c representing

    f(theta, I) = sum c_{k,m} e^{2 pi i k.theta} I^m,

with k an integer Fourier mode and m a non-negative Taylor multi-index.
The torus is R^d/Z^d, so small divisors carry a 2 pi factor.  Storage is
canonical: zero coefficients are never kept, and two series are equal iff
their term maps are equal.  A real-valued series satisfies
c_{-k,m} = conj(c_{k,m}) for every stored term.

Weighted norms use the computable coefficient majorant

    |||f|||_{sigma,rho} = sum |c_{k,m}| rho^{|m|_1} e^{sigma |k|_1},

an upper bound for the sup-over-polydisc Fourier norm; this majorant is the
norm used by every certificate in the package.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import RealityViolationError

TWO_PI = 2.0 * math.pi

TruncationResult = namedtuple("TruncationResult", ["series", "dropped_mass"])


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
        """Majorant weight rho^{|m|_1} e^{sigma |k|_1} of a term of orders (nk, nm)."""
        return self.rho**nm * math.exp(self.sigma * nk)


class FourierTaylorSeries:
    """Immutable sparse series; all operations return new values."""

    __slots__ = ("d", "_terms")

    def __init__(self, d, terms=None):
        d = int(d)
        if d < 1:
            raise ValueError("dimension must be >= 1")
        acc = {}
        if terms:
            for (k, m), c in terms.items():
                k = tuple(int(v) for v in k)
                m = tuple(int(v) for v in m)
                if len(k) != d or len(m) != d:
                    raise ValueError(f"index length mismatch for d={d}: k={k}, m={m}")
                if any(v < 0 for v in m):
                    raise ValueError(f"Taylor multi-index must be non-negative, got {m}")
                c = complex(c)
                if c != 0:
                    key = (k, m)
                    acc[key] = acc.get(key, 0j) + c
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_terms", {key: c for key, c in acc.items() if c != 0})

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
        return MappingProxyType(self._terms)

    def items(self):
        return self._terms.items()

    def sorted_items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, FourierTaylorSeries):
            return NotImplemented
        return self.d == other.d and self._terms == other._terms

    def __hash__(self):
        return hash((self.d, frozenset(self._terms.items())))

    def __repr__(self):
        return f"FourierTaylorSeries(d={self.d}, nterms={len(self._terms)})"

    # -- algebra --------------------------------------------------------------

    def _check_same_d(self, other):
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FourierTaylorSeries.constant(self.d, other)
        self._check_same_d(other)
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, 0j) + c
        return FourierTaylorSeries(self.d, acc)

    __radd__ = __add__

    def __neg__(self):
        return FourierTaylorSeries(self.d, {key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, FourierTaylorSeries) else -complex(other))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return FourierTaylorSeries(
                self.d, {key: c * other for key, c in self._terms.items()}
            )
        self._check_same_d(other)
        acc = {}
        for (k1, m1), c1 in self._terms.items():
            for (k2, m2), c2 in other._terms.items():
                key = (
                    tuple(a + b for a, b in zip(k1, k2)),
                    tuple(a + b for a, b in zip(m1, m2)),
                )
                acc[key] = acc.get(key, 0j) + c1 * c2
        return FourierTaylorSeries(self.d, acc)

    __rmul__ = __mul__

    # -- calculus -------------------------------------------------------------

    def partial_theta(self, axis):
        """Exact d/d theta_axis: multiplies c_{k,m} by 2 pi i k_axis."""
        if not 0 <= axis < self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        acc = {}
        for (k, m), c in self._terms.items():
            if k[axis] != 0:
                acc[(k, m)] = c * (TWO_PI * 1j * k[axis])
        return FourierTaylorSeries(self.d, acc)

    def partial_I(self, axis):
        """Exact d/d I_axis: shifts m_axis down with factor m_axis."""
        if not 0 <= axis < self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        acc = {}
        for (k, m), c in self._terms.items():
            if m[axis] > 0:
                mm = tuple(v - 1 if j == axis else v for j, v in enumerate(m))
                key = (k, mm)
                acc[key] = acc.get(key, 0j) + c * m[axis]
        return FourierTaylorSeries(self.d, acc)

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
        kernel = HamiltonianVectorField(self, check_real=False)
        E, pw = kernel._phases_and_table(theta, I)
        P = kernel._powers(pw, kernel.M)[0]
        total = complex((E[0] * P) @ kernel.C)
        scale = float(np.abs(P) @ np.abs(kernel.C))
        if abs(total.imag) > reality_tol * max(scale, 1.0):
            raise RealityViolationError(
                f"imaginary residual {total.imag:.3e} exceeds {reality_tol:.1e} "
                f"relative to term mass {scale:.3e}"
            )
        return total.real

    # -- norms, truncation, structure ----------------------------------------

    def _orders(self):
        """(key, |k|_1, |m|_1, c) for every term."""
        for key, c in self._terms.items():
            yield key, sum(map(abs, key[0])), sum(key[1]), c

    def select(self, keep):
        """Sub-series of the terms with keep(|k|_1, |m|_1, c) true."""
        return FourierTaylorSeries(
            self.d, {key: c for key, nk, nm, c in self._orders() if keep(nk, nm, c)}
        )

    def mass(self, weight=None, where=None):
        """sum |c| weight(|k|_1, |m|_1) over the terms with where(|k|_1, |m|_1, c)
        true; weight defaults to 1 and where to every term.  inf on overflow."""
        total = 0.0
        try:
            for _, nk, nm, c in self._orders():
                if where is None or where(nk, nm, c):
                    total += abs(c) if weight is None else abs(c) * weight(nk, nm)
        except OverflowError:
            return math.inf
        return total

    def coefficient_mass(self):
        return self.mass()

    def weighted_norm(self, widths):
        """Coefficient majorant sum |c| rho^{|m|_1} e^{sigma |k|_1}; inf on overflow."""
        return self.mass(widths.weight)

    def truncate(self, kmax=None, mmax=None):
        """Drop |k|_1 > kmax or |m|_1 > mmax; reports the removed coefficient mass."""

        def cut(nk, nm, c):
            return (kmax is not None and nk > kmax) or (mmax is not None and nm > mmax)

        return TruncationResult(
            self.select(lambda nk, nm, c: not cut(nk, nm, c)), self.mass(where=cut)
        )

    def fourier_zero_part(self):
        return self.select(lambda nk, nm, c: nk == 0)

    def fourier_nonzero_part(self):
        return self.select(lambda nk, nm, c: nk > 0)

    def pure_angle_part(self):
        return self.select(lambda nk, nm, c: nm == 0)

    def is_pure_angle(self):
        return self.max_taylor_order() == 0

    def max_fourier_order(self):
        return max((nk for _, nk, _, _ in self._orders()), default=0)

    def min_taylor_order(self):
        return min((nm for _, _, nm, _ in self._orders()), default=0)

    def max_taylor_order(self):
        return max((nm for _, _, nm, _ in self._orders()), default=0)

    def taylor_monomials(self):
        """Sorted list of action multi-indices carrying at least one term."""
        return sorted({m for _, m in self._terms})

    def angle_coefficient(self, m):
        """The pure-angle coefficient series a_m(theta) of I^m."""
        m = tuple(m)
        z = (0,) * self.d
        return FourierTaylorSeries(
            self.d, {(k, z): c for (k, mm), c in self._terms.items() if mm == m}
        )

    def is_real(self, tol=1e-12):
        """Check c_{-k,m} = conj(c_{k,m}) up to tol relative to the total mass."""
        scale = max(self.coefficient_mass(), 1e-300)
        for (k, m), c in self._terms.items():
            mirror = self._terms.get((tuple(-v for v in k), m), 0j)
            if abs(mirror - c.conjugate()) > tol * scale:
                return False
        return True

    # -- serialization --------------------------------------------------------

    def to_text(self):
        """One term per line: `k_1 .. k_d | m_1 .. m_d | re im`.

        Floats are written with repr, so the round trip is bit-exact at double
        precision.  Lines starting with `#` are comments.
        """
        lines = [f"# d={self.d}"]
        for (k, m), c in self.sorted_items():
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


def theta_gradient_majorant(H, radius):
    """sup of ||d_theta H||_inf on the tube of the given action radius,
    as the coefficient majorant sum |c| 2 pi |k|_1 radius^{|m|_1}."""
    return H.mass(lambda nk, nm: TWO_PI * nk * radius**nm)


def _term_arrays(series):
    items = series.sorted_items()
    n = len(items)
    d = series.d
    K = np.zeros((n, d), dtype=np.int64)
    M = np.zeros((n, d), dtype=np.int64)
    C = np.zeros(n, dtype=complex)
    for i, ((k, m), c) in enumerate(items):
        K[i] = k
        M[i] = m
        C[i] = c
    return K, M, C


class HamiltonianVectorField:
    """Batched Hamiltonian vector field (theta_dot, I_dot) of a real series.

    theta_dot = dH/dI, I_dot = -dH/dtheta.  Built for long integration loops:
    one complex exponential per term per call, action powers from a cumulative
    table, shared across all gradient components.  The same kernel gives the
    energy and FourierTaylorSeries.evaluate.
    """

    def __init__(self, series, check_real=True):
        if check_real and not series.is_real(tol=1e-9):
            raise RealityViolationError("vector field requires a real-valued series")
        self.d = series.d
        self.K, self.M, self.C = _term_arrays(series)
        self.n = len(self.C)
        self.pmax = int(self.M.max()) if self.n else 0
        # per-axis coefficient arrays for the two gradients
        self.Ck = [self.C * (TWO_PI * 1j * self.K[:, j]) for j in range(self.d)]
        self.CI = [self.C * self.M[:, j] for j in range(self.d)]
        self.Mred = []
        for j in range(self.d):
            Mr = self.M.copy()
            Mr[:, j] = np.maximum(Mr[:, j] - 1, 0)
            self.Mred.append(Mr)

    def _phases_and_table(self, theta, I):
        """Phases e^{2 pi i k.theta} per point and term, and the table I_j^p."""
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        I = np.atleast_2d(np.asarray(I, dtype=float))
        E = np.exp(TWO_PI * 1j * (theta @ self.K.T))
        pw = np.empty((I.shape[0], self.d, self.pmax + 1))
        pw[:, :, 0] = 1.0
        for p in range(1, self.pmax + 1):
            pw[:, :, p] = pw[:, :, p - 1] * I
        return E, pw

    def _powers(self, pw, M):
        out = np.ones((pw.shape[0], len(M)))
        for j in range(self.d):
            out *= pw[:, j, :][:, M[:, j]]
        return out

    def __call__(self, theta, I):
        E, pw = self._phases_and_table(theta, I)
        N = E.shape[0]
        theta_dot = np.zeros((N, self.d))
        I_dot = np.zeros((N, self.d))
        EP = E * self._powers(pw, self.M)
        for j in range(self.d):
            I_dot[:, j] = -(EP @ self.Ck[j]).real
            theta_dot[:, j] = ((E * self._powers(pw, self.Mred[j])) @ self.CI[j]).real
        return theta_dot, I_dot

    def energy(self, theta, I):
        E, pw = self._phases_and_table(theta, I)
        return ((E * self._powers(pw, self.M)) @ self.C).real
