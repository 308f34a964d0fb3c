"""Sparse Fourier-Taylor series algebra on T^d x R^d.

A series is a finite map (k, m) -> c representing

    f(theta, I) = sum c_{k,m} e^{2 pi i k.theta} I^m,

with k an integer Fourier mode and m a non-negative Taylor multi-index.
The torus is R^d/Z^d, so small divisors carry a 2 pi factor.  The terms
are stored as three read-only arrays, K (n x d modes), M (n x d Taylor
indices) and C (n coefficients), sorted by (k, m) with no repeated key and
no zero coefficient; two series are equal iff their arrays are equal.
Each (k, m) is packed into one int64 key (Kronecker substitution in a mixed
radix from the columns' ranges; a ValueError names the spans if a key could
reach 2^63); n terms are merged by one sort of the distinct values
key * 2^b + row, 2^b >= n, in the keys' stable order (a stable argsort where
those could pass 2^63), and each key's terms are summed left to right, so one
merge of several parts gives the bits of adding them one by one.  A row
subset of a series is canonical as it stands.  A Poisson bracket is one
pass over the term pairs, all axes at once: the sum of a pair's keys, less
the place value of m_i, takes its axis-i entry with an exact integer weight,
and zero-weight entries are dropped.
A real-valued series satisfies c_{-k,m} = conj(c_{k,m}) for every stored
term.

Weighted norms use the computable coefficient majorant

    |||f|||_{sigma,rho} = sum |c_{k,m}| rho^{|m|_1} e^{sigma |k|_1},

an upper bound for the sup-over-polydisc Fourier norm; this majorant is the
norm used by every certificate in the package.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault, require_at_least, require_positive

TWO_PI = 2.0 * math.pi
# entries formed at once by a Poisson bracket (d per term pair), and by each
# temporary of a vector-field call: it bounds their working memory, whatever
# the operands' sizes or the number of rows
PAIR_BLOCK = 1 << 18


@dataclass(frozen=True)
class AnalyticityWidths:
    """Angle-strip half-width sigma and action-polydisc radius rho."""

    sigma: float
    rho: float

    def __post_init__(self):
        require_positive(sigma=self.sigma, rho=self.rho)

    def weight(self, nk, nm):
        """Majorant weights rho^{|m|_1} e^{sigma |k|_1} of terms of orders (nk, nm)."""
        return self.rho**nm * np.exp(self.sigma * nk)


class FourierTaylorSeries:
    """Immutable sparse series; all operations return new values."""

    __slots__ = ("d", "K", "M", "C", "_store")

    def __init__(self, d, terms=None):
        """Series from a map (k, m) -> c; the indices and coefficients are validated."""
        d = int(d)
        require_at_least(1, dimension=d)
        rows, coeffs = [], []
        for (k, m), c in (terms or {}).items():
            k = tuple(int(v) for v in k)
            m = tuple(int(v) for v in m)
            c = complex(c)
            if len(k) != d or len(m) != d:
                raise ValueError(f"index length mismatch for d={d}: k={k}, m={m}")
            if any(v < 0 for v in m):
                raise ValueError(f"Taylor multi-index must be non-negative, got {m}")
            if any(not -(1 << 63) <= v < 1 << 63 for v in k + m):
                raise ValueError(f"index does not fit int64: k={k}, m={m}")
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient must be finite, got {c!r} at k={k}, m={m}")
            rows.append(k + m)
            coeffs.append(c)
        KM = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * d)
        self._set(d, *_merge((KM[:, :d], KM[:, d:], np.array(coeffs, dtype=complex))))

    def _set(self, d, K, M, C, orders=()):
        """Store terms sorted by (k, m) with distinct keys, and their orders if known:
        signed zeros cleared (as 0j + c does), zero terms dropped (orders too), all locked."""
        C = C + 0j
        keep = C.nonzero()[0]
        if len(keep) < len(C):
            K, M, C, orders = K.take(keep, axis=0), M.take(keep, axis=0), C[keep], ()
        return self._lock(d, K, M, C, orders)

    def _lock(self, d, K, M, C, orders=()):
        """Store canonical terms and their orders if known, all locked; returns the series."""
        for a in (K, M, C, *orders):
            a.setflags(write=False)
        self.d, self.K, self.M, self.C = d, K, M, C
        self._store = {_term_orders: orders} if orders else {}
        return self

    def _derived(self, compute, *args):
        """compute(self, *args), never None, stored on this series per (compute,
        args): a series never changes.  A compute that raises stores nothing."""
        key = (compute, *args) if args else compute
        value = self._store.get(key)
        if value is None:
            value = self._store[key] = compute(self, *args)
        return value

    @classmethod
    def _of(cls, d, K, M, C, orders=()):
        """Series of terms already sorted by (k, m) with distinct keys."""
        return cls.__new__(cls)._set(d, K, M, C, orders)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, d, value):
        z = (0,) * d
        return cls(d, {(z, z): value})

    @classmethod
    def linear(cls, omega):
        """omega . I for a sequence of floats omega; split_linear reads omega back."""
        values = np.array(omega, dtype=complex)
        d = len(values)
        require_at_least(1, dimension=d)
        axes = values.nonzero()[0][::-1]  # e_i orders before e_j for i > j
        M = np.eye(d, dtype=np.int64)[axes]
        return cls._of(d, np.zeros_like(M), M, values[axes])

    # -- canonical access -----------------------------------------------------

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

    def __repr__(self):
        return f"FourierTaylorSeries(d={self.d}, nterms={len(self)})"

    # -- algebra --------------------------------------------------------------

    def _check_same_d(self, other):
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, numbers.Number):
            other = FourierTaylorSeries.constant(self.d, other)
        elif not isinstance(other, FourierTaylorSeries):
            return NotImplemented
        self._check_same_d(other)
        return self._of(self.d, *_merge((self.K, self.M, self.C), (other.K, other.M, other.C)))

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.d, self.K, self.M, -self.C)

    def __sub__(self, other):
        if not isinstance(other, (numbers.Number, FourierTaylorSeries)):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        """Scalar multiple; a series times a series is not defined here."""
        if not isinstance(other, numbers.Number):
            return NotImplemented
        return self._of(self.d, self.K, self.M, self.C * other)

    __rmul__ = __mul__
    # numpy defers to the operators above: a series times an array raises TypeError
    __array_ufunc__ = None

    # -- calculus -------------------------------------------------------------

    def poisson_bracket(self, other):
        """{f, g} = sum_i (d_theta_i f d_I_i g - d_I_i f d_theta_i g), in one
        pass over the term pairs.

        The pair of f's term a and g's term b gives, for each axis i,

            2 pi i c_a c_b (k_a,i m_b,i - m_a,i k_b,i)  at  (k_a + k_b, m_a + m_b - e_i).

        The weight in brackets is an exact integer; entries whose weight is 0
        (as every one with m_a,i + m_b,i = 0) are dropped before they are
        summed, so terms that cancel exactly leave no roundoff residue.  A
        block of at most PAIR_BLOCK entries forms them as (d, rows, len(g))
        tables, axis by axis, summed into the running result by one sort; exact
        zeros go before the keys unpack, and 2 pi i scales the other sums.
        """
        self._check_same_d(other)
        d, n = self.d, len(self)
        packed, D, places, spans, lo = _pack((self.K, self.M), (other.K, other.M), below=1)
        keys, C = packed[:0], self.C[:0]
        # per block of f's rows, (d, rows, len(other)) tables of every pair's
        # weight and key for axis 0, 1, ...: the pair's key less m_i's place
        rows = max(1, PAIR_BLOCK // (d * max(len(other), 1)))
        for r in range(0, n, rows):
            b = slice(r, min(r + rows, n))
            w = D[:d, b, None] * D[d:, None, n:] - D[d:, b, None] * D[:d, None, n:]
            nz = w.ravel().nonzero()[0]
            entry_keys = (packed[b, None] + packed[n:] - places[d:, None, None]).take(nz)
            entry = entry_keys, (self.C[b, None] * other.C * w).take(nz)
            if r:  # the running result first
                entry = np.concatenate((keys, entry[0])), np.concatenate((C, entry[1]))
            _, keys, C = _sort_sum(*entry, spans)
        nz = C.nonzero()[0]
        if len(nz) < len(C):
            keys, C = keys[nz], C[nz]
        # digit rows: key // place_j (by a scalar, several times faster than
        # by a column) less span_j times the row above, plus the lowest entry
        digits = np.empty((2 * d, len(C)), dtype=np.int64)
        for j, place in enumerate(places.tolist()):
            np.floor_divide(keys, place, out=digits[j])
        digits[1:] -= spans[1:, None] * digits[:-1]
        digits += lo[:, None]
        orders = np.add.reduce(np.abs(digits[:d])), np.add.reduce(digits[d:])
        KM = np.ascontiguousarray(digits.T)
        out = FourierTaylorSeries.__new__(FourierTaylorSeries)  # the + 0j clears signed zeros
        return out._lock(d, KM[:, :d], KM[:, d:], C * (TWO_PI * 1j) + 0j, orders)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, theta, I):
        """Pointwise value; raises if |imag| exceeds 1e-12 max(term mass, 1)."""
        theta = np.asarray(theta, dtype=float)
        I = np.asarray(I, dtype=float)
        if theta.shape != (self.d,) or I.shape != (self.d,):
            raise ValueError("point dimension mismatch")
        # the plain sum of c e^{2 pi i k.theta} I^m, independent of the
        # vector-field kernel so that each can check the other
        terms = self.C * np.exp(1j * TWO_PI * (self.K @ theta)) * np.prod(I**self.M, axis=1)
        value = complex(terms.sum())
        scale = float(np.abs(terms).sum())
        if abs(value.imag) > 1e-12 * max(scale, 1.0):
            raise NumericalFault(
                f"imaginary residual {value.imag:.3e} exceeds 1.0e-12 "
                f"relative to term mass {scale:.3e}"
            )
        return value.real

    # -- norms, selection, structure ----------------------------------------

    def _orders(self):
        """|k|_1 and |m|_1 of every term, read-only for callbacks; a hit is one dict lookup."""
        return self._store.get(_term_orders) or self._derived(_term_orders)

    def select(self, keep):
        """Sub-series of the terms where the mask keep(|k|_1, |m|_1, c) is true;
        keep receives one array entry per term."""
        return self._rows(keep(*self._orders(), self.C))

    def _rows(self, index):
        """Sub-series of the terms at a boolean mask or sorted row indices;
        rows of canonical terms are canonical, so they are only locked, with
        the rows of the orders if this series has them (and no other stored value)."""
        index = np.asarray(index)
        if index.dtype == bool:
            index = index.nonzero()[0]
        # take copies rows several times faster than indexing (n, d) arrays
        orders = self._store.get(_term_orders)
        orders = (orders[0][index], orders[1][index]) if orders else ()
        K, M = self.K.take(index, axis=0), self.M.take(index, axis=0)
        out = FourierTaylorSeries.__new__(FourierTaylorSeries)
        return out._lock(self.d, K, M, self.C[index], orders)

    def masses(self, weight=None):
        """|c| weight(|k|_1, |m|_1) of every term; weight receives arrays and
        defaults to 1, and a term whose weight overflows gets inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _masses(self, weight)

    def mass(self, weight=None):
        """sum |c| weight(|k|_1, |m|_1) over the terms; inf if a weight overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.add.reduce(_masses(self, weight)))

    def weighted_norm(self, widths):
        """Coefficient majorant sum |c| rho^{|m|_1} e^{sigma |k|_1}; inf on overflow."""
        return self.mass(widths.weight)

    def fourier_zero_part(self):
        return self.select(lambda nk, nm, c: nk == 0)

    def fourier_nonzero_part(self):
        return self.select(lambda nk, nm, c: nk > 0)

    def min_taylor_order(self):
        return int(self._orders()[1].min()) if self else 0

    def max_taylor_order(self):
        return int(self._orders()[1].max(initial=0))

    def is_real(self, tol=1e-12):
        """Check c_{-k,m} = conj(c_{k,m}) up to tol relative to the total mass."""
        # each term's mirror (-k, m) looked up among the sorted keys of the
        # terms, packed in one radix with the mirrors' keys
        n = len(self)
        keys = _pack((np.concatenate([self.K, -self.K]), np.vstack([self.M] * 2)))[0]
        at = np.searchsorted(keys[:n], keys[n:]).clip(max=n - 1)
        mirror = np.where(keys[at] == keys[n:], self.C[at].conj(), 0)
        # c_{k,m} - conj(c_{-k,m}), which is c_{k,m} without a mirror term
        return not np.any(np.abs(self.C - mirror) > tol * self.mass())

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
            try:
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("d="):
                        d = int(body[2:])
                    continue
                k_s, m_s, c_s = line.split("|")
                k = tuple(int(v) for v in k_s.split())
                m = tuple(int(v) for v in m_s.split())
                re_s, im_s = c_s.split()
                c = complex(float(re_s), float(im_s))
            except ValueError:
                raise ValueError(f"malformed series line: {raw!r}") from None
            if d is None:
                d = len(k)
            terms[k, m] = terms.get((k, m), 0j) + c
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


def _term_orders(series):
    ones = np.array([1] * series.d)  # an integer product is exact
    nk, nm = np.abs(series.K) @ ones, series.M @ ones
    nk.flags.writeable = nm.flags.writeable = False
    return nk, nm


def _masses(series, weight):  # masses' values, overflow unchecked
    a = np.abs(series.C)
    if weight is None:
        return a
    w = weight(*series._orders())
    if math.isfinite(np.add.reduce(w)):  # no weight is inf or nan
        a *= w
        return a
    return np.where(np.isfinite(w), a * w, math.inf)


def split_linear(H, owner):
    """The one split (omega, f) of H = omega.I + c_0 + f, stored on H: omega
    (read-only) is the real parts of H's k = 0, |m|_1 = 1 coefficients, f is H's
    other terms, less the real constant c_0 (an energy offset no flow or bound
    reads), with the imaginary parts of c_0 and omega as terms.  Unless f is real
    to 1e-9 of its mass (stored on f), NumericalFault names `owner`."""
    omega, f = H._derived(_split_of)
    if not f._derived(FourierTaylorSeries.is_real, 1e-9):
        raise NumericalFault(f"{owner} requires a real-valued series")
    return omega, f


def _split_of(H):
    nk, nm = H._orders()
    low = (nk == 0) & (nm <= 1)
    linear = low & (nm == 1)
    omega = np.zeros(H.d)
    omega[H.M[linear].argmax(axis=1)] = H.C[linear].real
    omega.flags.writeable = False
    return omega, FourierTaylorSeries._of(H.d, H.K, H.M, np.where(low, 1j * H.C.imag, H.C))


def _pack(*operands, below=0):
    """Pack the (k, m) rows of the (K, M) operands into int64 keys, in one mixed
    radix in which the operands' keys add up to the key of their sum and keys
    order as rows; the m columns reach `below` under the sum's minimum, so a
    sum's key less `below` m_i place values still unpacks.  Returns the keys
    of all rows, the operands' (2d, n) digit table side by side, and the place
    values, spans and lowest entries (arrays) that unpack a sum's key."""
    d = operands[0][0].shape[1]
    cuts = [0, *itertools.accumulate(len(K) for K, _ in operands)]
    D = np.empty((2 * d, cuts[-1]), dtype=np.int64)  # rows reduce faster than columns
    for (K, M), s, e in zip(operands, cuts, cuts[1:]):
        D[:d, s:e], D[d:, s:e] = K.T, M.T
    # each nonempty operand's lowest and highest digits; an empty one adds 0
    starts, counts = zip(*([(s, e - s) for s, e in zip(cuts, cuts[1:]) if e > s] or [(0, 1)]))
    lows = np.minimum.reduceat(D, starts, axis=1) if D.size else np.zeros((2 * d, 1), np.int64)
    highs = np.maximum.reduceat(D, starts, axis=1).tolist() if D.size else lows.tolist()
    if below:
        lows[d:, 0] -= below
    # the sum's lowest and highest entries, spans and place values, in Python ints
    lo, hi = [sum(v) for v in lows.tolist()], [sum(v) for v in highs]
    spans, places, total = [0] * 2 * d, [0] * 2 * d, 1
    for j in reversed(range(2 * d)):
        spans[j], places[j] = hi[j] - lo[j] + 1, total
        total *= spans[j]
    if total >= 1 << 63 or min(lo) < -(1 << 63) or max(hi) >= 1 << 63:
        raise ValueError(f"(k, m) keys overflow int64: column spans {spans}")
    places, spans, lo = np.array((places, spans, lo))
    # each digit times its place is below prod(spans) < 2^63, so is their sum
    return places @ (D - (lows.repeat(counts, 1) if counts[1:] else lows)), D, places, spans, lo


def _sort_sum(keys, C, spans, fold=False):
    """Stably sort terms by key and sum repeated keys, each key's terms in
    input order; returns the input row of every distinct key, the distinct
    keys in order and their sums.  The sums are np.add.reduceat's, or with
    `fold` the left-to-right ((x0 + x1) + x2) + ... of a chain of `+`, which
    reduceat rounds otherwise from three terms on.  The keys, all in
    [0, prod(spans)), are overwritten by the n distinct values
    key * 2^b + row, 2^b >= n, so any sort of them gives the stable order;
    where the values could pass 2^63 - 1, a stable argsort of the keys runs
    instead."""
    n = len(C)
    b = (n - 1).bit_length()
    if math.prod(spans.tolist()) << b <= 1 << 63:
        keys <<= b
        keys |= np.arange(n)
        keys.sort()
        order = keys & ((1 << b) - 1)  # each value's row
        keys >>= b
    else:
        order = keys.argsort(kind="stable")
        keys = keys[order]
    C = C[order]
    first = np.empty(len(C), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    if len(starts) < len(C):
        keys = keys[starts]
        C = _fold(C, starts) if fold else np.add.reduceat(C, starts)
    return order[starts], keys, C


def _fold(C, starts):
    """The sum of each run C[starts[j] : starts[j + 1]], left to right: one
    addition per run at each offset that some run reaches (np.add.reduceat's
    sums where no run has three terms)."""
    lengths = np.concatenate((starts[1:], [len(C)])) - starts
    if np.maximum.reduce(lengths, initial=0) < 3:
        return np.add.reduceat(C, starts)
    sums = C[starts]
    runs = (lengths > 1).nonzero()[0]
    offset = 1
    while len(runs):
        sums[runs] += C[starts[runs] + offset]
        offset += 1
        runs = runs[lengths[runs] > offset]
    return sums


def _merge(*parts):
    """Concatenate (K, M, C) term arrays, sort the terms by (k, m) and sum
    repeated keys, each key's terms left to right in input order: merging
    parts at once gives the bits of adding them one by one."""
    K, M, C = (np.concatenate(a) for a in zip(*parts))
    keys, _, _, spans, _ = _pack((K, M))
    rows, _, C = _sort_sum(keys, C, spans, fold=True)
    return K.take(rows, axis=0), M.take(rows, axis=0), C


def theta_gradient_majorant(H, radius):
    """sup of ||d_theta H||_inf on the tube of the given action radius,
    as the coefficient majorant sum |c| 2 pi |k|_1 radius^{|m|_1}."""
    return H.mass(lambda nk, nm: TWO_PI * nk * radius**nm)


class HamiltonianVectorField:
    """Batched Hamiltonian vector field of a series on z = [theta | I].

    field(z) maps the rows of an (N, 2d) array z = [theta | I] (or one point)
    to z_dot = [theta_dot | I_dot], with theta_dot = dH/dI and I_dot =
    -dH/dtheta, all real parts of the series sum.  A term whose mode k has a
    negative first nonzero entry is folded onto (-k, m, conj c) at
    construction, which leaves Re c e^{2 pi i k.theta} I^m unchanged, so for
    any series the kernel sums the half spectrum

        Re f = sum_m A_m(theta) I^m,
        A_m = sum_k (a cos 2 pi k.theta - b sin 2 pi k.theta),  c_{k,m} = a + ib.

    A call works on (columns, points) tables, so that every write, gather
    and sum runs along the batch: [cos ; sin] (2u x N) from one tan of the
    half phase pi k.theta per distinct mode k (u of them) and point, with
    each theta reduced once to theta - floor(theta), so the field is exactly
    1-periodic in theta; and I_j^p ((pmax + 1) d x N) by running products
    down the powers.  The weights have 1 + 2d row groups per
    distinct Taylor index m: A_m, m_j A_m and B_{m,j} = sum_k 2 pi k_j (b cos
    + a sin).  Their product with [cos ; sin], times the gathered action
    powers and summed over m, gives

        energy = sum_m A_m I^m,  theta_dot_j = sum_m m_j A_m I^{m - e_j},
        I_dot_j = sum_m B_{m,j} I^m.

    The weights are stored and applied in row blocks of consecutive Taylor
    indices.  A block holds at most PAIR_BLOCK entries (or the rows of one
    index) and only the columns of the modes its terms use, so the weights
    hold at most max(2 (1+2d), PAIR_BLOCK / u) entries per term.  field(z)
    and field.energy(z) (which takes the same stacked z) run in chunks of
    `rows` points, so that [cos ; sin], the power table and each block's
    products hold at most PAIR_BLOCK entries (or one point) whatever N is.
    FourierTaylorSeries.evaluate is the plain term sum, so it checks this
    kernel.  `n` counts the folded terms.
    """

    def __init__(self, series):
        self.d = d = series.d
        K, M, C = series.K, series.M, series.C
        first = K[np.arange(len(K)), (K != 0).argmax(axis=1)]  # 0 for k = 0
        neg = first < 0
        K, M, C = _merge((np.where(neg[:, None], -K, K), M, np.where(neg, C.conj(), C)))
        keep = C != 0
        K, M, C = K[keep], M[keep], C[keep]
        self.n = len(C)
        modes, mode = np.unique(K, axis=0, return_inverse=True)
        powers, power = np.unique(M, axis=0, return_inverse=True)
        u, v = len(modes), len(powers)
        self.modes = np.pi * modes  # (u x d): the half phase per turn of theta
        self.pmax = int(M.max(initial=0))
        # per row group, Taylor index and axis j, the row p d + j of I_j^p in the
        # power table: p = m_j for the energy and I_dot, m_j - 1 for theta_dot_j
        exps = np.repeat(powers[None], 1 + 2 * d, axis=0)
        for j in range(d):
            exps[1 + j, :, j] = np.maximum(powers[:, j] - 1, 0)
        exps = exps * d + np.arange(d)
        # weight rows per Taylor index: A_m, m_j A_m, then B_{m,j}
        a, b = C.real[:, None], C.imag[:, None]
        weights = np.hstack([a, M * a, TWO_PI * K * b])
        weights_sin = np.hstack([-b, -M * b, TWO_PI * K * a])
        width = max(1, PAIR_BLOCK // (2 * (1 + 2 * d) * max(u, 1)))
        order = np.argsort(power, kind="stable")
        bounds = np.searchsorted(power[order], np.arange(0, v + width, width))
        # points per chunk of a call, from the tallest temporary per point:
        # [cos ; sin], the power table, or a block's z_dot products
        widest = max(2 * u, d * (self.pmax + 1), 2 * d * min(width, v))
        self.rows = max(1, PAIR_BLOCK // widest)
        self.blocks = []
        for l0, lo, hi in zip(range(0, v, width), bounds[:-1], bounds[1:]):
            terms = order[lo:hi]
            cols, col = np.unique(mode[terms], return_inverse=True)
            ub, vb = len(cols), min(width, v - l0)
            W = np.zeros((1 + 2 * d, vb, 2 * ub))
            row = power[terms] - l0
            W[:, row, col] = weights[terms].T
            W[:, row, ub + col] = weights_sin[terms].T
            W = W.reshape((1 + 2 * d) * vb, 2 * ub)
            idx = exps[:, l0 : l0 + vb].reshape(-1, d).T
            cols = None if ub == u else np.concatenate([cols, u + cols])
            parts = [(W[s], idx[:, s].copy()) for s in (slice(vb), slice(vb, None))]
            self.blocks.append((cols, *parts))  # cols, the energy's part, z_dot's part

    def _angles(self, theta):
        """[cos ; sin] of 2 pi k.theta per distinct mode and point, as (2u, N),
        from t = tan(pi k.(theta - floor(theta))), a half phase within
        pi |k|_1: q = 2/(1 + t^2), cos = q - 1, sin = t q."""
        t = self.modes @ (theta - np.floor(theta)).T
        np.tan(t, out=t)
        cs = np.empty((2 * len(t), t.shape[1]))
        q, sin = cs[: len(t)], cs[len(t) :]
        np.divide(2.0, np.add(np.multiply(t, t, out=q), 1.0, out=q), out=q)
        np.multiply(t, q, out=sin)
        q -= 1.0  # q - 1 = cos
        return cs

    def _power_table(self, I):
        """I_j^p per point at row p d + j, by running products down p."""
        pw = np.empty((self.pmax + 1, self.d, len(I)))
        pw[0] = 1.0
        pw[1:] = I.T
        np.multiply.accumulate(pw, axis=0, out=pw)
        return pw.reshape(-1, len(I))

    def _sum(self, z, part, groups):
        """Each block's `part` of `groups` row groups at the rows of z, summed
        over m, as (groups, N), in chunks of at most `rows` points."""
        if len(z) > self.rows:
            chunks = range(0, len(z), self.rows)
            return np.hstack([self._sum(z[r : r + self.rows], part, groups) for r in chunks])
        cs = self._angles(z[:, : self.d])
        pw = self._power_table(z[:, self.d :])
        out = None
        for block in self.blocks:
            cols, (W, idx) = block[0], block[part]
            Q = W @ (cs if cols is None else cs[cols])
            P = pw.take(idx[0], axis=0)
            for j in range(1, self.d):
                P *= pw.take(idx[j], axis=0)
            Q *= P
            Q = np.add.reduce(Q.reshape(groups, -1, len(z)), axis=1)
            out = Q if out is None else np.add(out, Q, out=out)
        return np.zeros((groups, len(z))) if out is None else out

    def __call__(self, z):
        return self._sum(z if getattr(z, "ndim", 0) == 2 else np.atleast_2d(z), 2, 2 * self.d).T

    def energy(self, z):
        return self._sum(z if getattr(z, "ndim", 0) == 2 else np.atleast_2d(z), 1, 1)[0]
