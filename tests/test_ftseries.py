"""Sparse Fourier-Taylor algebra: arithmetic, calculus, norms, serialization."""

import functools
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from torusstab import dynamics, ftseries, stabpipe
from torusstab import (
    AnalyticityWidths,
    FourierTaylorSeries,
    HamiltonianVectorField,
    HolderClass,
    NormalFormParams,
    NumericalFault,
    TWO_PI,
    build_test_hamiltonian,
    holder_norm_majorant,
    resonant_normal_form,
    theta_gradient_majorant,
)
from torusstab.smoothing import sharp_cutoff
from series_helpers import cosine, partial_I, partial_theta, reference_masses

D = 2


def small_series(draw_terms):
    return FourierTaylorSeries(D, draw_terms)


@st.composite
def series_strategy(draw, max_terms=5, real=False):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    coeff = st.complex_numbers(
        min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
    )
    idx = st.integers(min_value=-3, max_value=3)
    mdx = st.integers(min_value=0, max_value=3)
    terms = {}
    for _ in range(n):
        k = (draw(idx), draw(idx))
        m = (draw(mdx), draw(mdx))
        c = draw(coeff)
        terms[(k, m)] = terms.get((k, m), 0j) + c
        if real:
            neg = tuple(-v for v in k)
            terms[(neg, m)] = terms.get((neg, m), 0j) + c.conjugate()
    return FourierTaylorSeries(D, terms)


@st.composite
def pooled_series(draw):
    """Up to 12 terms over 6 modes (two pairs of opposite ones) and 4 Taylor indices."""
    k = st.sampled_from([(0, 0), (1, 0), (-1, 0), (2, -1), (-2, 1), (0, 3)])
    m = st.sampled_from([(0, 0), (1, 0), (0, 2), (2, 1)])
    coeff = st.complex_numbers(
        min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
    )
    return FourierTaylorSeries(D, draw(st.dictionaries(st.tuples(k, m), coeff, max_size=12)))


class TestConstruction:
    def test_zero_coefficients_never_stored(self):
        f = FourierTaylorSeries(D, {((1, 0), (0, 0)): 1.0, ((0, 1), (0, 0)): 0.0})
        assert len(f) == 1

    def test_duplicate_keys_accumulate(self):
        f = FourierTaylorSeries(D, {((1, 0), (0, 0)): 1.0})
        g = f + f
        assert dict(g.items())[((1, 0), (0, 0))] == 2.0

    def test_cancellation_removes_term(self):
        f = FourierTaylorSeries(D, {((1, 0), (0, 0)): 1.0})
        assert not (f - f)
        assert (f - f) == FourierTaylorSeries(D)

    def test_negative_taylor_index_rejected(self):
        with pytest.raises(ValueError):
            FourierTaylorSeries(D, {((0, 0), (-1, 0)): 1.0})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FourierTaylorSeries(D, {((1,), (0,)): 1.0})

    def test_linear(self):
        f = FourierTaylorSeries.linear((2.0, 3.0))
        assert dict(f.items()) == {((0, 0), (1, 0)): 2.0, ((0, 0), (0, 1)): 3.0}

    def test_cosine_evaluates_to_cos(self):
        f = cosine(D, (1, 0), amplitude=2.0, phase=0.3)
        theta = (0.17, 0.5)
        expected = 2.0 * math.cos(TWO_PI * theta[0] + 0.3)
        assert f.evaluate(theta, (0.0, 0.0)) == pytest.approx(expected, abs=1e-14)

    def test_cosine_at_k_zero_is_one_real_term(self):
        # (k, m) and (-k, m) are one key at k = 0: the term is a cos(phase)
        f = cosine(D, (0, 0), amplitude=1.0, phase=0.5)
        assert f.items() == [(((0, 0), (0, 0)), complex(math.cos(0.5)))]

    def test_sine_evaluates_to_sin(self):
        f = cosine(D, (0, 1), phase=-0.5 * math.pi)
        theta = (0.1, 0.23)
        assert f.evaluate(theta, (0.0, 0.0)) == pytest.approx(
            math.sin(TWO_PI * theta[1]), abs=1e-14
        )


class TestAlgebra:
    def test_series_product_undefined(self):
        # the normal form needs brackets only; a product of two series raises
        f = cosine(D, (1, -1), m=(1, 0)) + 0.5
        g = FourierTaylorSeries(D, {((0, 0), (0, 2)): 3.0})
        with pytest.raises(TypeError):
            f * g
        with pytest.raises(TypeError):
            g * f
        # an array is not a scalar either, and numpy must not map over it
        with pytest.raises(TypeError):
            f * np.array([1.0, 2.0])
        with pytest.raises(TypeError):
            np.array([1.0, 2.0]) * f
        assert np.float64(2.0) * f == 2.0 * f
        # numpy scalars are scalars; an array (0-d too) or a string is not
        for two in (np.int64(2), np.float32(2.0)):
            assert f * two == two * f == 2.0 * f
            assert f + (two - 1) == (two - 1) + f == f + 1.0
            assert f - two == f - 2.0
        for other in ("x", None, np.array(2.0), np.array([1.0, 2.0])):
            for op in (lambda: f + other, lambda: f - other, lambda: f * other):
                with pytest.raises(TypeError):
                    op()

    @given(f=series_strategy(real=True), g=series_strategy(real=True))
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms_pointwise(self, f, g):
        theta, I = (0.3, 0.7), (0.5, -0.25)
        fg = (f + g).evaluate(theta, I)
        assert fg == pytest.approx(f.evaluate(theta, I) + g.evaluate(theta, I), abs=1e-9)

    def test_scalar_ops(self):
        f = FourierTaylorSeries(D, {((0, 0), (2, 0)): 1.0})
        assert (2.0 * f).evaluate((0, 0), (0.5, 0)) == pytest.approx(0.5)
        assert (f - 0.25).evaluate((0, 0), (0.5, 0)) == pytest.approx(0.0)


class TestCalculus:
    def test_partial_theta_exact(self):
        f = cosine(D, (2, -1))
        df = partial_theta(f, 0)
        theta = (0.13, 0.77)
        h = 1e-6
        fd = (
            f.evaluate((theta[0] + h, theta[1]), (0, 0))
            - f.evaluate((theta[0] - h, theta[1]), (0, 0))
        ) / (2 * h)
        assert df.evaluate(theta, (0, 0)) == pytest.approx(fd, rel=1e-8)

    def test_partial_I_exact(self):
        f = FourierTaylorSeries(D, {((0, 0), (3, 1)): 2.0})
        df = partial_I(f, 0)
        assert dict(df.items())[((0, 0), (2, 1))] == 6.0

    def test_mixed_partials_commute(self):
        f = cosine(D, (1, 2), m=(2, 1))
        a = partial_I(partial_theta(f, 0), 1)
        b = partial_theta(partial_I(f, 1), 0)
        assert a == b

    def test_poisson_bracket_sympy_oracle(self):
        # {cos(2 pi (t1 - t2)) I1^2, sin(2 pi t2) I1 I2} at
        # (t, I) = (1/7, 2/5, 3/10, -1/4); value frozen from a symbolic engine
        f = cosine(D, (1, -1), m=(2, 0))
        g = cosine(D, (0, 1), m=(1, 1), phase=-0.5 * math.pi)
        pb = f.poisson_bracket(g)
        val = pb.evaluate((1 / 7, 2 / 5), (3 / 10, -1 / 4))
        assert val == pytest.approx(-0.18262752210065241, rel=1e-13)

    @given(f=series_strategy(), g=series_strategy())
    @settings(max_examples=30, deadline=None)
    def test_bracket_antisymmetry(self, f, g):
        lhs = f.poisson_bracket(g)
        rhs = g.poisson_bracket(f)
        assert (lhs + rhs).mass() <= 1e-12 * max(lhs.mass() + rhs.mass(), 1.0)

    @given(f=series_strategy(max_terms=3), g=series_strategy(max_terms=3),
           h=series_strategy(max_terms=3))
    @settings(max_examples=15, deadline=None)
    def test_jacobi_identity(self, f, g, h):
        j = (
            f.poisson_bracket(g).poisson_bracket(h)
            + g.poisson_bracket(h).poisson_bracket(f)
            + h.poisson_bracket(f).poisson_bracket(g)
        )
        scale = max(f.mass() * g.mass() * h.mass(), 1.0)
        # floating-point cancellation only; exact identity over the rationals
        assert j.mass() <= 1e-9 * scale

    @given(
        k=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        m=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        n=st.integers(1, 4),
        c1=st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False),
        c2=st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False),
    )
    @example(k=(1, 2), m=(1, 2), n=3, c1=0.3 + 1.1j, c2=-0.7 + 0.2j)
    @settings(max_examples=40, deadline=None)
    def test_zero_weight_pairs_leave_no_residue(self, k, m, n, c1, c2):
        # every axis weight k_i n m_i - m_i n k_i is exactly 0, so the
        # bracket is empty, not a roundoff residue at (k + n k, m + n m - e_i)
        f = FourierTaylorSeries(D, {(k, m): c1})
        g = FourierTaylorSeries(D, {(tuple(n * v for v in k), tuple(n * v for v in m)): c2})
        assert not f.poisson_bracket(g)


class TestNormsAndStructure:
    def test_weighted_norm_hand_value(self):
        # |c| rho^{|m|} e^{sigma |k|}: 2 * 0.5^3 * e^{0.2 * 3}
        f = FourierTaylorSeries(D, {((2, -1), (1, 2)): 2.0})
        w = AnalyticityWidths(0.2, 0.5)
        assert f.weighted_norm(w) == pytest.approx(2.0 * 0.125 * math.exp(0.6), rel=1e-15)

    def test_weighted_norm_overflow_is_inf(self):
        f = FourierTaylorSeries(D, {((500, 0), (0, 0)): 1.0})
        assert f.weighted_norm(AnalyticityWidths(5.0, 1.0)) == math.inf

    @given(f=series_strategy(), g=series_strategy())
    @settings(max_examples=40, deadline=None)
    def test_norm_triangle_and_homogeneity(self, f, g):
        w = AnalyticityWidths(0.3, 0.7)
        assert (f + g).weighted_norm(w) <= f.weighted_norm(w) + g.weighted_norm(w) + 1e-12
        assert (f * 2.5).weighted_norm(w) == pytest.approx(
            2.5 * f.weighted_norm(w), rel=1e-12, abs=1e-300
        )

    @given(f=series_strategy())
    @settings(max_examples=40, deadline=None)
    def test_norm_monotone_in_widths(self, f):
        small = AnalyticityWidths(0.1, 0.4)
        big = AnalyticityWidths(0.2, 0.8)
        assert f.weighted_norm(small) <= f.weighted_norm(big) * (1 + 1e-12) + 1e-300

    @given(
        f=series_strategy(max_terms=8),
        sigma=st.floats(0.01, 500.0),
        rho=st.floats(1e-300, 10.0),
    )
    @example(f=cosine(D, (1, 0), m=(1, 1)), sigma=0.3, rho=0.7)  # finite weights
    @example(f=cosine(D, (3, 0)), sigma=300.0, rho=0.7)  # e^{900} overflows to inf
    # 0 * inf is nan, beside a finite weight e^{300}
    @example(f=cosine(D, (3, 0), m=(2, 0)) + cosine(D, (1, 0)), sigma=300.0, rho=1e-200)
    @settings(max_examples=80, deadline=None)
    def test_masses_match_the_general_rule_bit_for_bit(self, f, sigma, rho):
        # finite weights are multiplied in place; otherwise a term whose
        # weight is not finite gets inf
        weight = AnalyticityWidths(sigma, rho).weight
        got = f.masses(weight)
        assert got.tobytes() == reference_masses(f, weight).tobytes()

    def test_parts_partition(self):
        f = cosine(D, (1, 0), m=(1, 0)) + FourierTaylorSeries(
            D, {((0, 0), (2, 0)): 1.0}
        )
        assert f.fourier_zero_part() + f.fourier_nonzero_part() == f

    def test_angle_coefficient(self):
        # the only I^m with |m|_1 = 2 carries a_m = 3 cos(2 pi theta_1)
        a_m = cosine(D, (1, 0), m=(2, 0), amplitude=3.0)
        f = a_m + cosine(D, (1, 1), m=(0, 3))
        assert f.select(lambda nk, nm, c: nm == 2) == a_m
        assert a_m.mass() == pytest.approx(3.0)

    def test_is_real(self):
        f = cosine(D, (1, -2))
        assert f.is_real()
        g = FourierTaylorSeries(D, {((1, 0), (0, 0)): 1j})
        assert not g.is_real()

    def test_reality_violation_raised(self):
        g = FourierTaylorSeries(D, {((1, 0), (0, 0)): 1j})
        with pytest.raises(NumericalFault, match="imaginary residual .* exceeds"):
            g.evaluate((0.1, 0.2), (0, 0))


def l1(v):
    return sum(abs(x) for x in v)


def close(a, b):
    # Relative rounding bounds hold only above the smallest normal double;
    # below it a regrouped product differs from the reference by whole
    # subnormal steps, so the comparison is absolute there.
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=sys.float_info.min)


class TestSharedReductions:
    """Every order-weighted reduction against its per-term reference sum."""

    @given(
        f=series_strategy(max_terms=8),
        sigma=st.floats(0.05, 2.0),
        rho=st.floats(0.05, 2.0),
        s=st.floats(0.05, 1.0),
        p=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_reductions_match_reference_sums(self, f, sigma, rho, s, p):
        terms = list(f.items())
        assert close(
            f.weighted_norm(AnalyticityWidths(sigma, rho)),
            sum(abs(c) * rho ** sum(m) * math.exp(sigma * l1(k)) for (k, m), c in terms),
        )
        assert close(
            theta_gradient_majorant(f, rho),
            sum(abs(c) * TWO_PI * l1(k) * rho ** sum(m) for (k, m), c in terms),
        )
        assert close(
            sharp_cutoff(f, s)[1].mass(lambda nk, nm: (TWO_PI * nk) ** p),
            sum(abs(c) * (TWO_PI * l1(k)) ** p for (k, m), c in terms if l1(k) > 1.0 / s),
        )
        g = f.select(lambda nk, nm, c: nm == 0)
        hc = HolderClass(6.5, 2)
        assert close(
            holder_norm_majorant(g, hc),
            (1.0 + 2.0 ** (1.0 - hc.mu))
            * sum(abs(c) * (1.0 + (TWO_PI * l1(k)) ** hc.ell) for (k, _), c in g.items()),
        )
        assert close(
            sharp_cutoff(g, s)[1].mass(),
            sum(abs(c) for (k, _), c in g.items() if l1(k) > 1.0 / s),
        )


def dict_product(f, g):
    """Per-term reference product: every term pair summed into a dict."""
    acc = {}
    for (k1, m1), c1 in f.items():
        for (k2, m2), c2 in g.items():
            key = (
                tuple(a + b for a, b in zip(k1, k2)),
                tuple(a + b for a, b in zip(m1, m2)),
            )
            acc[key] = acc.get(key, 0j) + c1 * c2
    return FourierTaylorSeries(D, acc)


def dict_sum(f, g, sign=1.0):
    acc = dict(f.items())
    for key, c in g.items():
        acc[key] = acc.get(key, 0j) + sign * c
    return FourierTaylorSeries(D, acc)


def dict_partial_theta(f, axis):
    return FourierTaylorSeries(
        D, {(k, m): c * (TWO_PI * 1j * k[axis]) for (k, m), c in f.items()}
    )


def dict_partial_I(f, axis):
    acc = {}
    for (k, m), c in f.items():
        if m[axis] > 0:
            mm = tuple(v - 1 if j == axis else v for j, v in enumerate(m))
            acc[(k, mm)] = acc.get((k, mm), 0j) + c * m[axis]
    return FourierTaylorSeries(D, acc)


def dict_bracket(f, g):
    out = FourierTaylorSeries(D)
    for i in range(D):
        out = dict_sum(out, dict_product(dict_partial_theta(f, i), dict_partial_I(g, i)))
        out = dict_sum(
            out, dict_product(dict_partial_I(f, i), dict_partial_theta(g, i)), -1.0
        )
    return out


def assert_matches(result, reference, scale):
    # the array store may sum repeated keys in another order than the dict
    assert (result - reference).mass() <= 1e-13 * max(scale, 1e-300)


class TestArrayStore:
    """The sorted (K, M, C) arrays against the per-term dict algebra."""

    def _check(self, f, g):
        def mass(a, b):  # sum |c_a| |c_b| over the term pairs of a and b
            return a.mass() * b.mass()

        assert_matches(f + g, dict_sum(f, g), f.mass() + g.mass())
        bracket_mass = sum(
            mass(partial_theta(f, i), partial_I(g, i)) + mass(partial_I(f, i), partial_theta(g, i))
            for i in range(D)
        )
        assert_matches(f.poisson_bracket(g), dict_bracket(f, g), bracket_mass)

    @given(f=series_strategy(max_terms=8), g=series_strategy(max_terms=8))
    @settings(max_examples=40, deadline=None)
    def test_algebra_matches_dict_reference(self, f, g):
        self._check(f, g)

    @given(f=series_strategy(max_terms=8), g=series_strategy(max_terms=8))
    @settings(max_examples=20, deadline=None)
    def test_blocked_bracket_matches_dict_reference(self, f, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ftseries, "PAIR_BLOCK", 3)
            self._check(f, g)

    def test_store_is_sorted_and_read_only(self):
        f = cosine(D, (2, -1), m=(1, 0)) + FourierTaylorSeries(
            D, {((0, 0), (0, 2)): 1.0}
        )
        keys = [k + m for (k, m), _ in f.items()]
        assert keys == sorted(set(keys))
        with pytest.raises(ValueError):
            f.C[0] = 5.0
        with pytest.raises(ValueError):
            f.K[0, 0] = 5

    def test_kept_orders_are_read_only(self):
        # select and masses pass the kept |k|_1 and |m|_1 to their callbacks:
        # one that writes into them is refused and changes no later call
        f = cosine(D, (2, -1), m=(1, 0)) + FourierTaylorSeries(
            D, {((0, 0), (0, 2)): 1.0}
        )
        nonzero = f.select(lambda nk, nm, c: nk > 0)
        masses = f.masses(lambda nk, nm: 2.0**nk)

        def bump(nk, nm, *c):
            nk += 1
            return nk > 0

        for call in (lambda: f.select(bump), lambda: f.masses(bump)):
            with pytest.raises(ValueError, match="read-only"):
                call()
        assert f.select(lambda nk, nm, c: nk > 0) == nonzero
        assert np.array_equal(f.masses(lambda nk, nm: 2.0**nk), masses)
        assert f._orders() is f._orders()  # computed once per series

    @given(f=series_strategy(max_terms=8, real=True))
    @settings(max_examples=40, deadline=None)
    def test_vector_field_folds_conjugate_pairs(self, f):
        # a real series stores each k != 0 term beside its conjugate at -k
        k_zero = int(np.count_nonzero(~f.K.any(axis=1)))
        assert HamiltonianVectorField(f).n == (len(f) + k_zero) // 2
        assert (len(f) + k_zero) % 2 == 0

    @given(f=series_strategy(max_terms=6), real=st.booleans(), tol=st.sampled_from([0.0, 1e-12, 0.5]))
    @example(  # |gap| = tol * scale exactly, where abs() and np.abs() differ by one ulp
        f=FourierTaylorSeries(
            D, {((0, 0), (0, 0)): 1.5 + 0.8125j, ((0, 1), (0, 0)): 0.8125 + 1.5j}
        ),
        real=False,
        tol=0.5,
    )
    @example(  # a mass below 1e-300: tol * mass has no floor
        f=FourierTaylorSeries(D, {((0, 0), (0, 0)): 2.2250738585e-313j}), real=False, tol=1e-12
    )
    @settings(max_examples=60, deadline=None)
    def test_is_real_matches_mirror_check(self, f, real, tol):
        if real:
            f = f + mirror(f)
        terms = dict(f.items())
        scale = f.mass()
        expected = all(
            np.abs(terms.get((tuple(-v for v in k), m), 0j) - c.conjugate()) <= tol * scale
            for (k, m), c in terms.items()
        )
        assert f.is_real(tol=tol) == expected


def lexsort_merge(*parts, fold=True):
    """Reference canonicaliser: a four-key lexsort of the (k, m) columns and
    a row-wise key comparison, with the same stable order of repeated keys,
    summed by Python's left-to-right `+` (a merge) or, with fold=False, by
    np.add.reduceat (a bracket)."""
    K, M, C = (np.concatenate(a) for a in zip(*parts))
    KM = np.hstack([K, M])
    order = np.lexsort(KM.T[::-1])
    KM, C = KM[order], C[order]
    first = np.ones(len(C), dtype=bool)
    first[1:] = np.any(KM[1:] != KM[:-1], axis=1)
    starts = np.flatnonzero(first)
    if len(starts) < len(C):
        if fold:
            C = np.array([functools.reduce(operator.add, run.tolist())
                          for run in np.split(C, starts[1:])], dtype=complex)
        else:
            C = np.add.reduceat(C, starts)
    rows = order[starts]
    return K[rows], M[rows], C


def arrays(f):
    return f.K, f.M, f.C


def lexsort_sum(f, g):
    return FourierTaylorSeries._of(f.d, *lexsort_merge(arrays(f), arrays(g)))


def lexsort_bracket(f, g):
    """Reference bracket in the one-pass order: per block of PAIR_BLOCK
    entries, each pair's entry for axis 0, then axis 1, ..., at
    (k_a + k_b, m_a + m_b - e_i) with the integer weight
    k_a,i m_b,i - m_a,i k_b,i (zero weights dropped), merged into the
    running result; 2 pi i multiplies the final sums."""
    d = f.d
    K, M, C = f.K[:0], f.M[:0], f.C[:0]
    rows = max(1, ftseries.PAIR_BLOCK // (d * max(len(g), 1)))
    for r in range(0, len(f), rows):
        block = slice(r, r + rows)
        pair_K = (f.K[block, None] + g.K).reshape(-1, d)
        pair_M = (f.M[block, None] + g.M).reshape(-1, d)
        pair_C = (f.C[block, None] * g.C).ravel()
        parts = [(K, M, C)]
        for i in range(d):
            w = (f.K[block, None, i] * g.M[:, i] - f.M[block, None, i] * g.K[:, i]).ravel()
            nz = w != 0
            e_i = np.eye(d, dtype=np.int64)[i]
            parts.append((pair_K[nz], pair_M[nz] - e_i, pair_C[nz] * w[nz]))
        K, M, C = lexsort_merge(*parts, fold=False)
    return FourierTaylorSeries._of(d, K, M, C * (TWO_PI * 1j))


def lexsort_is_real(f, tol):
    _, _, gap = lexsort_merge(arrays(f), (-f.K, f.M, -f.C.conj()))
    return not np.any(np.abs(gap) > tol * f.mass())


def merge_is_real(f, tol):
    """is_real as one merge defines it: c_{k,m} - conj(c_{-k,m}) at every key
    of f or of its mirror."""
    _, _, gap = ftseries._merge(arrays(f), (-f.K, f.M, -f.C.conj()))
    return not np.any(np.abs(gap) > tol * f.mass())


@st.composite
def shared_key_parts(draw):
    """Three to six series over one pool of keys; a part may be the negated
    running sum of the parts before it, so that every key cancels exactly."""
    parts = [draw(pooled_series()) for _ in range(2)]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        cancel = draw(st.booleans())
        parts.append(-functools.reduce(operator.add, parts) if cancel else draw(pooled_series()))
    return parts


def assert_same_terms(got, want):
    """Equal K and M, and equal bits of every coefficient."""
    for a, b in zip(got[:2], want[:2]):
        assert a.shape == b.shape and np.array_equal(a, b)
    bits = [np.ascontiguousarray(c).view(np.int64) for c in (got[2], want[2])]
    assert np.array_equal(*bits)


WIDE = 1 << 20


@st.composite
def term_arrays(draw, bounds, max_rows=40):
    """Unsorted (K, M, C) term arrays with repeated keys; column j of K lies
    in [-bounds[j], bounds[j]] and often at its ends, M in [0, 2]."""
    d = len(bounds)
    k = st.tuples(*(st.sampled_from([-b, -1, 0, 1, b]) | st.integers(-b, b) for b in bounds))
    m = st.tuples(*(st.integers(0, 2),) * d)
    coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(k, m, coeff), max_size=max_rows))
    K = np.array([r[0] for r in rows], dtype=np.int64).reshape(-1, d)
    M = np.array([r[1] for r in rows], dtype=np.int64).reshape(-1, d)
    return K, M, np.array([r[2] for r in rows], dtype=complex)


@st.composite
def packed_key_cases(draw):
    """Dimension 1-3 and three term arrays; up to two mode columns reach
    |k| = 2^20, so that the keys of a bracket still fit in int64."""
    d = draw(st.integers(min_value=1, max_value=3))
    wide = draw(st.sets(st.integers(min_value=0, max_value=d - 1), max_size=2))
    bounds = [WIDE if j in wide else 3 for j in range(d)]
    return d, [draw(term_arrays(bounds)) for _ in range(3)]


def empty_case(d):
    empty = (np.zeros((0, d), dtype=np.int64),) * 2 + (np.zeros(0, dtype=complex),)
    return d, [empty] * 3


def wide_case():
    """d = 2, both mode columns at +-2^27 and 20 distinct (k, m), repeated
    over 40 rows per part: every key fits int64, but key * n + row can reach
    2^63 for the n terms of each merge, sum, is_real check and bracket of
    the test, so each of them runs the stable argsort."""
    B = 1 << 27
    modes = np.array([(-B, -B), (B, B), (-B, B), (0, 1), (B, 0)])
    indices = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])
    rng = np.random.default_rng(0)
    return 2, [
        (modes[rng.integers(5, size=40)], indices[rng.integers(4, size=40)],
         rng.standard_normal(40) + 1j * rng.standard_normal(40))
        for _ in range(3)
    ]


def cancel_case():
    """d = 2; g is f plus one term, so the bracket's entries from f's pairs
    (a, a') and (a', a) cancel to exactly 0 beside the surviving entries of
    the added term."""
    f = (np.array([(1, 0), (0, 1)]), np.array([(0, 1), (1, 0)]), np.array([1.5 + 0.5j, -2.0]))
    g = tuple(np.concatenate((a, b)) for a, b in zip(f, ([(2, 0)], [(1, 1)], [0.25j])))
    return 2, [f, g, f]


class TestPackedKeys:
    """The packed int64 keys against the lexsort canonicaliser, bit for bit."""

    @pytest.mark.parametrize("block", [None, 3])
    @given(case=packed_key_cases())
    @example(case=empty_case(2))
    @example(case=empty_case(3))
    @example(case=wide_case())
    @example(case=cancel_case())
    # no shrink phase: shrinking a failing case of this test can take
    # minutes, and the unshrunk case shows the same fault
    @settings(max_examples=60, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate],
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_lexsort_reference_bit_for_bit(self, monkeypatch, block, case):
        if block is not None:
            monkeypatch.setattr(ftseries, "PAIR_BLOCK", block)
        d, parts = case
        assert_same_terms(ftseries._merge(*parts), lexsort_merge(*parts))
        f, g, h = (FourierTaylorSeries._of(d, *lexsort_merge(p)) for p in parts)
        assert_same_terms(arrays(f + g), arrays(lexsort_sum(f, g)))
        assert_same_terms(arrays(f.poisson_bracket(g)), arrays(lexsort_bracket(f, g)))
        # h plus its conjugate terms at -k is real up to the rounding of sums
        near_real = FourierTaylorSeries._of(d, *lexsort_merge(parts[2], (-h.K, h.M, h.C.conj())))
        for series in (f, near_real):
            for tol in (0.0, 1e-15, 1e-12, 0.5):
                assert series.is_real(tol=tol) == lexsort_is_real(series, tol)

    @pytest.mark.parametrize("n, span", [(32, 1 << 58), (27, ((1 << 63) + 1) // 27)])
    def test_sort_sum_on_each_side_of_the_composite_limit(self, n, span):
        """span * n = 2^63: the largest value key * n + row is 2^63 - 1 and
        the composite sort runs; span * n = 2^63 + 1: it would overflow and
        the stable argsort runs.  Both give Python's stable order."""
        assert span * n == (1 << 63) + n % 2
        rng = np.random.default_rng(n)
        keys = rng.choice(np.array([0, 7, span // 2, span - 1]), size=n)
        keys[-1] = span - 1
        C = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        order = sorted(range(n), key=keys.tolist().__getitem__)
        starts = [i for i in range(n) if i == 0 or keys[order[i]] != keys[order[i - 1]]]
        rows = [order[i] for i in starts]
        got = ftseries._sort_sum(keys.copy(), C, np.array([span]))
        assert got[0].tolist() == rows
        assert got[1].tolist() == keys[rows].tolist()
        sums = np.add.reduceat(C[order], starts)
        assert np.array_equal(got[2].view(np.int64), sums.view(np.int64))

    @given(f=pooled_series(), g=pooled_series())
    @example(f=cosine(D, (1, 0), m=(1, 0)), g=FourierTaylorSeries(D))
    @settings(max_examples=40, deadline=None)
    def test_bracket_stores_its_orders(self, f, g):
        # the bracket's |k|_1 and |m|_1 come from its digit rows, not from
        # _term_orders: they must agree, read-only, and nothing else is stored
        bracket = f.poisson_bracket(g)
        assert list(bracket._store) == [ftseries._term_orders]
        fresh = ftseries._term_orders(bracket)
        for kept, want in zip(bracket._orders(), fresh):
            assert not kept.flags.writeable and kept.dtype == want.dtype
            assert np.array_equal(kept, want)

    def test_key_overflow_rejected_by_name(self):
        big = 1 << 31
        with pytest.raises(ValueError, match=r"column spans \[4294967297, 4294967297, 1, 1\]"):
            FourierTaylorSeries(D, {((big, big), (0, 0)): 1.0, ((-big, -big), (0, 0)): 1.0})
        # each operand's keys fit, the bracket's do not
        half = cosine(D, (1 << 30, 1 << 30))
        with pytest.raises(ValueError, match=r"column spans \[4294967297, 4294967297, 2, 2\]"):
            half.poisson_bracket(half)


class TestOneMerge:
    """A merge of several parts sums each key's terms in input order, left
    to right, as a chain of `+` does; rows of a series stay canonical."""

    @given(parts=shared_key_parts())
    @example(parts=[
        FourierTaylorSeries(D, {((1, 0), (0, 0)): c}) for c in (1.0, 1e-17, -1.0, 3.0)
    ])
    @example(parts=[  # one key sums to exactly 0 between two that survive
        FourierTaylorSeries(D, {((0, 0), (1, 0)): 2.0, ((1, 0), (0, 0)): 0.5,
                                ((2, 0), (0, 0)): 1j}),
        FourierTaylorSeries(D, {((1, 0), (0, 0)): -0.5}),
    ])
    @settings(max_examples=80, deadline=None)
    def test_merge_equals_adding_the_parts_in_order(self, parts):
        merged = FourierTaylorSeries._of(D, *ftseries._merge(*map(arrays, parts)))
        folded = functools.reduce(operator.add, parts)
        assert_same_terms(arrays(merged), arrays(folded))
        assert np.all(merged.C != 0)  # a key that sums to 0 is dropped

    @given(
        f=pooled_series(),
        kind=st.sampled_from(["real", "near-real", "complex"]),
        tol=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 0.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_is_real_matches_merge_definition(self, f, kind, tol):
        if kind == "real":
            f = f + mirror(f)
        elif kind == "near-real":
            f = f + mirror(f) * (1.0 + 2.0**-40)
        assert f.is_real(tol=tol) == merge_is_real(f, tol)

    @given(f=pooled_series(), nk_max=st.integers(0, 4), nm_min=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_select_rows_are_canonical(self, f, nk_max, nm_min):
        g = f.select(lambda nk, nm, c: (nk <= nk_max) & (nm >= nm_min))
        assert not any(a.flags.writeable for a in (g.K, g.M, g.C, *g._orders()))
        # the selection keeps the rows of f's orders, and nothing else f
        # stores: they are g's own orders
        assert list(g._store) == [ftseries._term_orders]
        fresh = (np.abs(g.K).sum(axis=1), g.M.sum(axis=1))
        assert all(np.array_equal(a, b) for a, b in zip(g._orders(), fresh))
        keys = [tuple(k + m) for k, m in zip(g.K.tolist(), g.M.tolist())]
        assert keys == sorted(set(keys))
        assert np.all(g.C != 0)
        kept = {(k, m): c for (k, m), c in f.items() if l1(k) <= nk_max and sum(m) >= nm_min}
        assert g == FourierTaylorSeries(D, kept)


class TestSplitLinear:
    """ftseries.split_linear, the one split of H = omega.I + c_0 + f that the
    vector field, the pipeline and nf read."""

    @given(f=series_strategy(max_terms=6, real=True),
           orders=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))))
    @settings(max_examples=60, deadline=None)
    def test_selection_by_orders_keeps_a_real_series_real(self, f, orders):
        # a term and its mirror (-k, m) share |k|_1 and |m|_1, so the pipeline's
        # P_s, a selection of the split's checked f, needs no second check
        def keep(nk, nm, c):
            return np.array([pair in orders for pair in zip(nk.tolist(), nm.tolist())], bool)

        assert f.is_real(tol=0.0)
        assert f.select(keep).is_real(tol=0.0)

    VALUE = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    LOW = [(0, 0), (1, 0), (0, 1)]  # c_0, then omega_1 and omega_2

    @given(f=series_strategy(max_terms=6, real=True), omega=st.tuples(VALUE, VALUE), c0=VALUE)
    @settings(max_examples=60, deadline=None)
    def test_parts_rebuild_H_bit_for_bit(self, f, omega, c0):
        H = FourierTaylorSeries.linear(omega) + f + c0
        w, g = ftseries.split_linear(H, "pipeline")
        constant = dict(H.items()).get(((0, 0), (0, 0)), 0j)
        assert FourierTaylorSeries.linear(w) + g + constant.real == H

    @given(f=series_strategy(max_terms=6, real=True), omega=st.tuples(VALUE, VALUE), c0=VALUE,
           m=st.sampled_from(LOW), imag=st.floats(min_value=1e-6, max_value=3.0),
           sign=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=40, deadline=None)
    def test_imaginary_constant_or_frequency_refused_by_every_owner(
            self, f, omega, c0, m, imag, sign):
        H = (FourierTaylorSeries.linear(omega) + f + c0
             + FourierTaylorSeries(D, {((0, 0), m): 1j * sign * imag}))
        params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5))
        for owner, consumer in [("vector field", lambda: dynamics._split(H)),
                                ("pipeline", lambda: stabpipe._perturbation(H, omega)),
                                ("normal form", lambda: resonant_normal_form(
                                    *ftseries.split_linear(H, "normal form"), params))]:
            with pytest.raises(NumericalFault, match=f"^{owner} requires a real-valued series$"):
                consumer()


class TestSerialization:
    def test_round_trip_bit_exact(self):
        f = FourierTaylorSeries(
            D,
            {
                ((1, -2), (0, 3)): complex(1 / 3, -math.pi),
                ((0, 0), (1, 0)): 1.6180339887498949,
            },
        )
        assert FourierTaylorSeries.from_text(f.to_text()) == f

    @given(f=series_strategy())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, f):
        assert FourierTaylorSeries.from_text(f.to_text()) == f

    def test_save_load(self, tmp_path):
        f = cosine(D, (2, 1), m=(1, 1), amplitude=0.7, phase=1.1)
        path = tmp_path / "series.txt"
        f.save(path)
        assert FourierTaylorSeries.load(path) == f

    def test_zero_series_round_trip(self):
        z = FourierTaylorSeries(3)
        assert FourierTaylorSeries.from_text(z.to_text()) == z

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            FourierTaylorSeries.from_text("1 0 | 0 0\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1 0 | 0 0", "malformed series line: '1 0 | 0 0'"),
            ("1 0 | 2 0 | 1e-20", "malformed series line: '1 0 | 2 0 | 1e-20'"),
            ("1 x | 2 0 | 1 0", "malformed series line: '1 x | 2 0 | 1 0'"),
            ("# d=x", "malformed series line: '# d=x'"),
            ("99999999999999999999 0 | 2 0 | 1e-20 0",
             "index does not fit int64: k=(99999999999999999999, 0), m=(2, 0)"),
            ("1 0 | 2 0 | nan 0", "coefficient must be finite, got (nan+0j) at k=(1, 0), m=(2, 0)"),
            ("1 0 | 2 0 | 1e308 0\n1 0 | 2 0 | 1e308 0",
             "coefficient must be finite, got (inf+0j) at k=(1, 0), m=(2, 0)"),
        ],
    )
    def test_bad_line_rejected_by_name(self, line, message):
        # an index past int64 raised OverflowError, a missing field "not
        # enough values to unpack", and a nan loaded and failed later
        with pytest.raises(ValueError) as info:
            FourierTaylorSeries.from_text(f"# d=2\n{line}\n")
        assert str(info.value) == message


def mirror(f):
    """The conjugate terms c_{-k,m} = conj(c_{k,m}); f + mirror(f) is real."""
    return FourierTaylorSeries(
        D, {(tuple(-v for v in k), m): c.conjugate() for (k, m), c in f.items()}
    )


def direct_sum(g, theta, I):
    """Re sum c e^{2 pi i k.theta} I^m at each point, term by term."""
    out = np.zeros(len(theta), dtype=complex)
    for (k, m), c in g.items():
        out += c * np.exp(TWO_PI * 1j * (theta @ k)) * np.prod(I**m, axis=1)
    return out.real


def kernel_tol(g):
    """1e-13 x the coefficient mass at |I| = 1.5, the largest drawn (see close())."""
    return 1e-13 * g.mass(lambda nk, nm: 1.5**nm) + sys.float_info.min


def assert_kernel_matches_direct_sum(field, f, theta, I):
    """The energy, theta_dot and I_dot of f's kernel against the direct sums
    of f and of its exact partial_I and partial_theta."""
    z = np.hstack([theta, I])
    zdot = field(z)
    td, Id = zdot[:, :D], zdot[:, D:]
    assert np.all(np.abs(field.energy(z) - direct_sum(f, theta, I)) <= kernel_tol(f))
    for j in range(D):
        g_I, g_theta = partial_I(f, j), partial_theta(f, j)
        assert np.all(np.abs(td[:, j] - direct_sum(g_I, theta, I)) <= kernel_tol(g_I))
        assert np.all(np.abs(Id[:, j] + direct_sum(g_theta, theta, I)) <= kernel_tol(g_theta))


class TestEvaluators:
    def test_compiled_matches_scalar(self):
        f = cosine(D, (1, -1), m=(1, 0)) + cosine(
            D, (0, 2), m=(0, 3), phase=-0.5 * math.pi
        )
        rng = np.random.default_rng(7)
        thetas = rng.random((20, 2))
        Is = rng.uniform(-1, 1, (20, 2))
        batch = HamiltonianVectorField(f).energy(np.hstack([thetas, Is]))
        for i in range(20):
            assert batch[i] == pytest.approx(f.evaluate(thetas[i], Is[i]), abs=1e-12)

    def test_vector_field_matches_partials(self):
        H = (
            FourierTaylorSeries.linear((1.0, 1.5))
            + cosine(D, (1, -1), m=(2, 0), amplitude=0.3)
            + cosine(D, (0, 1), m=(1, 1), amplitude=0.2, phase=-0.5 * math.pi)
        )
        field = HamiltonianVectorField(H)
        theta = np.array([[0.12, 0.81]])
        I = np.array([[0.4, -0.3]])
        zdot = field(np.hstack([theta, I]))
        td, Id = zdot[:, :D], zdot[:, D:]
        for j in range(D):
            assert td[0, j] == pytest.approx(
                partial_I(H, j).evaluate(theta[0], I[0]), abs=1e-13
            )
            assert Id[0, j] == pytest.approx(
                -partial_theta(H, j).evaluate(theta[0], I[0]), abs=1e-13
            )

    def test_one_point_gives_the_bits_of_its_row(self):
        # a 1-D point goes through np.atleast_2d, a 2-D batch is taken as it is
        H = build_test_hamiltonian(HolderClass(6.5, 2), seed=1, amplitude=1.0, j_max=4)
        field = HamiltonianVectorField(H)
        point = np.array([0.12, 0.81, 0.4, -0.3])
        zdot, e = field(point), field.energy(point)
        assert zdot.shape == (1, 2 * D) and e.shape == (1,)
        assert zdot.tobytes() == field(point[None]).tobytes()
        assert e.tobytes() == field.energy(point[None]).tobytes()

    @pytest.mark.parametrize("n", [1, 7])
    def test_zero_series_gives_zeros(self, n):
        # f = 0 has no weight blocks, so nothing starts the block sum
        field = HamiltonianVectorField(FourierTaylorSeries(D))
        assert field.blocks == []
        z = np.random.default_rng(8).uniform(-1.0, 1.0, (n, 2 * D))
        zdot, e = field(z), field.energy(z)
        assert zdot.shape == (n, 2 * D) and e.shape == (n,)
        assert not zdot.any() and not e.any()

    @given(f=series_strategy(max_terms=8), real=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_folded_kernel_matches_complex_sum(self, f, real):
        # the kernel keeps Re of the full sum, for real and non-real series
        if real:
            f = f + mirror(f)
        rng = np.random.default_rng(len(f))
        theta = rng.random((7, D))
        I = rng.uniform(-1.5, 1.5, (7, D))
        field = HamiltonianVectorField(f)
        assert_kernel_matches_direct_sum(field, f, theta, I)
        if not real:
            return  # evaluate rejects a non-real series
        zdot = field(np.hstack([theta, I]))
        td, Id = zdot[:, :D], zdot[:, D:]
        for j in range(D):
            g_I, g_theta = partial_I(f, j), partial_theta(f, j)
            for i in range(len(theta)):
                assert abs(td[i, j] - g_I.evaluate(theta[i], I[i])) <= kernel_tol(g_I)
                assert abs(Id[i, j] + g_theta.evaluate(theta[i], I[i])) <= kernel_tol(g_theta)

    @pytest.mark.parametrize("block", [None, 1, 40])
    @given(f=pooled_series(), real=st.booleans())
    @example(f=FourierTaylorSeries(D), real=False)
    @example(  # k = 0 only: one mode, cos = 1 and sin = 0
        f=FourierTaylorSeries(D, {((0, 0), (0, 0)): 1.5, ((0, 0), (2, 1)): -0.5 + 0.25j}),
        real=False,
    )
    @example(  # no I_1 in any term: theta_dot_1 is exactly 0
        f=FourierTaylorSeries(D, {((1, 2), (0, 3)): 0.5 - 0.25j, ((3, -1), (0, 1)): 0.75j,
                                  ((0, 1), (0, 0)): 1.0}),
        real=True,
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kernel_with_repeated_modes_and_indices(self, monkeypatch, block, f, real):
        # terms share modes and Taylor indices, so the per-mode cos/sin and the
        # per-index powers are each reused by several terms; block = 1 puts
        # every Taylor index in its own weight block, 40 a few in each
        if block is not None:
            monkeypatch.setattr(ftseries, "PAIR_BLOCK", block)
        if real:
            f = f + mirror(f)
        folded = {}
        for (k, m), c in f.items():
            if next((v for v in k if v), 0) < 0:
                k, c = tuple(-v for v in k), c.conjugate()
            folded[(k, m)] = folded.get((k, m), 0j) + c
        folded = {key: c for key, c in folded.items() if c != 0}
        field = HamiltonianVectorField(f)
        assert field.n == len(folded)
        if block == 1:
            powers = sorted({m for _, m in folded})
            assert len(field.blocks) == len(powers)
            # one Taylor index per block: row j of its field weights is
            # theta_dot_j, whose factor m_j = 0 leaves it exactly 0
            for m, (_, _, (W, _)) in zip(powers, field.blocks):
                for j in range(D):
                    if m[j] == 0:
                        assert not W[j].any()
        rng = np.random.default_rng(len(f))
        theta = rng.random((7, D))
        I = rng.uniform(-1.5, 1.5, (7, D))
        assert_kernel_matches_direct_sum(field, f, theta, I)
        zdot = field(np.hstack([theta, I]))
        for j in range(D):
            if all(m[j] == 0 for _, m in folded):
                assert np.all(zdot[:, j] == 0)

    def test_energy_matches_evaluate(self):
        H = cosine(D, (1, 1), m=(0, 2)) + 2.0
        field = HamiltonianVectorField(H)
        theta = np.array([[0.3, 0.4], [0.9, 0.1]])
        I = np.array([[0.2, 0.5], [-0.1, 0.7]])
        e = field.energy(np.hstack([theta, I]))
        for i in range(2):
            assert e[i] == pytest.approx(H.evaluate(theta[i], I[i]), abs=1e-13)


class TestHalfAngleKernel:
    """The tables behind the kernel: cos/sin from one tan of the half phase,
    and action powers by running products."""

    MODES = [(1, 0), (0, 1), (1, 1), (2, -1), (3, 5), (-4, 1), (0, 0)]

    def field(self, m=(0, 0)):
        terms = {(k, m): 1.0 + 0.5j for k in self.MODES}
        return HamiltonianVectorField(FourierTaylorSeries(D, terms))

    def test_angles_match_cos_sin(self):
        field = self.field()
        rng = np.random.default_rng(3)
        quarters = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 0.75, 1.0, 2.5, -7.75])
        theta = np.vstack([
            rng.random((200, D)),
            rng.uniform(-50.0, 50.0, (200, D)),
            np.stack(np.meshgrid(quarters, quarters), axis=-1).reshape(-1, D),
        ])
        # the half phase pi k.(theta - floor(theta)); the modes hold pi k
        half = field.modes @ (theta - np.floor(theta)).T
        # the grid puts the half phase on 0 and on the poles of tan
        t = np.tan(half)
        assert np.any(t == 0.0) and np.any(np.abs(t) >= 1e12)
        u = len(field.modes)
        cs = field._angles(theta)
        assert np.all(np.abs(cs[:u] - np.cos(2.0 * half)) <= 1e-15)
        assert np.all(np.abs(cs[u:] - np.sin(2.0 * half)) <= 1e-15)

    def test_powers_match_pow_for_negative_actions(self):
        field = self.field(m=(6, 6))
        rng = np.random.default_rng(4)
        I = np.vstack([rng.uniform(-1.5, -0.01, (50, D)), rng.uniform(-1.5, 1.5, (50, D))])
        # row p d + j holds I_j^p
        expected = (I.T[None] ** np.arange(7)[:, None, None]).reshape(-1, len(I))
        P = field._power_table(I)
        assert np.all(np.abs(P - expected) <= 1e-15 * np.abs(expected))

    def test_kernel_matches_direct_sum_up_to_the_top_shell(self):
        # the test Hamiltonian's modes reach |k|_1 = 2^8 = 256, far beyond the
        # hypothesis draws; at amplitude 1 every term counts
        H = build_test_hamiltonian(HolderClass(6.5, 2), seed=1, amplitude=1.0, j_max=8)
        assert int(np.abs(H.K).sum(axis=1).max()) == 256
        rng = np.random.default_rng(5)
        theta = rng.random((40, D))
        I = rng.uniform(-1.5, 1.5, (40, D))
        assert_kernel_matches_direct_sum(HamiltonianVectorField(H), H, theta, I)

    def test_field_is_one_periodic_to_the_bit(self):
        # big and small are the same points of the torus, exactly; theta is
        # reduced before any product with k, so their fields share every bit
        H = build_test_hamiltonian(HolderClass(6.5, 2), seed=1, amplitude=1.0, j_max=8)
        field = HamiltonianVectorField(H)
        rng = np.random.default_rng(9)
        n = np.array([12345.0, -4096.0])
        big = rng.random((50, D)) + n
        small = big - n
        I = rng.uniform(-0.5, 0.5, (50, D))
        z_big, z_small = np.hstack([big, I]), np.hstack([small, I])
        assert not np.array_equal(z_big, z_small)
        assert np.array_equal(field(z_big), field(z_small))
        assert np.array_equal(field.energy(z_big), field.energy(z_small))


class TestRowChunks:
    """field(z) and field.energy(z) run in row chunks: no [cos | sin] table,
    power table or block product holds more than PAIR_BLOCK entries, unless
    it has a single row."""

    SERIES = {
        # few modes and a high Taylor order: the power table's d (pmax + 1)
        # columns are the widest temporary, far wider than [cos | sin]
        "high-order": lambda: (
            cosine(D, (1, 0), m=(60, 0))
            + cosine(D, (0, 1), m=(3, 2), amplitude=0.5, phase=-0.5 * math.pi)
        ),
        # many modes: [cos | sin] is the widest
        "many-modes": lambda: build_test_hamiltonian(
            HolderClass(6.5, 2), seed=1, amplitude=1.0, j_max=4
        ),
        # one mode and 25 Taylor indices: a block's z_dot products are the widest
        "many-indices": lambda: sum(
            (cosine(D, (1, 0), m=(a, b), amplitude=1.0 / (1 + a + b))
             for a in range(5) for b in range(5)),
            FourierTaylorSeries(D),
        ),
    }

    @pytest.mark.parametrize("block", [1, 256, 1024])
    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_no_temporary_exceeds_the_block(self, monkeypatch, name, block):
        monkeypatch.setattr(ftseries, "PAIR_BLOCK", block)
        f = self.SERIES[name]()
        field = HamiltonianVectorField(f)
        shapes = {"_angles": [], "_power_table": []}
        for method, seen in shapes.items():
            original = getattr(HamiltonianVectorField, method)

            def spy(self, a, original=original, seen=seen):
                out = original(self, a)
                seen.append(out.shape)
                return out

            monkeypatch.setattr(HamiltonianVectorField, method, spy)
        rng = np.random.default_rng(6)
        n = 23
        assert_kernel_matches_direct_sum(
            field, f, rng.random((n, D)), rng.uniform(-1.5, 1.5, (n, D))
        )
        # one field(z) and one field.energy(z) call, each over all n rows
        rows = [r for _, r in shapes["_angles"]]
        assert sum(rows) == 2 * n
        assert rows == [r for _, r in shapes["_power_table"]]
        products = [W.shape[0] for b in field.blocks for W, _ in b[1:]]
        for (cs_width, r), (pw_width, _) in zip(shapes["_angles"], shapes["_power_table"]):
            for width in (cs_width, pw_width, *products):
                assert r == 1 or r * width <= block, (r, width)
        if name == "high-order" and block == 1024:
            # 8-row chunks (1024 // 122): the bound is not met by single rows alone
            assert max(rows) == 8

    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_chunked_batch_matches_row_by_row_calls(self, monkeypatch, name):
        # at PAIR_BLOCK = 1024 the 23 rows run in chunks of 8, 13 or 10 rows,
        # the last one short, so chunks that were joined on the wrong axis,
        # dropped or reordered show in the shapes or the values
        monkeypatch.setattr(ftseries, "PAIR_BLOCK", 1024)
        f = self.SERIES[name]()
        field = HamiltonianVectorField(f)
        n = 23
        assert 1 < field.rows < n and n % field.rows
        rng = np.random.default_rng(7)
        z = np.hstack([rng.random((n, D)), rng.uniform(-1.5, 1.5, (n, D))])
        zdot, e = field(z), field.energy(z)
        assert zdot.shape == (n, 2 * D) and e.shape == (n,)
        by_row = np.vstack([field(row) for row in z])
        e_by_row = np.concatenate([field.energy(row) for row in z])
        assert np.all(np.abs(e - e_by_row) <= kernel_tol(f))
        for j in range(D):
            tol_I, tol_theta = kernel_tol(partial_I(f, j)), kernel_tol(partial_theta(f, j))
            assert np.all(np.abs(zdot[:, j] - by_row[:, j]) <= tol_I)
            assert np.all(np.abs(zdot[:, D + j] - by_row[:, D + j]) <= tol_theta)
