"""Sparse Fourier-Taylor algebra: arithmetic, calculus, norms, serialization."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusstab import ftseries
from torusstab import (
    AnalyticityWidths,
    FourierTaylorSeries,
    HamiltonianVectorField,
    HolderClass,
    RealityViolationError,
    TWO_PI,
    cp_tail_majorant,
    holder_norm_majorant,
    smooth,
    theta_gradient_majorant,
)

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


class TestConstruction:
    def test_zero_coefficients_never_stored(self):
        f = FourierTaylorSeries(D, {((1, 0), (0, 0)): 1.0, ((0, 1), (0, 0)): 0.0})
        assert len(f) == 1

    def test_duplicate_keys_accumulate(self):
        f = FourierTaylorSeries(D, {((1, 0), (0, 0)): 1.0})
        g = f + f
        assert g.terms[((1, 0), (0, 0))] == 2.0

    def test_cancellation_removes_term(self):
        f = FourierTaylorSeries(D, {((1, 0), (0, 0)): 1.0})
        assert not (f - f)
        assert (f - f) == FourierTaylorSeries.zero(D)

    def test_negative_taylor_index_rejected(self):
        with pytest.raises(ValueError):
            FourierTaylorSeries(D, {((0, 0), (-1, 0)): 1.0})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FourierTaylorSeries(D, {((1,), (0,)): 1.0})

    def test_linear(self):
        f = FourierTaylorSeries.linear((2.0, 3.0))
        assert f.terms[((0, 0), (1, 0))] == 2.0
        assert f.terms[((0, 0), (0, 1))] == 3.0

    def test_cosine_evaluates_to_cos(self):
        f = FourierTaylorSeries.cosine(D, (1, 0), amplitude=2.0, phase=0.3)
        theta = (0.17, 0.5)
        expected = 2.0 * math.cos(TWO_PI * theta[0] + 0.3)
        assert f.evaluate(theta, (0.0, 0.0)) == pytest.approx(expected, abs=1e-14)

    def test_sine_evaluates_to_sin(self):
        f = FourierTaylorSeries.sine(D, (0, 1))
        theta = (0.1, 0.23)
        assert f.evaluate(theta, (0.0, 0.0)) == pytest.approx(
            math.sin(TWO_PI * theta[1]), abs=1e-14
        )


class TestAlgebra:
    def test_product_matches_pointwise(self):
        f = FourierTaylorSeries.cosine(D, (1, -1), m=(1, 0)) + 0.5
        g = FourierTaylorSeries.sine(D, (0, 1)) * FourierTaylorSeries.monomial(
            D, (0, 2), 3.0
        )
        theta, I = (0.21, 0.68), (0.4, -0.7)
        lhs = (f * g).evaluate(theta, I)
        assert lhs == pytest.approx(f.evaluate(theta, I) * g.evaluate(theta, I), rel=1e-12)

    @given(f=series_strategy(real=True), g=series_strategy(real=True))
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms_pointwise(self, f, g):
        theta, I = (0.3, 0.7), (0.5, -0.25)
        fg = (f + g).evaluate(theta, I, reality_tol=1e-6)
        assert fg == pytest.approx(
            f.evaluate(theta, I, reality_tol=1e-6) + g.evaluate(theta, I, reality_tol=1e-6),
            abs=1e-9,
        )

    def test_scalar_ops(self):
        f = FourierTaylorSeries.monomial(D, (2, 0))
        assert (2.0 * f).evaluate((0, 0), (0.5, 0)) == pytest.approx(0.5)
        assert (f - 0.25).evaluate((0, 0), (0.5, 0)) == pytest.approx(0.0)


class TestCalculus:
    def test_partial_theta_exact(self):
        f = FourierTaylorSeries.cosine(D, (2, -1))
        df = f.partial_theta(0)
        theta = (0.13, 0.77)
        h = 1e-6
        fd = (
            f.evaluate((theta[0] + h, theta[1]), (0, 0))
            - f.evaluate((theta[0] - h, theta[1]), (0, 0))
        ) / (2 * h)
        assert df.evaluate(theta, (0, 0)) == pytest.approx(fd, rel=1e-8)

    def test_partial_I_exact(self):
        f = FourierTaylorSeries.monomial(D, (3, 1), 2.0)
        df = f.partial_I(0)
        assert df.terms[((0, 0), (2, 1))] == 6.0

    def test_mixed_partials_commute(self):
        f = FourierTaylorSeries.cosine(D, (1, 2), m=(2, 1))
        a = f.partial_theta(0).partial_I(1)
        b = f.partial_I(1).partial_theta(0)
        assert a == b

    def test_poisson_bracket_sympy_oracle(self):
        # {cos(2 pi (t1 - t2)) I1^2, sin(2 pi t2) I1 I2} at
        # (t, I) = (1/7, 2/5, 3/10, -1/4); value frozen from a symbolic engine
        f = FourierTaylorSeries.cosine(D, (1, -1), m=(2, 0))
        g = FourierTaylorSeries.sine(D, (0, 1), m=(1, 1))
        pb = f.poisson_bracket(g)
        val = pb.evaluate((1 / 7, 2 / 5), (3 / 10, -1 / 4))
        assert val == pytest.approx(-0.18262752210065241, rel=1e-13)

    @given(f=series_strategy(), g=series_strategy())
    @settings(max_examples=30, deadline=None)
    def test_bracket_antisymmetry(self, f, g):
        lhs = f.poisson_bracket(g)
        rhs = g.poisson_bracket(f)
        assert (lhs + rhs).coefficient_mass() <= 1e-12 * max(
            lhs.coefficient_mass() + rhs.coefficient_mass(), 1.0
        )

    @given(f=series_strategy(max_terms=3), g=series_strategy(max_terms=3),
           h=series_strategy(max_terms=3))
    @settings(max_examples=15, deadline=None)
    def test_jacobi_identity(self, f, g, h):
        j = (
            f.poisson_bracket(g).poisson_bracket(h)
            + g.poisson_bracket(h).poisson_bracket(f)
            + h.poisson_bracket(f).poisson_bracket(g)
        )
        scale = max(
            f.coefficient_mass() * g.coefficient_mass() * h.coefficient_mass(), 1.0
        )
        # floating-point cancellation only; exact identity over the rationals
        assert j.coefficient_mass() <= 1e-9 * scale

    def test_leibniz_rule(self):
        f = FourierTaylorSeries.cosine(D, (1, 0), m=(1, 0))
        g = FourierTaylorSeries.sine(D, (0, 1), m=(0, 2))
        h = FourierTaylorSeries.monomial(D, (1, 1))
        lhs = f.poisson_bracket(g * h)
        rhs = f.poisson_bracket(g) * h + g * f.poisson_bracket(h)
        assert (lhs - rhs).coefficient_mass() <= 1e-12


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

    def test_norm_submultiplicative(self):
        f = FourierTaylorSeries.cosine(D, (1, 0), m=(1, 0)) + 0.3
        g = FourierTaylorSeries.sine(D, (2, -1), m=(0, 2)) + 1.0
        w = AnalyticityWidths(0.25, 0.6)
        assert (f * g).weighted_norm(w) <= f.weighted_norm(w) * g.weighted_norm(w) * (
            1 + 1e-12
        )

    def test_parts_partition(self):
        f = FourierTaylorSeries.cosine(D, (1, 0), m=(1, 0)) + FourierTaylorSeries.monomial(
            D, (2, 0)
        )
        assert f.fourier_zero_part() + f.fourier_nonzero_part() == f

    def test_angle_coefficient(self):
        f = FourierTaylorSeries.cosine(D, (1, 0), m=(2, 0), amplitude=3.0)
        a = f.angle_coefficient((2, 0))
        assert a.is_pure_angle()
        assert a.coefficient_mass() == pytest.approx(3.0)
        assert f.taylor_monomials() == [(2, 0)]

    def test_is_real(self):
        f = FourierTaylorSeries.cosine(D, (1, -2))
        assert f.is_real()
        g = FourierTaylorSeries.harmonic(D, (1, 0), coeff=1j)
        assert not g.is_real()

    def test_reality_violation_raised(self):
        g = FourierTaylorSeries.harmonic(D, (1, 0), coeff=1j)
        with pytest.raises(RealityViolationError):
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
            cp_tail_majorant(f, s, p),
            sum(abs(c) * (TWO_PI * l1(k)) ** p for (k, m), c in terms if l1(k) > 1.0 / s),
        )
        g = f.pure_angle_part()
        hc = HolderClass(6.5, 2)
        assert close(
            holder_norm_majorant(g, hc),
            (1.0 + 2.0 ** (1.0 - hc.mu))
            * sum(abs(c) * (1.0 + (TWO_PI * l1(k)) ** hc.ell) for (k, _), c in g.items()),
        )
        assert close(
            smooth(g, s).dropped_tail_mass,
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
    out = FourierTaylorSeries.zero(D)
    for i in range(D):
        out = dict_sum(out, dict_product(dict_partial_theta(f, i), dict_partial_I(g, i)))
        out = dict_sum(
            out, dict_product(dict_partial_I(f, i), dict_partial_theta(g, i)), -1.0
        )
    return out


def assert_matches(result, reference, scale):
    # the array store may sum repeated keys in another order than the dict
    assert (result - reference).coefficient_mass() <= 1e-13 * max(scale, 1e-300)


class TestArrayStore:
    """The sorted (K, M, C) arrays against the per-term dict algebra."""

    def _check(self, f, g):
        def mass(a, b):  # sum |c_a| |c_b| over the term pairs of a * b
            return a.coefficient_mass() * b.coefficient_mass()

        assert_matches(f * g, dict_product(f, g), mass(f, g))
        assert_matches(f + g, dict_sum(f, g), f.coefficient_mass() + g.coefficient_mass())
        bracket_mass = sum(
            mass(f.partial_theta(i), g.partial_I(i)) + mass(f.partial_I(i), g.partial_theta(i))
            for i in range(D)
        )
        assert_matches(f.poisson_bracket(g), dict_bracket(f, g), bracket_mass)

    @given(f=series_strategy(max_terms=8), g=series_strategy(max_terms=8))
    @settings(max_examples=40, deadline=None)
    def test_algebra_matches_dict_reference(self, f, g):
        self._check(f, g)

    @given(f=series_strategy(max_terms=8), g=series_strategy(max_terms=8))
    @settings(max_examples=20, deadline=None)
    def test_blocked_product_matches_dict_reference(self, f, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ftseries, "PAIR_BLOCK", 3)
            self._check(f, g)

    def test_store_is_sorted_and_read_only(self):
        f = FourierTaylorSeries.cosine(D, (2, -1), m=(1, 0)) + FourierTaylorSeries.monomial(
            D, (0, 2)
        )
        keys = [k + m for (k, m), _ in f.items()]
        assert keys == sorted(set(keys))
        with pytest.raises(ValueError):
            f.C[0] = 5.0
        with pytest.raises(ValueError):
            f.K[0, 0] = 5

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
    @settings(max_examples=60, deadline=None)
    def test_is_real_matches_mirror_check(self, f, real, tol):
        if real:
            f = f + FourierTaylorSeries(
                D, {(tuple(-v for v in k), m): c.conjugate() for (k, m), c in f.items()}
            )
        terms = dict(f.items())
        scale = max(f.coefficient_mass(), 1e-300)
        expected = all(
            np.abs(terms.get((tuple(-v for v in k), m), 0j) - c.conjugate()) <= tol * scale
            for (k, m), c in terms.items()
        )
        assert f.is_real(tol=tol) == expected


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
        f = FourierTaylorSeries.cosine(D, (2, 1), m=(1, 1), amplitude=0.7, phase=1.1)
        path = tmp_path / "series.txt"
        f.save(path)
        assert FourierTaylorSeries.load(path) == f

    def test_zero_series_round_trip(self):
        z = FourierTaylorSeries.zero(3)
        assert FourierTaylorSeries.from_text(z.to_text()) == z

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            FourierTaylorSeries.from_text("1 0 | 0 0\n")


class TestEvaluators:
    def test_compiled_matches_scalar(self):
        f = FourierTaylorSeries.cosine(D, (1, -1), m=(1, 0)) + FourierTaylorSeries.sine(
            D, (0, 2), m=(0, 3)
        )
        rng = np.random.default_rng(7)
        thetas = rng.random((20, 2))
        Is = rng.uniform(-1, 1, (20, 2))
        batch = f.vector_field().energy(thetas, Is)
        for i in range(20):
            assert batch[i] == pytest.approx(f.evaluate(thetas[i], Is[i]), abs=1e-12)

    def test_vector_field_matches_partials(self):
        H = (
            FourierTaylorSeries.linear((1.0, 1.5))
            + FourierTaylorSeries.cosine(D, (1, -1), m=(2, 0), amplitude=0.3)
            + FourierTaylorSeries.sine(D, (0, 1), m=(1, 1), amplitude=0.2)
        )
        field = H.vector_field()
        theta = np.array([[0.12, 0.81]])
        I = np.array([[0.4, -0.3]])
        td, Id = field(theta, I)
        for j in range(D):
            assert td[0, j] == pytest.approx(
                H.partial_I(j).evaluate(theta[0], I[0]), abs=1e-13
            )
            assert Id[0, j] == pytest.approx(
                -H.partial_theta(j).evaluate(theta[0], I[0]), abs=1e-13
            )

    @given(f=series_strategy(max_terms=8), real=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_folded_kernel_matches_complex_sum(self, f, real):
        # the kernel keeps Re of the full sum, for real and non-real series
        if real:
            f = f + FourierTaylorSeries(
                D, {(tuple(-v for v in k), m): c.conjugate() for (k, m), c in f.items()}
            )
        rng = np.random.default_rng(len(f))
        theta = rng.random((7, D))
        I = rng.uniform(-1.5, 1.5, (7, D))
        field = HamiltonianVectorField(f, check_real=False)
        td, Id = field(theta, I)
        e = field.energy(theta, I)

        def direct(g):  # Re sum c e^{2 pi i k.theta} I^m, term by term
            out = np.zeros(len(theta), dtype=complex)
            for (k, m), c in g.items():
                out += c * np.exp(TWO_PI * 1j * (theta @ k)) * np.prod(I**m, axis=1)
            return out.real

        def tol(g):  # 1e-13 x coefficient mass at the largest |I| drawn (see close())
            return 1e-13 * g.mass(lambda nk, nm: 1.5**nm) + sys.float_info.min

        assert np.all(np.abs(e - direct(f)) <= tol(f))
        for j in range(D):
            g_I, g_theta = f.partial_I(j), f.partial_theta(j)
            assert np.all(np.abs(td[:, j] - direct(g_I)) <= tol(g_I))
            assert np.all(np.abs(Id[:, j] + direct(g_theta)) <= tol(g_theta))
            if not real:
                continue  # evaluate rejects a non-real series
            for i in range(len(theta)):
                assert abs(td[i, j] - g_I.evaluate(theta[i], I[i])) <= tol(g_I)
                assert abs(Id[i, j] + g_theta.evaluate(theta[i], I[i])) <= tol(g_theta)

    def test_vector_field_rejects_complex(self):
        g = FourierTaylorSeries.harmonic(D, (1, 0), coeff=1j)
        with pytest.raises(RealityViolationError):
            HamiltonianVectorField(g)

    def test_energy_matches_evaluate(self):
        H = FourierTaylorSeries.cosine(D, (1, 1), m=(0, 2)) + 2.0
        field = H.vector_field()
        theta = np.array([[0.3, 0.4], [0.9, 0.1]])
        I = np.array([[0.2, 0.5], [-0.1, 0.7]])
        e = field.energy(theta, I)
        for i in range(2):
            assert e[i] == pytest.approx(H.evaluate(theta[i], I[i]), abs=1e-13)
