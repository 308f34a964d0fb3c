"""Lie-series normal forms: homological solves, certificates, transforms."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from torusstab import (
    TWO_PI,
    AnalyticityWidths,
    ExperimentConfig,
    FourierTaylorSeries,
    LieResult,
    NormalFormParams,
    NumericalFault,
    PreconditionError,
    golden_frequency,
    lie_transform,
    resonant_normal_form,
    solve_homological,
)
from torusstab import normalform
from torusstab.ftseries import split_linear
from torusstab.normalform import DIVERGENCE_FACTOR, DIVISOR_FLOOR
from series_helpers import (
    cosine,
    partial_theta,
    reference_lie_transform,
    reference_rows_to_form,
)

D = 2
OMEGA = golden_frequency(2)
# widths that weigh every term at about 1: with chop 0, the plain Lie series
PLAIN = AnalyticityWidths(1e-9, 1.0)


def acceptance_instance(eps=1e-6):
    """(f, params) of the acceptance instance H = OMEGA.I + f."""
    f = cosine(D, (1, 0), m=(2, 0), amplitude=eps)
    params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5))
    return f, params


# one to three real terms a cos(2 pi k.theta + phase) I^m with small k and m
COSINES = st.lists(
    st.tuples(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.floats(1e-3, 1.0),
        st.floats(-math.pi, math.pi),
    ),
    min_size=1,
    max_size=3,
)


def lie_with_chop(chop):
    H = FourierTaylorSeries.linear(OMEGA) + acceptance_instance()[0]
    return lie_transform(H, H, widths=PLAIN, chop=chop)


class TestParams:
    def test_k_sigma_floor(self):
        with pytest.raises(ValueError):
            NormalFormParams(alpha=0.1, K=5, widths=AnalyticityWidths(1.0, 0.5))

    def test_thresholds(self):
        p = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5))
        assert p.smallness_threshold == pytest.approx(0.2 * 0.5 / (256 * 2 * 5))
        assert p.target_contraction == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: NormalFormParams(alpha=1.0, K=math.nan, widths=AnalyticityWidths(1.2, 0.5)),
             "K must be >= 1, got nan"),
            (lambda: ExperimentConfig(max_steps=math.nan), "max_steps must be >= 1, got nan"),
            (lambda: lie_with_chop(-1.0), "chop must be >= 0, got -1.0"),
            (lambda: lie_with_chop(math.nan), "chop must be >= 0, got nan"),
        ],
        ids=["K-nan", "max_steps-nan", "chop-negative", "chop-nan"],
    )
    def test_nan_and_below_bound_rejected_by_name(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestHomological:
    def test_residual_exactly_zero(self):
        f = cosine(D, (1, -1), m=(2, 0)) + cosine(
            D, (2, 1), m=(0, 2), amplitude=0.3, phase=-0.5 * math.pi
        )
        chi = solve_homological(f, OMEGA)
        w = np.array(OMEGA)
        resid = FourierTaylorSeries(D)
        for ax in range(D):
            resid = resid + partial_theta(chi, ax) * w[ax]
        resid = resid - f
        assert resid.mass() <= 1e-13 * f.mass()

    def test_solution_of_real_input_is_real(self):
        f = cosine(D, (1, -1), m=(1, 1), amplitude=0.4, phase=0.9)
        chi = solve_homological(f, OMEGA)
        assert chi.is_real(tol=1e-14)

    def test_mean_mode_rejected(self):
        f = FourierTaylorSeries(D, {((0, 0), (2, 0)): 1.0})
        with pytest.raises(PreconditionError, match=r"k=0 mode present at m=\(2, 0\)"):
            solve_homological(f, OMEGA)

    def test_small_divisor_guard(self):
        # omega = (1, 2) is resonant at k = (2, -1)
        f = cosine(D, (2, -1))
        # cosine carries k = +-(2, -1); (-2, 1) is first in (k, m) order
        with pytest.raises(
            NumericalFault,
            match=r"small divisor \|omega.k\|=0\.000e\+00 below floor 1\.0e-12 at k=\(-2, 1\)",
        ):
            solve_homological(f, (1.0, 2.0))

    @pytest.mark.parametrize(
        "k_first, family, message",
        [((-2, 1), NumericalFault, "small divisor"), ((2, -1), PreconditionError, "k=0 mode")],
        ids=["small-divisor", "mean-mode"],
    )
    def test_first_small_term_raises(self, k_first, family, message):
        # omega = (1, 2) is resonant at k = +-(2, -1); (-2, 1) sorts before
        # the mean term, (2, -1) after it
        f = FourierTaylorSeries(D, {(k_first, (1, 0)): 1.0, ((0, 0), (2, 0)): 1.0})
        with pytest.raises(family, match=message):
            solve_homological(f, (1.0, 2.0))

    @given(
        terms=st.dictionaries(
            st.tuples(
                st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
            ),
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            max_size=12,
        ),
        omega=st.sampled_from([OMEGA, (1.0, 2.0), (0.7, -2.3)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_term_quotient(self, terms, omega):
        f = FourierTaylorSeries(D, terms)
        w = np.array(omega)
        expected = {}
        try:
            for (k, m), c in f.items():
                if not any(k):
                    raise PreconditionError(f"k=0 mode present at m={m}")
                divisor = float(np.dot(k, w))
                if abs(divisor) < DIVISOR_FLOOR:
                    raise NumericalFault(
                        f"small divisor |omega.k|={abs(divisor):.3e} below floor "
                        f"{DIVISOR_FLOOR:.1e} at k={k}"
                    )
                expected[(k, m)] = c / (TWO_PI * 1j * divisor)
        except (PreconditionError, NumericalFault) as exc:
            with pytest.raises(type(exc)) as raised:
                solve_homological(f, omega)
            assert str(exc) in str(raised.value)
            return
        chi = solve_homological(f, omega)
        assert chi == FourierTaylorSeries(D, expected)


class TestLieTransform:
    def test_order_one_identity(self):
        # H o Psi at order 1 is H + {H, chi}; for H = omega.I the bracket is
        # -omega.d_theta chi, which cancels the solved modes exactly
        f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-3)
        H = FourierTaylorSeries.linear(OMEGA) + f
        chi = solve_homological(f, OMEGA)
        res = lie_transform(H, chi, order=1, widths=PLAIN, chop=0.0)
        low = res.series.fourier_nonzero_part().select(lambda nk, nm, c: nk <= 1)
        # what survives at |k| <= 1 is the order-1 piece of {f, chi}, O(eps^2)
        assert low.mass() <= 1e-5 * f.mass()

    @given(terms=COSINES, chi_terms=COSINES, order=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_one_merge_equals_adding_orders_one_by_one(self, terms, chi_terms, order):
        # H + {H, chi}/1! + {{H, chi}, chi}/2! + ..., each order added to the
        # running sum in turn: the single merge gives the same bits
        def real(cosines):
            return sum(
                (cosine(D, k, m=m, amplitude=a, phase=p)
                 for k, m, a, p in cosines),
                FourierTaylorSeries(D),
            )

        H = FourierTaylorSeries.linear(OMEGA) + real(terms)
        chi = real(chi_terms) * 1e-2
        expected, bracket, fact = H, H, 1.0
        for n in range(1, order + 1):
            bracket = bracket.poisson_bracket(chi)
            fact *= n
            expected = expected + bracket * (1.0 / fact)
            if not bracket:
                break
        got = lie_transform(H, chi, order=order, widths=PLAIN, chop=0.0).series
        for a, b in zip((got.K, got.M, got.C), (expected.K, expected.M, expected.C)):
            assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_oversized_generator_diverges(self):
        # a generator 1e6 times the homological solution makes each bracket
        # about 2e3 times the last
        f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-3)
        H = FourierTaylorSeries.linear(OMEGA) + f
        chi = solve_homological(f, OMEGA)
        lie_transform(H, chi * 1e5, widths=PLAIN, chop=0.0)  # about 2e2 per order: no divergence
        with pytest.raises(NumericalFault, match="grew by 2.00e[+]03 at order 2"):
            lie_transform(H, chi * 1e6, widths=PLAIN, chop=0.0)

    def test_energy_conservation_under_flow(self):
        # H o Psi evaluated at x equals H evaluated at Psi(x), with Psi the
        # exact time-1 flow of chi = a I_1 sin 2 pi theta_1: tan pi theta_1
        # gains the factor e^{2 pi a}, I_1 sin 2 pi theta_1 is conserved and
        # theta_2, I_2 are fixed.  The largest relative error over these points
        # is 9.6e-12 at order 6, 1.4e-14 at order 8 and 3.9e-16 at order 10.
        a = 0.01
        chi = cosine(D, (1, 0), m=(1, 0), amplitude=a, phase=-0.5 * math.pi)
        H = (
            FourierTaylorSeries.linear(OMEGA)
            + cosine(D, (1, 0), m=(2, 0), amplitude=0.3)
            + cosine(D, (2, -1), m=(1, 1), amplitude=0.2)
        )
        series = lie_transform(H, chi, order=8, widths=PLAIN, chop=0.0).series
        rng = np.random.default_rng(0)
        for _ in range(20):
            # theta_1 away from the zeros of sin 2 pi theta_1; positive actions
            # keep H away from 0
            theta = (rng.uniform(0.05, 0.45) + 0.5 * rng.integers(2), rng.random())
            I = tuple(rng.uniform(0.05, 0.5, D))
            theta1 = math.atan(math.tan(math.pi * theta[0]) * math.exp(TWO_PI * a)) / math.pi
            I1 = I[0] * math.sin(TWO_PI * theta[0]) / math.sin(TWO_PI * theta1)
            exact = H.evaluate((theta1, theta[1]), (I1, I[1]))
            assert series.evaluate(theta, I) == pytest.approx(exact, rel=1e-12)

    def test_chop_mass_summed_over_removed_terms(self):
        # at a 1e-16 relative chop the removed mass is ~1e-15 of the norm, so
        # it must be summed over the removed terms, not taken as a difference
        f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-3) + (
            cosine(D, (1, -2), m=(0, 3), amplitude=1e-4)
        )
        H = FourierTaylorSeries.linear(OMEGA) + f
        chi = solve_homological(f, OMEGA)
        w = AnalyticityWidths(0.5, 0.4)
        chop = 1e-16 * H.weighted_norm(w)
        res = lie_transform(H, chi, order=4, widths=w, chop=chop)
        removed = 0.0
        kept_any = False
        bracket = H
        for _ in range(4):
            bracket = bracket.poisson_bracket(chi)
            kept = {}
            for (k, m), c in bracket.items():
                mass = abs(c) * w.rho ** sum(m) * math.exp(w.sigma * sum(abs(v) for v in k))
                if mass < chop:
                    removed += mass
                else:
                    kept[(k, m)] = c
            kept_any = kept_any or bool(kept)
            bracket = FourierTaylorSeries(D, kept)
        assert kept_any and removed > 0.0
        assert res.dropped_mass == pytest.approx(removed, rel=1e-12)

    @given(
        x_terms=COSINES,
        chi_terms=COSINES,
        sigma=st.floats(0.05, 1.5),
        rho=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_bound_covers_each_rows_bracket(self, x_terms, chi_terms, sigma, rho):
        # R_a bounds |||{X_a, chi}||| for every one-term X_a of real X and chi
        def real(terms):
            return sum(
                (cosine(D, k, m, amplitude=a, phase=p)
                 for k, m, a, p in terms),
                FourierTaylorSeries(D),
            )

        X, chi = real(x_terms), real(chi_terms)
        w = AnalyticityWidths(sigma, rho)
        bounds = normalform._row_bound(chi, w)(X, X.masses(w.weight))
        for a, bound in enumerate(bounds):
            mass = X._rows([a]).poisson_bracket(chi).weighted_norm(w)
            assert bound * (1 + 1e-12) >= mass

    def test_skipped_row_counted_at_its_bound(self):
        # the row of c e^{2 pi i theta_1} I_2 adds less than the chop; the
        # omega.I rows add far more, and nothing of their bracket is chopped
        sigma, rho, a, c = 0.5, 0.4, 1e-3, 1e-9
        w = AnalyticityWidths(sigma, rho)
        chi = cosine(D, (1, 1), m=(2, 1), amplitude=a)
        linear = FourierTaylorSeries.linear(OMEGA)
        H = linear + FourierTaylorSeries(D, {((1, 0), (0, 1)): c})
        # V^m = (2 S, S) and V^k = (S, S) with S = a rho^3 e^{2 sigma}, so
        # R = (2 pi / rho) c rho e^sigma (|k_1| V^m_1 + m_2 V^k_2), with 3 S in brackets
        S = a * rho**3 * math.exp(2 * sigma)
        bound = TWO_PI / rho * c * rho * math.exp(sigma) * 3 * S
        chop = bound * (1 + 1e-9)
        formed = linear.poisson_bracket(chi)
        assert formed.masses(w.weight).min() > 1e3 * chop
        res = lie_transform(H, chi, order=1, widths=w, chop=chop)
        assert res.dropped_mass == pytest.approx(bound, rel=1e-12)
        assert res.series == H + formed * 1.0

    def test_all_rows_skipped_stops_without_a_bracket(self, monkeypatch):
        H = cosine(D, (1, 0), m=(2, 0), amplitude=1e-12)
        chi = cosine(D, (0, 1), m=(1, 0), amplitude=1e-3)
        w = AnalyticityWidths(0.5, 0.4)
        bound = normalform._row_bound(chi, w)(H, H.masses(w.weight)).sum()
        calls = []
        bracket = FourierTaylorSeries.poisson_bracket
        monkeypatch.setattr(
            FourierTaylorSeries, "poisson_bracket",
            lambda f, g: calls.append(1) or bracket(f, g),
        )
        res = lie_transform(H, chi, widths=w, chop=2 * bound)
        assert not calls
        assert res.series == H and res.tail_mass == 0.0
        assert res.dropped_mass == bound > 0.0

    def test_divergence_test_sees_skipped_rows(self, monkeypatch):
        # a skipped sum of 1e4 first brackets, reported at the second order,
        # is growth although the second bracket itself is small
        f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-3)
        H = FourierTaylorSeries.linear(OMEGA) + f
        chi = solve_homological(f, OMEGA)
        w = AnalyticityWidths(0.5, 0.4)
        first = lie_transform(H, chi, order=1, widths=w, chop=1e-300).series - H
        lie_transform(H, chi, order=2, widths=w, chop=1e-300)
        skipped = iter([0.0, 1e4 * first.weighted_norm(w)])
        monkeypatch.setattr(
            normalform, "_rows_to_form",
            lambda bounds, budget: (np.ones(len(bounds), dtype=bool), next(skipped)),
        )
        with pytest.raises(NumericalFault, match="at order 2"):
            lie_transform(H, chi, order=2, widths=w, chop=1e-300)

    def test_unbounded_rows_always_formed(self):
        bounds = np.array([math.inf, math.nan, 0.0, 2.0, 1.0])
        form, skipped = normalform._rows_to_form(bounds, math.inf)
        assert form.tolist() == [True, True, False, False, False]
        assert skipped == 3.0
        form, skipped = normalform._rows_to_form(bounds, 1.5)
        assert form.tolist() == [True, True, False, True, False]
        assert skipped == 1.0


def real_series(cosines):
    return sum(
        (cosine(D, k, m=m, amplitude=a, phase=p) for k, m, a, p in cosines),
        FourierTaylorSeries(D),
    )


def lie_outcome(run):
    """The result arrays' and masses' bytes, or the NumericalFault raised."""
    try:
        res = run()
    except NumericalFault as exc:
        return "NumericalFault", str(exc)
    s = res.series
    masses = np.array([res.tail_mass, res.dropped_mass])
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in (s.K, s.M, s.C, masses))


def ending_chop(H, chi, w, at, order=6):
    """A chop at or above the summed row bounds of order `at` in a chop-0 run,
    which makes `at` the order that forms no row; None if `at` is not reached."""
    log = []
    reference_lie_transform(H, chi, order, widths=w, chop=0.0, log=log)
    if len(log) < at:
        return None
    bounds = np.sort(log[at - 1][1])
    return float(np.cumsum(bounds)[-1]) * (1 + 2.0**-20) if len(bounds) else 0.0


def first_order_without_rows(H, chi, w, chop, order=6):
    log = []
    try:
        reference_lie_transform(H, chi, order, widths=w, chop=chop, log=log)
    except NumericalFault:
        return None
    ends = [n for n, bounds in log if not reference_rows_to_form(bounds, chop)[0].any()]
    return ends[0] if ends else None


class TestLieAgainstReference:
    """lie_transform ends at the first order that forms no row; the reference
    runs that order in full.  Both give the same bits or the same fault."""

    @given(
        terms=COSINES,
        chi_terms=COSINES,
        scale=st.floats(1e-4, 1e-1),
        sigma=st.floats(0.05, 1.5),
        rho=st.floats(0.05, 0.95),
        at=st.integers(0, 3),
        share=st.floats(0.0, 1.0),
        order=st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bit_for_bit(self, terms, chi_terms, scale, sigma, rho, at,
                                           share, order):
        # at = 1, 2, 3: a chop that makes that order form no row; at = 0: a
        # chop anywhere from 1e-16 of |||H||| up to all of it
        H = FourierTaylorSeries.linear(OMEGA) + real_series(terms)
        chi = real_series(chi_terms) * scale
        w = AnalyticityWidths(sigma, rho)
        chop = ending_chop(H, chi, w, at, order) if at else None
        if chop is None:
            chop = H.weighted_norm(w) * 10.0 ** (-16.0 * share)
        event(f"no row formed first at order {first_order_without_rows(H, chi, w, chop, order)}")
        want = lie_outcome(
            lambda: reference_lie_transform(H, chi, order, widths=w, chop=chop))
        got = lie_outcome(lambda: lie_transform(H, chi, order, widths=w, chop=chop))
        assert got == want

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_series_ends_at_the_order_without_rows(self, at, monkeypatch):
        f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-3) + (
            cosine(D, (1, -2), m=(0, 3), amplitude=1e-4)
        )
        H = FourierTaylorSeries.linear(OMEGA) + f
        chi = solve_homological(f, OMEGA)
        w = AnalyticityWidths(0.5, 0.4)
        chop = ending_chop(H, chi, w, at)
        assert first_order_without_rows(H, chi, w, chop) == at
        calls = []
        bracket = FourierTaylorSeries.poisson_bracket
        monkeypatch.setattr(
            FourierTaylorSeries, "poisson_bracket",
            lambda f, g: calls.append(1) or bracket(f, g),
        )
        got = lie_outcome(lambda: lie_transform(H, chi, widths=w, chop=chop))
        assert len(calls) == at - 1
        monkeypatch.undo()
        assert got == lie_outcome(lambda: reference_lie_transform(H, chi, widths=w, chop=chop))
        res = lie_transform(H, chi, widths=w, chop=chop)
        assert res.tail_mass == 0.0 and res.dropped_mass > 0.0

    @pytest.mark.parametrize("trips", [False, True])
    def test_skipped_sum_of_an_order_without_rows_meets_the_divergence_test(
        self, trips, monkeypatch
    ):
        # order 2 forms no row; its skipped sum alone is the growth against
        # order 1, and 1e3 times order 1's mass (plus a hair) trips the test
        f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-3)
        H = FourierTaylorSeries.linear(OMEGA) + f
        chi = solve_homological(f, OMEGA)
        w = AnalyticityWidths(0.5, 0.4)
        first = lie_transform(H, chi, order=1, widths=w, chop=1e-300)
        skipped = DIVERGENCE_FACTOR * first.tail_mass * (1.5 if trips else 0.5)

        def rows_to_form():
            answers = iter([None, skipped])

            def rule(bounds, budget):
                answer = next(answers)
                if answer is None:
                    return np.ones(len(bounds), dtype=bool), 0.0
                return np.zeros(len(bounds), dtype=bool), answer
            return rule

        want = lie_outcome(lambda: reference_lie_transform(
            H, chi, 2, widths=w, chop=1e-300, rows_to_form=rows_to_form()))
        monkeypatch.setattr(normalform, "_rows_to_form", rows_to_form())
        got = lie_outcome(lambda: lie_transform(H, chi, 2, widths=w, chop=1e-300))
        assert got == want
        if trips:
            assert got == ("NumericalFault", "bracket norm grew by 1.50e+03 at order 2")
        else:
            monkeypatch.setattr(normalform, "_rows_to_form", rows_to_form())
            res = lie_transform(H, chi, 2, widths=w, chop=1e-300)
            assert res.dropped_mass == skipped and res.tail_mass == 0.0


class TestRowsToForm:
    """_rows_to_form against sorting the finite bounds and taking their running sum."""

    @pytest.mark.parametrize("bounds, budget", [
        ([], 1.0),
        ([math.inf, math.inf], 1.0),
        ([math.inf, math.nan, math.inf], math.inf),
        ([1.0, 2.0, 3.0], 6.0),  # running sum exactly at the budget: every row left out
        ([1.0, 2.0, 3.0], 3.0),  # exactly at the budget after two rows
        ([0.1, 0.2, 0.3], 0.1 + 0.2 + 0.3),
        ([0.3, 0.2, 0.1], 0.6),  # the sorted running sum is 0.6000000000000001
        ([2.0, 0.0, math.inf, 1.0, math.nan, 0.5], 1.5),
        ([2.0, 0.0, math.inf, 1.0, math.nan, 0.5], 0.0),
        ([0.0, 0.0], 0.0),
    ])
    def test_matches_sort_then_cumsum(self, bounds, budget):
        bounds = np.array(bounds, dtype=float)
        form, skipped = normalform._rows_to_form(bounds, budget)
        want_form, want_skipped = reference_rows_to_form(bounds, budget)
        assert form.dtype == bool and form.tolist() == want_form.tolist()
        assert repr(skipped) == repr(want_skipped)

    @given(
        bounds=st.lists(st.one_of(st.floats(0.0, 10.0), st.just(math.inf), st.just(0.0)),
                        max_size=12),
        cut=st.integers(0, 12),
        nudge=st.sampled_from([0.0, -1.0, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sort_then_cumsum_at_every_cut(self, bounds, cut, nudge):
        # budgets at, just below and just above each running sum
        bounds = np.array(bounds, dtype=float)
        running = np.cumsum(np.sort(bounds[np.isfinite(bounds)]))
        budget = float(running[min(cut, len(running) - 1)]) if len(running) else 1.0
        budget = max(0.0, np.nextafter(budget, nudge * math.inf) if nudge else budget)
        form, skipped = normalform._rows_to_form(bounds, budget)
        want_form, want_skipped = reference_rows_to_form(bounds, budget)
        assert form.tolist() == want_form.tolist() and repr(skipped) == repr(want_skipped)


class TestResonantNormalForm:
    def test_acceptance_instance_certified(self):
        f, params = acceptance_instance()
        nf = resonant_normal_form(OMEGA, f, params)
        assert nf.certified and nf.stop == "certified"
        assert nf.contraction <= math.exp(-1.0)
        assert nf.iterations >= 1

    def test_low_modes_removed(self):
        f, params = acceptance_instance()
        nf = resonant_normal_form(OMEGA, f, params)
        low = nf.f_star.select(lambda nk, nm, c: (nk > 0) & (nk <= params.K))
        assert low.mass() <= 1e-11 * nf.f_initial_norm

    def test_integrable_part_contains_original_mean(self):
        f, params = acceptance_instance()
        nf = resonant_normal_form(OMEGA, f, params)
        # omega.I survives untouched in h
        h = dict(nf.h.items())
        for j, w in enumerate(OMEGA):
            m = tuple(1 if i == j else 0 for i in range(D))
            assert h[((0, 0), m)].real == pytest.approx(w, rel=1e-9)

    def test_smallness_gate(self):
        f, params = acceptance_instance(eps=1.0)
        with pytest.raises(PreconditionError, match=r"exceeds alpha\*rho/\(256\*xi\*K\)"):
            resonant_normal_form(OMEGA, f, params)

    def test_frequency_is_read_from_H(self):
        # omega = (1, sqrt 2) is H's own, not the golden one: split as nf
        # splits H, one Lie step solves the right homological equation and
        # removes the mode exactly
        H = FourierTaylorSeries.linear((1.0, 2.0**0.5)) + cosine(
            D, (0, 1), m=(2, 0), amplitude=1e-6
        )
        _, params = acceptance_instance()
        nf = resonant_normal_form(*split_linear(H, "normal form"), params)
        assert nf.certified and nf.iterations == 1
        assert nf.contraction == 0.0

    def test_no_linear_part_refused(self):
        # with omega = 0 the averaging removes nothing, and the domain shrink
        # alone would meet the target
        f, params = acceptance_instance()
        with pytest.raises(PreconditionError, match=r"^series has no linear part omega\.I$"):
            resonant_normal_form((0.0, 0.0), f, params)

    @pytest.mark.parametrize("omega", [(1.0, 2.0, 3.0), (1.0,)])
    def test_frequency_of_another_dimension_refused(self, omega):
        f, params = acceptance_instance()
        message = f"^series has d = 2, frequency has d = {len(omega)}$"
        with pytest.raises(PreconditionError, match=message):
            resonant_normal_form(omega, f, params)

    def test_complex_series_refused(self):
        # reality is checked once, by the split the normal form's input comes from
        f, params = acceptance_instance()
        imaginary = FourierTaylorSeries(D, {((1, 0), (2, 0)): 1e-6j})
        H = FourierTaylorSeries.linear(OMEGA) + f + imaginary
        with pytest.raises(NumericalFault, match="^normal form requires a real-valued series$"):
            resonant_normal_form(*split_linear(H, "normal form"), params)

    def test_integrable_input_trivial(self):
        f = FourierTaylorSeries(D, {((0, 0), (2, 0)): 1.0})
        params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5))
        nf = resonant_normal_form(OMEGA, f, params)
        assert nf.certified and nf.stop == "certified"
        assert nf.iterations == 0
        assert not nf.f_star

    def test_chop_above_cancellation_stalls(self, monkeypatch):
        # a chop ten times the target remainder drops the first Lie step's own
        # cancellation term, so that step cannot lower the contraction
        monkeypatch.setattr(normalform, "CHOP_SHARE", 10.0)
        f, params = acceptance_instance()
        nf = resonant_normal_form(OMEGA, f, params)
        assert nf.stop == "stalled"
        assert nf.iterations == 1
        assert not nf.certified
        assert nf.contraction > nf.target_contraction

    def test_slow_contraction_is_capped(self, monkeypatch):
        # a Lie step that only scales the remainder by 0.95 lowers the
        # contraction every iteration but needs 144 of them; the cap is 2K = 120
        def shrink(H, chi, *, widths, chop):
            series = H.fourier_zero_part() + H.fourier_nonzero_part() * 0.95
            return LieResult(series=series, tail_mass=0.0, dropped_mass=0.0)

        monkeypatch.setattr(normalform, "lie_transform", shrink)
        f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-9)
        params = NormalFormParams(alpha=0.2, K=60, widths=AnalyticityWidths(1.0, 0.5))
        nf = resonant_normal_form(OMEGA, f, params)
        assert nf.stop == "capped"
        assert nf.iterations == 120
        assert not nf.certified
        assert nf.contraction > nf.target_contraction
