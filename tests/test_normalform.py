"""Lie-series normal forms: homological solves, certificates, transforms."""

import math

import numpy as np
import pytest

from torusstab import (
    AnalyticityWidths,
    FourierTaylorSeries,
    MeanNotRemovedError,
    NormalFormParams,
    SmallDivisorError,
    SmallnessViolationError,
    golden_frequency,
    lie_transform,
    resonant_normal_form,
    solve_homological,
    apply_transform,
)

D = 2
OMEGA = golden_frequency(2)


def acceptance_instance(eps=1e-6):
    H = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries.cosine(
        D, (1, 0), m=(2, 0), amplitude=eps
    )
    params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5), xi=2.0)
    return H, params


class TestParams:
    def test_k_sigma_floor(self):
        with pytest.raises(ValueError):
            NormalFormParams(alpha=0.1, K=5, widths=AnalyticityWidths(1.0, 0.5))

    def test_hessian_radius_constraint(self):
        with pytest.raises(ValueError):
            NormalFormParams(
                alpha=0.1, K=6, widths=AnalyticityWidths(1.0, 0.5), xi=2.0, M=1.0
            )

    def test_thresholds(self):
        p = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5), xi=2.0)
        assert p.smallness_threshold == pytest.approx(0.2 * 0.5 / (256 * 2 * 5))
        assert p.target_contraction == pytest.approx(math.exp(-1.0))


class TestHomological:
    def test_residual_exactly_zero(self):
        f = FourierTaylorSeries.cosine(D, (1, -1), m=(2, 0)) + FourierTaylorSeries.sine(
            D, (2, 1), m=(0, 2), amplitude=0.3
        )
        chi = solve_homological(f, OMEGA)
        w = OMEGA.as_array()
        resid = FourierTaylorSeries.zero(D)
        for ax in range(D):
            resid = resid + chi.partial_theta(ax) * w[ax]
        resid = resid - f
        assert resid.coefficient_mass() <= 1e-13 * f.coefficient_mass()

    def test_solution_of_real_input_is_real(self):
        f = FourierTaylorSeries.cosine(D, (1, -1), m=(1, 1), amplitude=0.4, phase=0.9)
        chi = solve_homological(f, OMEGA)
        assert chi.is_real(tol=1e-14)

    def test_mean_mode_rejected(self):
        f = FourierTaylorSeries.monomial(D, (2, 0))
        with pytest.raises(MeanNotRemovedError):
            solve_homological(f, OMEGA)

    def test_small_divisor_guard(self):
        # omega = (1, 2) is resonant at k = (2, -1)
        f = FourierTaylorSeries.cosine(D, (2, -1))
        with pytest.raises(SmallDivisorError) as exc:
            solve_homological(f, (1.0, 2.0))
        assert abs(sum(exc.value.k)) >= 0  # carries the offending mode


class TestLieTransform:
    def test_order_one_identity(self):
        # H o Psi at order 1 is H + {H, chi}; for H = omega.I the bracket is
        # -omega.d_theta chi, which cancels the solved modes exactly
        f = FourierTaylorSeries.cosine(D, (1, 0), m=(2, 0), amplitude=1e-3)
        H = FourierTaylorSeries.linear(OMEGA) + f
        chi = solve_homological(f, OMEGA)
        res = lie_transform(H, chi, order=1)
        low = res.series.fourier_nonzero_part().select(lambda nk, nm, c: nk <= 1)
        # what survives at |k| <= 1 is the order-1 piece of {f, chi}, O(eps^2)
        assert low.coefficient_mass() <= 1e-5 * f.coefficient_mass()

    def test_energy_conservation_under_flow(self):
        # H o Psi evaluated at x equals H evaluated at Psi(x)
        f = FourierTaylorSeries.cosine(D, (1, 0), m=(2, 0), amplitude=1e-4)
        H = FourierTaylorSeries.linear(OMEGA) + f
        chi = solve_homological(f, OMEGA)
        res = lie_transform(H, chi, order=8)
        pt = (np.array([0.15, 0.65]), np.array([0.02, -0.03]))
        image = apply_transform((chi,), pt, "forward")
        lhs = res.series.evaluate(tuple(pt[0]), tuple(pt[1]))
        rhs = H.evaluate(tuple(image[0]), tuple(image[1]))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_chop_mass_summed_over_removed_terms(self):
        # at a 1e-16 relative chop the removed mass is ~1e-15 of the norm, so
        # it must be summed over the removed terms, not taken as a difference
        f = FourierTaylorSeries.cosine(D, (1, 0), m=(2, 0), amplitude=1e-3) + (
            FourierTaylorSeries.cosine(D, (1, -2), m=(0, 3), amplitude=1e-4)
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


class TestResonantNormalForm:
    def test_acceptance_instance_certified(self):
        H, params = acceptance_instance()
        nf = resonant_normal_form(H, OMEGA, params)
        assert nf.certified
        assert nf.contraction <= math.exp(-1.0)
        assert nf.iterations >= 1
        assert nf.action_shift_ratio <= 1.0 / 64.0
        assert nf.angle_shift_ratio <= 1.0 / 48.0

    def test_low_modes_removed(self):
        H, params = acceptance_instance()
        nf = resonant_normal_form(H, OMEGA, params)
        low = nf.f_star.select(lambda nk, nm, c: (nk > 0) & (nk <= params.K))
        assert low.coefficient_mass() <= 1e-11 * nf.f_initial_norm

    def test_integrable_part_contains_original_mean(self):
        H, params = acceptance_instance()
        nf = resonant_normal_form(H, OMEGA, params)
        # omega.I survives untouched in h
        for j, w in enumerate(OMEGA.omega):
            m = tuple(1 if i == j else 0 for i in range(D))
            assert nf.h.terms[((0, 0), m)].real == pytest.approx(w, rel=1e-9)

    def test_smallness_gate(self):
        H, params = acceptance_instance(eps=1.0)
        with pytest.raises(SmallnessViolationError):
            resonant_normal_form(H, OMEGA, params)

    def test_integrable_input_trivial(self):
        H = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries.monomial(D, (2, 0))
        params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5))
        nf = resonant_normal_form(H, OMEGA, params)
        assert nf.certified
        assert nf.iterations == 0
        assert not nf.f_star

    def test_max_iter_uncertified(self):
        H, params = acceptance_instance()
        nf = resonant_normal_form(H, OMEGA, params, max_iter=0)
        assert not nf.certified


class TestApplyTransform:
    def test_round_trip(self):
        H, params = acceptance_instance()
        nf = resonant_normal_form(H, OMEGA, params)
        pt = (np.array([0.1, 0.2]), np.array([0.01, -0.02]))
        fwd = apply_transform(nf.generators, pt, "forward")
        back = apply_transform(nf.generators, fwd, "inverse")
        err = max(np.max(np.abs(back[0] - pt[0])), np.max(np.abs(back[1] - pt[1])))
        assert err <= 1e-8

    def test_finite_difference_symplecticity(self):
        # Jacobian of the flow preserves the standard symplectic form
        H, params = acceptance_instance(eps=1e-3)
        f = H.fourier_nonzero_part()
        chi = solve_homological(f, OMEGA)
        J = np.block([
            [np.zeros((D, D)), np.eye(D)],
            [-np.eye(D), np.zeros((D, D))],
        ])
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(10):
            x0 = np.concatenate([rng.random(D), rng.uniform(-0.1, 0.1, D)])
            M = np.zeros((2 * D, 2 * D))
            for j in range(2 * D):
                e = np.zeros(2 * D)
                e[j] = h
                plus = np.concatenate(
                    apply_transform((chi,), (x0[:D] + e[:D], x0[D:] + e[D:]), "forward")
                )
                minus = np.concatenate(
                    apply_transform((chi,), (x0[:D] - e[:D], x0[D:] - e[D:]), "forward")
                )
                M[:, j] = (plus - minus) / (2 * h)
            assert np.max(np.abs(M.T @ J @ M - J)) <= 1e-6

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            apply_transform((), (np.zeros(2), np.zeros(2)), "sideways")
