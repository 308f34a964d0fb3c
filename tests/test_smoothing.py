"""Sharp-cutoff smoothing: norm equality, tail majorants, slope verification."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusstab import (
    FourierTaylorSeries,
    HolderClass,
    PreconditionError,
    TWO_PI,
    cp_tail_majorant,
    holder_norm_majorant,
    lacunary_series,
    smooth,
    smooth_coefficients,
    taylor_split,
    verify_smoothing_estimate,
)
from series_helpers import cosine, partial_theta

D = 2


class TestHolderClass:
    def test_integer_and_fractional_parts(self):
        hc = HolderClass(6.5, 2)
        assert hc.q == 6
        assert hc.mu == pytest.approx(0.5)

    def test_regularity_floor(self):
        with pytest.raises(ValueError):
            HolderClass(5.0, 2)  # needs ell > 2d+1 = 5
        with pytest.raises(ValueError):
            HolderClass(6.5, 3)


class TestSmooth:
    def test_cutoff_is_sharp(self):
        g = (
            cosine(D, (1, 0))
            + cosine(D, (3, 1))
            + cosine(D, (5, 0))
        )
        res = smooth(g, 0.25)  # keeps |k|_1 <= 4
        assert max(sum(map(abs, k)) for (k, _), _ in res.g_s.items()) == 4
        assert res.dropped_tail_mass == pytest.approx(1.0)  # the |k|=5 pair

    def test_cutoff_gap_within_dropped_mass(self, cutoff_gap):
        # 1/s lands on a shell |k|_1 = 2^j, so a cutoff that loses the boundary
        # modes from both parts exceeds the dropped mass
        g = lacunary_series(D, 6.5, j_max=8, seed=3)
        for s in (0.5, 0.125, 2.0**-7):
            res = smooth(g, s)
            assert cutoff_gap(g, res.g_s) <= res.dropped_tail_mass * (1.0 + 1e-12)

    def test_idempotent(self):
        g = lacunary_series(D, 6.5, j_max=6, seed=1)
        once = smooth(g, 0.1)
        twice = smooth(once.g_s, 0.1)
        assert twice.g_s == once.g_s
        assert twice.dropped_tail_mass == 0.0

    def test_identity_when_nothing_dropped(self):
        g = cosine(D, (1, 0))
        res = smooth(g, 0.9)
        assert res.g_s == g

    def test_rejects_bad_s_and_mixed_series(self):
        g = cosine(D, (1, 0))
        with pytest.raises(ValueError):
            smooth(g, 0.0)
        with pytest.raises(ValueError):
            smooth(g, 1.5)
        # one rule with one message for every function of theta alone
        mixed = FourierTaylorSeries(D, {((0, 0), (1, 0)): 1.0, ((1, 0), (0, 2)): 0.5})
        message = "^smoothing operates on pure-angle series only, got Taylor order 2$"
        hc = HolderClass(6.5, D)
        for refuse in (lambda: smooth(mixed, 0.5),
                       lambda: holder_norm_majorant(mixed, hc),
                       lambda: verify_smoothing_estimate(mixed, hc, 0, [0.5, 0.25])):
            with pytest.raises(ValueError, match=message):
                refuse()

    @given(s1=st.floats(min_value=0.01, max_value=1.0),
           s2=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_tail_mass_monotone_in_s(self, s1, s2):
        g = lacunary_series(D, 6.5, j_max=7, seed=5)
        lo, hi = sorted((s1, s2))
        # smaller s keeps more modes, so drops no more mass
        assert smooth(g, lo).dropped_tail_mass <= smooth(g, hi).dropped_tail_mass + 1e-15


class TestOneCutoff:
    def test_boundary_modes_agree(self):
        # s = 1/4 keeps |k|_1 = 4 and drops |k|_1 = 5, in every smoothing path
        g = (
            cosine(D, (4, 0), amplitude=0.5)
            + cosine(D, (-1, 3), amplitude=0.25, phase=0.3)
            + cosine(D, (5, 0), amplitude=2.0)
            + cosine(D, (2, -3), amplitude=0.125, phase=1.1)
        )
        res = smooth(g, 0.25)
        g_I2 = FourierTaylorSeries(D, {(k, (2, 0)): c for (k, _), c in g.items()})  # g I_1^2
        split = taylor_split(g_I2, HolderClass(6.5, 2), 0.2)
        sm = smooth_coefficients(split, 0.25)
        kept = {(4, 0), (-4, 0), (-1, 3), (1, -3)}
        assert set(map(tuple, res.g_s.K.tolist())) == kept
        assert sm.P_s == FourierTaylorSeries(D, {(k, (2, 0)): c for (k, _), c in res.g_s.items()})
        assert res.dropped_tail_mass == sm.dropped_mass == cp_tail_majorant(g, 0.25, 0)
        assert res.dropped_tail_mass == pytest.approx(2.0 + 0.125, rel=1e-15)  # |k|_1 = 5


class TestMajorants:
    def test_holder_majorant_hand_value(self):
        g = cosine(D, (1, 0))  # two coefficients of 1/2
        hc = HolderClass(6.5, 2)
        expected = (1.0 + 2.0**0.5) * 2 * 0.5 * (1.0 + TWO_PI**6.5)
        assert holder_norm_majorant(g, hc) == pytest.approx(expected, rel=1e-14)

    def test_cp_tail_hand_value(self):
        g = cosine(D, (3, 0))
        # s = 0.5 keeps |k|_1 <= 2, drops the pair at |k|_1 = 3
        assert cp_tail_majorant(g, 0.5, 2) == pytest.approx(
            2 * 0.5 * (TWO_PI * 3) ** 2, rel=1e-14
        )
        assert cp_tail_majorant(g, 0.25, 2) == pytest.approx(0.0)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_cp_tail_bounds_grid_derivatives(self, cutoff_gap, p):
        # mode by mode |d^p/d theta_j^p e^{2 pi i k.theta}| = (2 pi |k_j|)^p <= (2 pi |k|_1)^p,
        # so sup |d_j^p (g - g_s)| over the 64 x 64 grid stays below the majorant
        g = lacunary_series(D, 6.5, j_max=8, seed=3)
        for s in (0.5, 0.1, 1 / 40, 1 / 100):
            g_s = smooth(g, s).g_s
            bound = cp_tail_majorant(g, s, p)
            for axis in range(D):
                dg, dg_s = g, g_s
                for _ in range(p):
                    dg, dg_s = partial_theta(dg, axis), partial_theta(dg_s, axis)
                assert cutoff_gap(dg, dg_s) <= bound * (1.0 + 1e-12)


class TestLacunary:
    def test_deterministic_in_seed(self):
        assert lacunary_series(D, 6.5, seed=9) == lacunary_series(D, 6.5, seed=9)
        assert lacunary_series(D, 6.5, seed=9) != lacunary_series(D, 6.5, seed=10)

    @pytest.mark.parametrize("seed", [-1, [0, -2]])
    def test_negative_seed_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            lacunary_series(D, 6.5, seed=seed)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"j_max": 63}, "j_max must be at most 62"),
            ({"seed": []}, "seed must be an integer or a non-empty sequence, got []"),
        ],
    )
    def test_undrawable_input_rejected_by_name(self, kwargs, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            lacunary_series(D, 6.5, **kwargs)

    @pytest.mark.parametrize("d, j_max", [(2, 40), (3, 25)])
    def test_unpackable_j_max_rejected_with_d(self, d, j_max):
        # 2^j_max draws, but the modes' keys overflow int64; j_max = 31 still packs
        with pytest.raises(ValueError, match=f"^j_max = {j_max} is too large for d = {d}: "):
            lacunary_series(d, 6.5, j_max=j_max)
        g = lacunary_series(2, 6.5, j_max=31)
        assert max(sum(map(abs, k)) for (k, _), _ in g.items()) == 2**31

    def test_real_and_shell_amplitudes(self):
        g = lacunary_series(D, 6.5, j_max=5, seed=2, amplitude=3.0)
        assert g.is_real(tol=1e-14)
        for (k, _), c in g.items():
            n = sum(abs(v) for v in k)
            j = round(math.log2(n))
            assert n == 2**j
            # collisions can only add same-shell amplitudes
            assert abs(c) <= 2 * 3.0 * 2.0 ** (-j * 6.5) * (1 + 1e-12)


class TestSlopeVerification:
    def test_slope_matches_regularity(self):
        hc = HolderClass(6.5, 2)
        g = lacunary_series(D, 6.5, j_max=12, seed=0)
        s_list = [2.0**-j for j in range(3, 11)]
        for p in (0, 1):
            rep = verify_smoothing_estimate(g, hc, p, s_list)
            assert rep.passed
            assert rep.slope == pytest.approx(hc.ell - p, abs=0.05)

    def test_wrong_regularity_fails(self):
        # a series that is actually C^8 decays too fast: slope ~ 8 - p, which
        # still passes the one-sided bound; the failing case is a rougher series
        hc = HolderClass(8.0, 2)
        rough = lacunary_series(D, 5.5, j_max=12, seed=0)
        rep = verify_smoothing_estimate(rough, hc, 0, [2.0**-j for j in range(3, 11)])
        assert not rep.passed  # slope ~ 5.5 < 8 - 0.3

    def test_saturated_values_excluded(self):
        hc = HolderClass(6.5, 2)
        g = lacunary_series(D, 6.5, j_max=4, seed=0)  # max |k|_1 = 16
        with pytest.raises(
            PreconditionError, match=r"only 3 usable s values \(need >= 4\); 3 saturated"
        ):
            # only s <= 1/16 drop anything; grid ends at 2^-6: 3 usable points
            verify_smoothing_estimate(g, hc, 0, [2.0**-j for j in range(1, 7)])

    def test_invalid_p(self):
        hc = HolderClass(6.5, 2)
        g = lacunary_series(D, 6.5, seed=0)
        with pytest.raises(ValueError):
            verify_smoothing_estimate(g, hc, 7, [0.5, 0.25, 0.125, 0.0625])
