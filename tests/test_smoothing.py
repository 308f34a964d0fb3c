"""Sharp-cutoff smoothing of the coefficients a_m, the Holder majorant, the
lacunary draws of the test H, and the smoothing slope on the pipeline's split."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusstab import (
    FourierTaylorSeries,
    HolderClass,
    TWO_PI,
    build_test_hamiltonian,
    holder_norm_majorant,
    smooth_coefficients,
    taylor_split,
)
from torusstab.ftseries import split_linear
from torusstab.smoothing import sharp_cutoff
from series_helpers import cosine, worst_tail_slope_miss

D = 2
HC65 = HolderClass(6.5, D)


def seed0_split():
    """The pipeline's Taylor split of the seed-0 test H's f (ell = 6.5, j_max = 8)."""
    return taylor_split(split_linear(build_test_hamiltonian(HC65, 0), "test")[1], HC65, 0.1)


def keys(series):
    return set(zip(map(tuple, series.K.tolist()), map(tuple, series.M.tolist())))


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
        g_s, tail = sharp_cutoff(g, 0.25)  # keeps |k|_1 <= 4
        assert max(sum(map(abs, k)) for (k, _), _ in g_s.items()) == 4
        assert tail.mass() == pytest.approx(1.0)  # the |k|=5 pair

    def test_shell_boundaries_partition_P(self):
        # every 1/s = 2^j is a shell of the test H's coefficients: a cutoff
        # that loses the boundary modes from both parts, or keeps them in
        # both, fails here
        split = seed0_split()
        P = split.P
        for j in range(1, 9):
            s = 2.0**-j
            P_s, tail = sharp_cutoff(P, s)
            assert keys(P_s).isdisjoint(keys(tail))
            assert keys(P_s) == {(k, m) for k, m in keys(P) if sum(map(abs, k)) <= 2**j}
            total = P_s + tail
            assert [a.tobytes() for a in (total.K, total.M, total.C)] == [
                a.tobytes() for a in (P.K, P.M, P.C)]
            assert smooth_coefficients(split, s).dropped_mass == tail.mass()

    def test_idempotent(self):
        P = seed0_split().P
        g_s, _ = sharp_cutoff(P, 0.1)
        again, tail = sharp_cutoff(g_s, 0.1)
        assert again == g_s
        assert tail.mass() == 0.0

    def test_identity_when_nothing_dropped(self):
        g = cosine(D, (1, 0))
        assert sharp_cutoff(g, 0.9)[0] == g

    def test_rejects_bad_s_and_mixed_series(self):
        g = cosine(D, (1, 0))
        with pytest.raises(ValueError):
            sharp_cutoff(g, 0.0)
        with pytest.raises(ValueError):
            sharp_cutoff(g, 1.5)
        # the Holder majorant of a function of theta alone refuses any I^m
        mixed = FourierTaylorSeries(D, {((0, 0), (1, 0)): 1.0, ((1, 0), (0, 2)): 0.5})
        message = "^smoothing operates on pure-angle series only, got Taylor order 2$"
        with pytest.raises(ValueError, match=message):
            holder_norm_majorant(mixed, HC65)

    @given(s1=st.floats(min_value=0.01, max_value=1.0),
           s2=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_tail_mass_monotone_in_s(self, s1, s2):
        split = seed0_split()
        lo, hi = sorted((s1, s2))
        # smaller s keeps more modes, so drops no more mass
        assert (smooth_coefficients(split, lo).dropped_mass
                <= smooth_coefficients(split, hi).dropped_mass + 1e-15)


class TestOneCutoff:
    def test_boundary_modes_agree(self):
        # s = 1/4 keeps |k|_1 = 4 and drops |k|_1 = 5, on a function of theta
        # alone and on the same function as the coefficient of I_1^2
        g = (
            cosine(D, (4, 0), amplitude=0.5)
            + cosine(D, (-1, 3), amplitude=0.25, phase=0.3)
            + cosine(D, (5, 0), amplitude=2.0)
            + cosine(D, (2, -3), amplitude=0.125, phase=1.1)
        )
        g_s, tail = sharp_cutoff(g, 0.25)
        g_I2 = FourierTaylorSeries(D, {(k, (2, 0)): c for (k, _), c in g.items()})  # g I_1^2
        split = taylor_split(g_I2, HC65, 0.2)
        sm = smooth_coefficients(split, 0.25)
        kept = {(4, 0), (-4, 0), (-1, 3), (1, -3)}
        assert set(map(tuple, g_s.K.tolist())) == kept
        assert sm.P_s == FourierTaylorSeries(D, {(k, (2, 0)): c for (k, _), c in g_s.items()})
        assert tail.mass() == sm.dropped_mass
        assert sm.dropped_mass == pytest.approx(2.0 + 0.125, rel=1e-15)  # |k|_1 = 5


class TestMajorants:
    def test_holder_majorant_hand_value(self):
        g = cosine(D, (1, 0))  # two coefficients of 1/2
        hc = HolderClass(6.5, 2)
        expected = (1.0 + 2.0**0.5) * 2 * 0.5 * (1.0 + TWO_PI**6.5)
        assert holder_norm_majorant(g, hc) == pytest.approx(expected, rel=1e-14)

    def test_cp_tail_hand_value(self):
        # the C^p tail majorant that the smoothing-scaling check fits: the
        # dropped modes' mass weighted (2 pi |k|_1)^p
        g = cosine(D, (3, 0))

        def c2_tail(s):
            return sharp_cutoff(g, s)[1].mass(lambda nk, nm: (TWO_PI * nk) ** 2)

        # s = 0.5 keeps |k|_1 <= 2, drops the pair at |k|_1 = 3
        assert c2_tail(0.5) == pytest.approx(2 * 0.5 * (TWO_PI * 3) ** 2, rel=1e-14)
        assert c2_tail(0.25) == 0.0


class TestLacunary:
    """The lacunary draws behind every coefficient a_m of the test H."""

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"j_max": 63}, "j_max must be at most 62 (2^j_max must fit an int64), got 63"),
            ({"amplitude": math.nan}, "amplitude must be finite, got nan"),
        ],
    )
    def test_undrawable_input_rejected_by_name(self, kwargs, named):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            build_test_hamiltonian(HC65, **kwargs)

    @pytest.mark.parametrize("d, j_max", [(2, 40)])
    def test_unpackable_j_max_rejected_with_d(self, d, j_max):
        # 2^j_max draws, but the (k, m) keys overflow int64; j_max = 29 still packs
        with pytest.raises(ValueError, match=f"^j_max = {j_max} is too large for d = {d}: "):
            build_test_hamiltonian(HolderClass(6.5, d), j_max=j_max)
        H = build_test_hamiltonian(HolderClass(6.5, d), j_max=29)
        assert max(sum(map(abs, k)) for (k, _), _ in H.items()) == 2**29

    def test_real_and_shell_amplitudes(self):
        f = split_linear(build_test_hamiltonian(HC65, seed=2, amplitude=3.0, j_max=5), "test")[1]
        assert f.is_real(tol=1e-14)
        for (k, _), c in f.items():
            n = sum(abs(v) for v in k)
            j = round(math.log2(n))
            assert n == 2**j
            # collisions can only add same-shell amplitudes
            assert abs(c) <= 2 * 3.0 * 2.0 ** (-j * 6.5) * (1 + 1e-12)


class TestSlopeVerification:
    def test_wrong_regularity_fails(self):
        # an H built at ell = 5.5 is rougher than the ell = 6.5 it is checked
        # at: its slopes miss 6.5 - p by about 1, far past the check's 0.3
        H = build_test_hamiltonian(HolderClass(5.5, D), 0)
        assert worst_tail_slope_miss(H, HC65) >= 1.1
