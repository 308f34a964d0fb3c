"""Frequency vectors and exact non-resonance certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusstab import (
    DiophantineCertificate,
    Frequency,
    diophantine_constant,
    golden_frequency,
)
from torusstab import freqlib


def _lattice_half_ball(d, K):
    """Reference: all k with 0 < |k|_1 <= K from the full (2K+1)^d meshgrid, one
    representative per {k, -k} pair (first nonzero entry positive), in
    lexicographic order."""
    grids = np.meshgrid(*(np.arange(-K, K + 1),) * d, indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.abs(ks).sum(axis=1)
    ks = ks[(norms > 0) & (norms <= K)]
    first_nonzero_sign = np.zeros(len(ks), dtype=int)
    for j in range(d):
        col = ks[:, j]
        undecided = first_nonzero_sign == 0
        first_nonzero_sign[undecided] = np.sign(col[undecided])
    return ks[first_nonzero_sign > 0]


def _exact_dot(omega, k):
    """|omega.k| over the exact values of the floats omega, rounded once."""
    return float(abs(sum(Fraction(o) * int(v) for o, v in zip(omega, k))))


def _exact_dots(omega, ks):
    """_exact_dot for each row of ks: integer numerators over the common
    denominator of the Fractions, one correctly rounded division per row."""
    fracs = [Fraction(o) for o in omega]
    den = math.lcm(*(f.denominator for f in fracs))
    nums = np.array([f.numerator * (den // f.denominator) for f in fracs], dtype=object)
    return np.array([abs(dot) / den for dot in (ks.astype(object) @ nums).tolist()])


def _reference_constant(omega, tau, K):
    """Reference gamma_K and minimiser by brute force over the half ball, omega.k
    exact and rounded once; np.argmin returns the first minimiser, the
    lexicographically smallest on ties."""
    ks = _lattice_half_ball(len(omega), K)
    norms = np.abs(ks).sum(axis=1).astype(float)
    values = _exact_dots(omega, ks) * norms**tau
    i = int(np.argmin(values))
    return float(values[i]), tuple(int(v) for v in ks[i])


def _exactness_cases(n, seed):
    """Seeded (omega, tau, K) in d = 2 and 3, tau in {0, 0.5, 1, 2, random}: omega
    generic, with a zero component, or integer multiples of 1 or 0.1 (exact
    ties, and ties that rounding makes at the ends of the search window)."""
    rng = np.random.default_rng(seed)
    cases = [((1.0, 0.0), 1.0, 7), ((0.0, 1.0), 1.0, 7), ((1.0, 2.0), 0.5, 9),
             ((1.0, math.sqrt(2.0), math.sqrt(3.0)), 1.0, 8), ((1.0, 1.0, 0.0), 0.0, 4),
             ((-0.8, 0.7000000000000001, 0.5), 0.0, 7)]
    while len(cases) < n:
        d = int(rng.choice([2, 3]))
        kind = rng.integers(4)
        if kind < 2:
            omega = rng.integers(-9, 10, size=d) * (1.0 if kind == 0 else 0.1)
            omega[0] += not omega.any()
        else:
            omega = rng.normal(size=d)
            if kind == 2:
                omega[rng.integers(d)] = 0.0
        tau = float(rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 3.0)]))
        K = int(rng.integers(1, 40 if d == 2 else 12))
        cases.append((tuple(omega), tau, K))
    return cases


def _full_search_constant(omega, tau, K):
    """(gamma_K, k) from the search over every prefix in [-K, K]: the record
    prefixes switched off, so the oracle is the search they replace."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freqlib, "_record_prefixes", lambda *args: None)
        cert = diophantine_constant(Frequency(omega), tau, K)
    return cert.gamma_K, cert.attained_k


def _ratio_cases(n, seed):
    """Seeded d = 2 (omega, tau, K), K <= 2000, tau in [0, 3]: omega integer,
    multiples of 0.1 or p/q floats (rational or nearly so, with exact ties and
    rounding ties), with a zero component, with |omega_i / omega_j| < 1e-3, or
    generic."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        kind = rng.integers(6)
        if kind == 0:
            omega = rng.integers(-9, 10, size=2) * 1.0
        elif kind == 1:
            omega = rng.integers(-9, 10, size=2) * 0.1
        elif kind == 2:
            omega = rng.integers(-99, 100, size=2) / rng.integers(1, 50, size=2)
        elif kind == 3:
            omega = rng.normal(size=2)
            omega[rng.integers(2)] = 0.0
        elif kind == 4:
            omega = rng.normal() * np.array([1.0, rng.uniform(-1e-3, 1e-3)])
            rng.shuffle(omega)
        else:
            omega = rng.normal(size=2)
        omega[0] += not omega.any()
        tau = float(rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 3.0)]))
        cases.append((tuple(omega), tau, int(rng.integers(1, 2001))))
    return cases


class TestFrequency:
    def test_golden_components(self):
        freq = golden_frequency(2)
        assert freq == (1.0, (1.0 + math.sqrt(5.0)) / 2.0)
        assert np.array_equal(np.asarray(freq), freq) and freq.d == 2

    def test_components_become_floats(self):
        freq = Frequency(np.array([1, -2]))
        assert freq == (1.0, -2.0) and all(type(w) is float for w in freq)

    def test_plain_tuple_is_a_frequency(self):
        omega = (1.0, math.sqrt(2.0))
        assert diophantine_constant(omega, 1.0, 5) == diophantine_constant(
            Frequency(omega), 1.0, 5)

    def test_golden_only_d2(self):
        with pytest.raises(ValueError):
            golden_frequency(3)

    def test_rejects_short_zero_nonfinite(self):
        # by the constructor, and by diophantine_constant given a plain tuple
        for omega, message in [
            ((1.0,), "^frequency dimension must be at least 2$"),
            ((0.0, 0.0), "^frequency must be nonzero$"),
            ((1.0, math.inf), "^frequency components must be finite$"),
        ]:
            with pytest.raises(ValueError, match=message):
                Frequency(omega)
            with pytest.raises(ValueError, match=message):
                diophantine_constant(omega, 1.0, 5)


class TestLatticeHalfBall:
    """The meshgrid reference that the lattice search is compared against."""

    def test_count_d2(self):
        # full punctured ball has 2K(K+1) points for d=2; half keeps exactly half
        for K in (1, 2, 5, 9):
            ks = _lattice_half_ball(2, K)
            assert len(ks) == K * (K + 1)

    def test_representatives_first_nonzero_positive(self):
        ks = _lattice_half_ball(3, 4)
        for k in ks:
            nz = k[np.nonzero(k)[0]]
            assert nz[0] > 0

    def test_no_pair_duplicates(self):
        ks = _lattice_half_ball(2, 6)
        seen = {tuple(k) for k in ks}
        assert all(tuple(-k) not in seen for k in ks)


class TestDiophantineConstant:
    def test_golden_is_one_at_every_cutoff(self):
        # |F_{n+1} - phi F_n| |k|_1 = phi^{-n} F_{n+2} -> phi^2/sqrt(5) > 1,
        # so the minimizer is always k = (1, 0); frozen via 50-digit arithmetic
        freq = golden_frequency(2)
        for K in (1, 5, 34, 200, 2700, 10**5, 10**6):
            cert = diophantine_constant(freq, 1.0, K)
            assert cert.gamma_K == 1.0
            assert cert.attained_k == (1, 0)

    def test_matches_meshgrid_reference_exactly(self):
        for omega, tau, K in _exactness_cases(400, seed=0):
            cert = diophantine_constant(Frequency(omega), tau, K)
            assert (cert.gamma_K, cert.attained_k) == _reference_constant(omega, tau, K), (
                omega, tau, K)

    def test_blocks_carry_best_and_tie_break(self, monkeypatch):
        # three prefixes per block: the winner and its ties span many blocks
        monkeypatch.setattr(freqlib, "PREFIX_BLOCK", 3)
        # d = 2 with many records (golden, sqrt 2: 10 and 6 convergents), and
        # one huge partial quotient
        d2 = [((1.0, (1.0 + math.sqrt(5.0)) / 2.0), 0.5, 120),
              ((math.sqrt(2.0), 1.0), 1.0, 150), ((1e-3, 1.0), 0.0, 60)]
        for omega, tau, K in d2 + _exactness_cases(40, seed=1):
            cert = diophantine_constant(Frequency(omega), tau, K)
            assert (cert.gamma_K, cert.attained_k) == _reference_constant(omega, tau, K), (
                omega, tau, K)

    def test_golden_tau_half_oracle(self):
        freq = golden_frequency(2)
        cert5 = diophantine_constant(freq, 0.5, 5)
        assert cert5.gamma_K == pytest.approx(0.52786404500042061, rel=1e-14)
        assert tuple(abs(v) for v in cert5.attained_k) == (3, 2)
        cert34 = diophantine_constant(freq, 0.5, 34)
        assert cert34.gamma_K == pytest.approx(0.20082879237757646, rel=1e-14)
        assert tuple(abs(v) for v in cert34.attained_k) == (21, 13)

    def test_sqrt2_oracle(self):
        freq = Frequency((1.0, math.sqrt(2.0)))
        cert = diophantine_constant(freq, 1.0, 29)
        assert cert.gamma_K == pytest.approx(0.8284271247461901, rel=1e-14)
        assert tuple(abs(v) for v in cert.attained_k) == (1, 1)

    def test_alpha_property(self):
        cert = DiophantineCertificate(tau=1.0, K=10, gamma_K=0.5, attained_k=(1, 0))
        assert cert.alpha == 0.05

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            diophantine_constant(golden_frequency(2), 1.0, 0)
        with pytest.raises(ValueError):
            diophantine_constant(golden_frequency(2), -0.5, 5)
        with pytest.raises(ValueError, match="K must be >= 1, got -3"):
            diophantine_constant(golden_frequency(2), 1.0, np.int64(-3))

    @pytest.mark.parametrize("K", [10.7, math.inf, "12", 2.0])
    def test_cutoff_must_be_an_integer(self, K):
        # a float was truncated to int(K) (10.7 certified K = 10) and inf raised
        # OverflowError; each is now refused by name
        with pytest.raises(ValueError, match=f"K must be an integer >= 1, got {K!r}"):
            diophantine_constant(golden_frequency(2), 1.0, K)

    def test_cutoff_accepts_numpy_integers(self):
        cert = diophantine_constant(golden_frequency(2), 1.0, np.int64(12))
        assert cert.K == 12 and type(cert.K) is int

    def test_record_prefixes_are_the_convergent_denominators(self):
        golden = np.array(golden_frequency(2))
        assert freqlib._record_prefixes(golden, 1, 100) == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        assert freqlib._record_prefixes(np.array([1.0, math.sqrt(2.0)]), 1, 30) == [1, 3, 7, 17]
        # a partial quotient beyond 2K: only q = 1
        assert freqlib._record_prefixes(np.array([1e-7, 1.0]), 1, 1000) == [1]
        # alpha rational with denominator <= 2K, or within rounding of it: all prefixes
        for omega, K in (((5.0, 2.0), 4), ((1.0, 0.0), 7), ((3.0, -3.0), 5),
                         ((-0.5, -0.7000000000000001), 569)):
            w = np.array(omega)
            j = int(np.argmax(np.abs(w)))
            assert freqlib._record_prefixes(w, j, K) is None, omega

    def test_fallback_evaluates_omega_dot_k_exactly(self):
        # the float dot product of (35, -25) rounds to 0.0; over the exact
        # values of these floats it is 1.7e-15, and the minimum is at (7, -5)
        omega = (-0.5, -0.7000000000000001)
        cert = diophantine_constant(Frequency(omega), 1.0, 569)
        exact = Fraction(omega[0]) * 7 + Fraction(omega[1]) * -5
        assert cert.attained_k == (7, -5)
        assert cert.gamma_K == float(abs(exact)) * 12.0 == 3.9968028886505635e-15

    def test_records_and_fallback_value_k_alike(self):
        # 1 / 1.7 rounds to 10/17: K = 8 takes the record prefixes, K = 9 every
        # prefix, and (5, -3) must have one value in both (its float dot
        # product gives 0.7999999999999972, so gamma_K would rise with K)
        w = np.array([1.0, 1.7])
        assert freqlib._record_prefixes(w, 1, 8) is not None
        assert freqlib._record_prefixes(w, 1, 9) is None
        exact = float(abs(5 - 3 * Fraction(1.7))) * 8.0
        assert exact == 0.7999999999999989
        for K in (8, 9):
            cert = diophantine_constant(Frequency((1.0, 1.7)), 1.0, K)
            assert (cert.gamma_K, cert.attained_k) == (exact, (5, -3))

    def test_intermediate_fraction_minimiser(self):
        # 3 is an intermediate denominator of 2/5, not a convergent one, and
        # (1, -3) ties (1, -2) at |omega.k| = 1 and wins the tie-break
        cert = diophantine_constant(Frequency((5.0, 2.0)), 0.0, 4)
        assert (cert.gamma_K, cert.attained_k) == (1.0, (1, -3))

    def test_d2_matches_full_prefix_search(self):
        cases = _ratio_cases(500, seed=2)
        records = 0
        for omega, tau, K in cases:
            cert = diophantine_constant(Frequency(omega), tau, K)
            assert (cert.gamma_K, cert.attained_k) == _full_search_constant(omega, tau, K), (
                omega, tau, K)
            w = np.array(omega)
            j = int(np.argmax(np.abs(w)))
            records += freqlib._record_prefixes(w, j, K) is not None
        # both branches are compared: the records and the all-prefix fallback
        assert 0.3 * len(cases) < records < 0.9 * len(cases)

    def test_golden_at_pipeline_cutoffs_matches_full_prefix_search(self):
        omega = golden_frequency(2)
        for K in (270, 382, 493, 2700, 8536, 26992, 85355):
            for tau in (0.5, 1.0, 2.0):
                cert = diophantine_constant(omega, tau, K)
                assert (cert.gamma_K, cert.attained_k) == _full_search_constant(omega, tau, K)

    @given(
        a=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        b=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        K=st.integers(min_value=1, max_value=2000),
        tau=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_d2_matches_full_prefix_search_hypothesis(self, a, b, K, tau):
        omega = (a, b) if (a, b) != (0.0, 0.0) else (1.0, b)
        cert = diophantine_constant(Frequency(omega), tau, K)
        assert (cert.gamma_K, cert.attained_k) == _full_search_constant(omega, tau, K)

    @given(
        w2=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        K=st.integers(min_value=1, max_value=12),
        tau=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_K_and_matches_bruteforce(self, w2, K, tau):
        freq = Frequency((1.0, w2))
        cert = diophantine_constant(freq, tau, K)
        # brute force over the full (unhalved) punctured ball
        best = math.inf
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                n = abs(k1) + abs(k2)
                if 0 < n <= K:
                    best = min(best, _exact_dot((1.0, w2), (k1, k2)) * n**tau)
        assert cert.gamma_K == pytest.approx(best, rel=1e-12, abs=1e-300)
        if K > 1:
            prev = diophantine_constant(freq, tau, K - 1)
            assert cert.gamma_K <= prev.gamma_K

