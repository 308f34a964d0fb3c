"""Split implicit-midpoint integration and Monte-Carlo escape measurement."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusstab import (
    FourierTaylorSeries,
    HamiltonianVectorField,
    HolderClass,
    NumericalFault,
    ballistic_bound,
    build_test_hamiltonian,
    default_dt,
    escape_time,
    golden_frequency,
    integrate,
    sample_initial_conditions,
    theta_gradient_majorant,
)
from torusstab import dynamics, ftseries
from torusstab.dynamics import _energy, _half_rotation, _midpoint_step, _split, _split_step
from series_helpers import cosine

D = 2
OMEGA = golden_frequency(2)


def coupled_hamiltonian(eps=1e-3):
    return (
        FourierTaylorSeries.linear(OMEGA)
        + cosine(D, (1, -1), m=(2, 0), amplitude=eps)
        + cosine(
            D, (0, 1), m=(1, 1), amplitude=0.5 * eps, phase=-0.5 * math.pi
        )
    )


class TestHelpers:
    def test_linear_frequency(self):
        H = coupled_hamiltonian()
        assert ftseries.split_linear(H, "vector field")[0] == pytest.approx(np.array(OMEGA))

    def test_default_dt(self):
        assert default_dt(coupled_hamiltonian()) == pytest.approx(0.01 / OMEGA[1])
        slow = FourierTaylorSeries.linear((0.5, 0.1))
        assert default_dt(slow) == 0.01

    def test_theta_gradient_majorant_hand_value(self):
        H = FourierTaylorSeries.linear(OMEGA) + cosine(
            D, (1, 0), m=(2, 0), phase=-0.5 * math.pi
        )
        # two coefficients of 1/2, |k|_1 = 1, |m|_1 = 2
        assert theta_gradient_majorant(H, 0.05) == pytest.approx(
            2 * math.pi * 0.05**2, rel=1e-14
        )

    def test_ballistic_bound_oracle(self):
        # omega.I + I_1^2 sin(2 pi theta_1), threshold rho/2, radius rho:
        # bound = (rho/2) / (2 pi rho^2) = 1/(4 pi rho)
        rho = 0.05
        H = FourierTaylorSeries.linear(OMEGA) + cosine(
            D, (1, 0), m=(2, 0), phase=-0.5 * math.pi
        )
        assert ballistic_bound(H, 0.5 * rho, rho) == pytest.approx(
            1.0 / (4.0 * math.pi * rho), rel=1e-14
        )

    def test_ballistic_bound_infinite_for_integrable(self):
        H = FourierTaylorSeries.linear(OMEGA)
        assert ballistic_bound(H, 0.1, 1.0) == math.inf


class TestIntegrate:
    def test_linear_flow_exact(self):
        H = FourierTaylorSeries.linear(OMEGA)
        traj = integrate(H, ((0.1, 0.2), (0.3, -0.4)), t_end=2.0, dt=0.01)
        w = np.array(OMEGA)
        expect = (np.array([0.1, 0.2]) + 2.0 * w) % 1.0
        assert traj.theta[-1] == pytest.approx(expect, abs=1e-12)
        assert traj.I[-1] == pytest.approx(np.array([0.3, -0.4]), abs=1e-14)

    def test_time_reversibility(self):
        H = coupled_hamiltonian(1e-2)
        start = ((0.15, 0.85), (0.04, -0.06))
        fwd = integrate(H, start, t_end=1.0, dt=0.005)
        back = integrate(H, (fwd.theta[-1], fwd.I[-1]), t_end=-1.0, dt=-0.005)
        assert back.theta[-1] == pytest.approx(np.array(start[0]), abs=1e-10)
        assert back.I[-1] == pytest.approx(np.array(start[1]), abs=1e-10)

    def test_energy_drift_bounded(self):
        H = coupled_hamiltonian(1e-3)
        traj = integrate(H, ((0.0, 0.5), (0.05, 0.02)), t_end=50.0, dt=0.01)
        assert traj.relative_energy_drift() <= 1e-8

    def test_no_secular_energy_growth(self):
        # symplectic methods oscillate around the energy level; drift over 4T
        # stays on the order of the drift over T
        H = coupled_hamiltonian(1e-2)
        start = ((0.3, 0.7), (0.05, -0.05))
        short = integrate(H, start, t_end=10.0, dt=0.01)
        long = integrate(H, start, t_end=40.0, dt=0.01)
        assert long.relative_energy_drift() <= 10 * short.relative_energy_drift() + 1e-13

    def test_lands_exactly_on_t_end(self):
        H = FourierTaylorSeries.linear(OMEGA)
        traj = integrate(H, ((0, 0), (0, 0)), t_end=0.123, dt=0.01)
        assert traj.t[-1] == pytest.approx(0.123, abs=1e-15)

    def test_recording_decimation(self):
        H = FourierTaylorSeries.linear(OMEGA)
        traj = integrate(H, ((0, 0), (0, 0)), t_end=1.0, dt=0.001, record_every=100)
        assert len(traj.t) == 11  # start + every 100th of 1000 steps

    def test_domain_exit_truncates(self):
        H = FourierTaylorSeries.linear(OMEGA) + cosine(
            D, (1, 0), m=(0, 0), amplitude=1.0, phase=-0.5 * math.pi
        )
        traj = integrate(H, ((0.0, 0.0), (0.0, 0.0)), t_end=10.0, dt=0.01, r_max=0.05)
        assert traj.domain_exit
        assert traj.t[-1] < 10.0

    def test_dt_validation(self):
        H = FourierTaylorSeries.linear(OMEGA)
        with pytest.raises(ValueError):
            integrate(H, ((0, 0), (0, 0)), t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate(H, ((0, 0), (0, 0)), t_end=1.0, dt=-0.01)

    def test_step_failure(self):
        # at dt = 2, dt/2 times the Lipschitz constant of this O(1) twist's
        # field is far above 1: the midpoint fixed-point iteration diverges
        H = FourierTaylorSeries.linear(OMEGA) + cosine(D, (1, 0), m=(2, 0))
        with pytest.raises(NumericalFault, match="did not reach 1.0e-13 in 50 sweeps"):
            integrate(H, ((0.1, 0.2), (1.0, 0.1)), t_end=2.0, dt=2.0)

    def test_midpoint_step_converges_on_the_increment_near_theta_1024(self):
        # one ulp of theta is 2.3e-13 > FIXED_POINT_TOL from 1024 on; this
        # contracting field with slope -1/4 per sweep puts the fixed point
        # 0.6 ulp above theta = 1024, so the iterate theta alternates between
        # its two neighbours for ever, while the increment settles within
        # 0.25 ulp = 5.7e-14 on the second sweep
        ulp = math.ulp(1024.0)
        centre = 1024.0 + 3 * ulp
        calls = []

        def field(w):
            calls.append(w.copy())
            out = np.zeros_like(w)
            out[:, 0] = -0.5 * (w[:, 0] - centre)
            return out

        z = np.array([[1024.0, 0.25]])
        new = _midpoint_step(field, z, 1.0)
        assert len(calls) == 2
        assert new.tolist() == [[1024.0 + ulp, 0.25]]
        assert z.tolist() == [[1024.0, 0.25]]

    @pytest.mark.parametrize(
        "t_end, dt, record_every, name",
        [
            (1.0, math.nan, None, "dt"),
            (1.0, math.inf, None, "dt"),
            (math.inf, 0.01, None, "t_end"),
            (-math.inf, -0.01, None, "t_end"),
            (math.nan, 0.01, None, "t_end"),
            (1.0, 0.01, 0, "record_every"),
            (1.0, 0.01, -1, "record_every"),
        ],
    )
    def test_bad_input_rejected_by_name(self, monkeypatch, t_end, dt, record_every, name):
        # nan dt and infinite t_end used to fail in int(), record_every = 0 only
        # after stepping, and record_every = -1 was taken as every step
        calls = count_field_calls(monkeypatch)
        with pytest.raises(ValueError, match=f"^{name} "):
            integrate(coupled_hamiltonian(), ((0, 0), (0, 0)), t_end=t_end, dt=dt,
                      record_every=record_every)
        assert calls == []

    def test_midpoint_step_second_order(self):
        # halving dt reduces the one-step error by about 2^3 (local order 3)
        H = coupled_hamiltonian(0.1)
        field = HamiltonianVectorField(H)
        start = np.array([[0.2, 0.6, 0.1, -0.2]])

        def error(dt, n):
            z = start
            for _ in range(n):
                z = _midpoint_step(field, z, dt)
            return z[:, D:]

        ref_I = error(1e-4, 400)
        I1 = error(0.04, 1)
        I2 = error(0.02, 2)
        e1 = np.max(np.abs(I1 - ref_I))
        e2 = np.max(np.abs(I2 - ref_I))
        assert e2 <= e1 / 3.0  # global order 2 over the same interval

    def test_split_step_second_order(self):
        # the whole step: half rotation, midpoint on f, half rotation
        H = coupled_hamiltonian(0.1)
        omega, field = _split(H)
        start = np.array([[0.2, 0.6, 0.1, -0.2]])

        def run(dt, n):
            z = start
            for _ in range(n):
                z = _split_step(field, _half_rotation(omega, dt), z, dt)
            return z

        ref = run(1e-4, 400)
        e1 = np.max(np.abs(run(0.04, 1) - ref))
        e2 = np.max(np.abs(run(0.02, 2) - ref))
        e4 = np.max(np.abs(run(0.01, 4) - ref))
        assert e2 <= e1 / 3.0 and e4 <= e2 / 3.0

    def test_split_energy_is_f_kernel_plus_rotation(self):
        H = coupled_hamiltonian(0.1)
        omega, field = _split(H)
        assert field.n == 2  # the two conjugate pairs of f; omega.I is not in the kernel
        assert np.array_equal(omega, OMEGA)
        traj = integrate(H, ((0.2, 0.6), (0.1, -0.2)), t_end=0.05, dt=0.01)
        for theta, I, e in zip(traj.theta, traj.I, traj.energy):
            assert e == pytest.approx(H.evaluate(theta, I), rel=0, abs=1e-15)


def count_field_calls(monkeypatch):
    calls = []
    original = HamiltonianVectorField.__call__

    def counted(self, z):
        calls.append(np.atleast_2d(z).shape[0])
        return original(self, z)

    monkeypatch.setattr(HamiltonianVectorField, "__call__", counted)
    return calls


class TestOneSweepPerStep:
    """At amplitude 1e-12 the first sweep moves the iterate by only
    h/2 |grad f|, below the fixed-point tolerance: one field call per step."""

    def test_escape_time(self, monkeypatch):
        H = coupled_hamiltonian(1e-12)
        calls = count_field_calls(monkeypatch)
        rec = escape_time(H, 0.05, threshold=0.025, t_cap=0.5, n_samples=6, seed=1)
        assert rec.censored_fraction == 1.0
        assert calls == [6] * math.ceil(0.5 / rec.dt - 1e-9)

    def test_integrate(self, monkeypatch):
        H = coupled_hamiltonian(1e-12)
        calls = count_field_calls(monkeypatch)
        integrate(H, ((0.3, 0.7), (0.05, -0.05)), t_end=0.5, dt=0.01)
        assert calls == [1] * 50


def count_energy_calls(monkeypatch):
    calls = []
    original = HamiltonianVectorField.energy

    def counted(self, z):
        calls.append(np.atleast_2d(z).shape[0])
        return original(self, z)

    monkeypatch.setattr(HamiltonianVectorField, "energy", counted)
    return calls


def count_angle_rows(monkeypatch):
    """The rows of every [cos | sin] table the kernel builds."""
    rows = []
    original = HamiltonianVectorField._angles

    def counted(self, theta):
        rows.append(len(theta))
        return original(self, theta)

    monkeypatch.setattr(HamiltonianVectorField, "_angles", counted)
    return rows


class TestRecording:
    """integrate steps and records (t, theta, I) in its loop, and evaluates
    the energies after the run in one field.energy call; the field runs it
    in chunks whose temporaries hold at most PAIR_BLOCK entries."""

    START = ((0.3, 0.7), (0.05, -0.05))

    @pytest.mark.parametrize("block", [None, 12])
    def test_energy_calls_after_the_run(self, monkeypatch, block):
        # coupled_hamiltonian's f has u = 2 modes and pmax = 2; at PAIR_BLOCK
        # = 12 each block holds one Taylor index (4 z_dot columns), so the
        # power table's d (pmax + 1) = 6 columns are the widest: 2-row chunks
        if block is not None:
            monkeypatch.setattr(ftseries, "PAIR_BLOCK", block)
        H = coupled_hamiltonian(1e-12)
        field_calls = count_field_calls(monkeypatch)
        energy_calls = count_energy_calls(monkeypatch)
        angle_rows = count_angle_rows(monkeypatch)
        traj = integrate(H, self.START, t_end=0.5, dt=0.01, record_every=1)
        assert field_calls == [1] * 50
        assert len(traj.t) == 51
        assert energy_calls == [51]
        chunk = 51 if block is None else 2
        chunks = [chunk] * (51 // chunk) + ([51 % chunk] if 51 % chunk else [])
        assert angle_rows == [1] * 50 + chunks

    def test_chunked_energy_matches_evaluate(self, monkeypatch):
        # 2-row chunks over 14 records: six boundaries inside the record
        monkeypatch.setattr(ftseries, "PAIR_BLOCK", 12)
        H = coupled_hamiltonian(0.1)
        traj = integrate(H, ((0.2, 0.6), (0.1, -0.2)), t_end=0.13, dt=0.01)
        assert len(traj.t) == 14
        for theta, I, e in zip(traj.theta, traj.I, traj.energy):
            assert e == pytest.approx(H.evaluate(theta, I), rel=0, abs=1e-15)

    def test_record_matches_hand_loop(self):
        # a shortened last step and decimation: 38 steps, recorded every 3rd and the last
        H = coupled_hamiltonian(1e-2)
        t_end, dt, every = 0.375, 0.01, 3
        traj = integrate(H, self.START, t_end=t_end, dt=dt, record_every=every)
        omega, field = _split(H)
        z = np.array([self.START[0] + self.START[1]], float)
        ts, thetas, Is = [0.0], [z[0, :D] % 1.0], [z[0, D:].copy()]
        t, n_steps = 0.0, 38
        for n in range(1, n_steps + 1):
            step_dt = dt if n < n_steps else t_end - t
            z = _split_step(field, _half_rotation(omega, step_dt), z, step_dt)
            t += step_dt
            if n % every == 0 or n == n_steps:
                ts.append(t)
                thetas.append(z[0, :D] % 1.0)
                Is.append(z[0, D:].copy())
        assert traj.t.tobytes() == np.array(ts).tobytes()
        assert traj.theta.tobytes() == np.array(thetas).tobytes()
        assert traj.I.tobytes() == np.array(Is).tobytes()


class TestSampling:
    def test_deterministic_and_prefix_stable(self):
        t1, i1 = sample_initial_conditions(2, 0.1, 10, seed=3)
        t2, i2 = sample_initial_conditions(2, 0.1, 25, seed=3)
        assert np.array_equal(t1, t2[:10])
        assert np.array_equal(i1, i2[:10])

    def test_ranges(self):
        thetas, Is = sample_initial_conditions(2, 0.07, 200, seed=1)
        assert np.all((thetas >= 0) & (thetas < 1))
        assert np.all(np.abs(Is) <= 0.07)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sample_initial_conditions(2, 0.1, 3, seed=-1)

    @pytest.mark.parametrize(
        "d, rho, n_samples, name",
        [
            (2, -0.1, 3, "rho"),
            (2, 0.0, 3, "rho"),
            (2, math.nan, 3, "rho"),
            (2, math.inf, 3, "rho"),
            (2, 1e308, 3, "diameter"),
            (0, 0.1, 3, "dimension"),
            (2, 0.1, -1, "n_samples"),
        ],
    )
    def test_bad_input_rejected_by_name(self, monkeypatch, d, rho, n_samples, name):
        # a negative rho raised numpy's "high - low < 0", a nan or infinite
        # one or one with 2 rho > DBL_MAX OverflowError, rho = 0 returned
        # zero actions and d = 0 empty samples
        draws = []
        monkeypatch.setattr(dynamics, "_unit_draws", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match=f"^{name} must be "):
            sample_initial_conditions(d, rho, n_samples, seed=0)
        assert draws == []

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        rho=st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
        n_samples=st.integers(0, 40),
        seed=st.integers(0, 2**64),
    )
    def test_matches_per_sample_draws_bit_for_bit(self, d, rho, n_samples, seed):
        # the reference draws random(d) and then uniform(-rho, rho, d) from
        # each sample's stream; the kept unit draws must give the same bits
        thetas, Is = np.empty((n_samples, d)), np.empty((n_samples, d))
        for i in range(n_samples):
            rng = np.random.default_rng([seed, i])
            thetas[i] = rng.random(d)
            Is[i] = rng.uniform(-rho, rho, d)
        for _ in range(2):
            got = sample_initial_conditions(d, rho, n_samples, seed)
            for a, b in zip(got, (thetas, Is)):
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
                a[...] = 0.5  # the next call must not see this


def reference_escape(H, rho, threshold, t_cap, n_samples, seed):
    """escape_time's sample loop over _split_step with the per-row rule
    max(|I - I0|, axis=1) >= threshold.  Returns the escape times, the
    censored flags, the largest drift of the censored samples, every step's
    |I - I0| of the active rows, and per crossing (sample, step, axis of the
    largest component, whether it equals the threshold exactly)."""
    omega, field = _split(H)
    dt = default_dt(H)
    theta, I0 = sample_initial_conditions(D, rho, n_samples, seed)
    z = np.hstack([theta, I0])
    active = np.arange(n_samples)
    times = np.full(n_samples, float(t_cap))
    censored = np.ones(n_samples, dtype=bool)
    max_drift = np.zeros(n_samples)
    devs, crossings = [], []
    t, n_steps = 0.0, max(1, math.ceil(t_cap / dt - 1e-9))
    for n in range(1, n_steps + 1):
        step_dt = dt if n < n_steps else t_cap - t
        z = _split_step(field, _half_rotation(omega, step_dt), z, step_dt)
        t += step_dt
        dev = np.abs(z[:, D:] - I0)
        devs.append(dev)
        drift = np.max(dev, axis=1)
        max_drift = np.maximum(max_drift, drift)
        hit = drift >= threshold
        for i in np.flatnonzero(hit):
            crossings.append((int(active[i]), n, int(dev[i].argmax()), bool(drift[i] == threshold)))
        times[active[hit]] = t
        censored[active[hit]] = False
        active, z, I0, max_drift = (a[~hit] for a in (active, z, I0, max_drift))
        if len(active) == 0:
            break
    return times, censored, float(np.max(max_drift, initial=0.0)), devs, crossings


class TestEscapeTime:
    def test_all_censored_for_tiny_perturbation(self):
        H = coupled_hamiltonian(1e-12)
        rec = escape_time(H, 0.05, threshold=0.025, t_cap=1.0, n_samples=5, seed=0)
        assert rec.censored_fraction == 1.0
        assert rec.min_escape is None
        assert rec.max_drift_at_cap <= 1e-10
        assert rec.max_energy_drift <= 1e-12

    def test_strong_forcing_escapes(self):
        H = FourierTaylorSeries.linear(OMEGA) + cosine(
            D, (1, 0), amplitude=1.0, phase=-0.5 * math.pi
        )
        rec = escape_time(
            H, 0.01, threshold=0.005, t_cap=5.0, n_samples=8, seed=2, dt=1e-4
        )
        assert rec.censored_fraction == 0.0
        bound = rec.threshold / (2 * math.pi)  # sup force = 2 pi
        assert rec.min_escape >= bound * (1 - 1e-9)
        assert rec.min_escape <= 5 * bound  # and not absurdly later

    def test_threshold_edge_matches_per_row_rule(self):
        # the threshold is the largest |I - I0| entry of the first 20 steps,
        # so sample 7 meets it exactly (>=) with its I_1 at step 20; sample 1
        # then crosses with its I_2, and the censored samples' largest drift
        # lies just under the threshold, which it would not once an escaped
        # row were kept
        H = coupled_hamiltonian(0.3)
        args = dict(rho=0.3, t_cap=0.5, n_samples=8, seed=2)
        threshold = np.max(reference_escape(H, threshold=math.inf, **args)[3][:20])
        times, censored, max_drift, _, crossings = reference_escape(H, threshold=threshold, **args)
        assert crossings == [(7, 20, 0, True), (1, 41, 1, False), (0, 51, 0, False)]
        assert 0.9 * threshold < max_drift < threshold
        rec = escape_time(H, threshold=threshold, **args)
        assert rec.escape_times.tobytes() == times.tobytes()
        assert rec.censored.tobytes() == censored.tobytes()
        assert rec.max_drift_at_cap == max_drift

    def test_deterministic(self):
        H = coupled_hamiltonian(1e-6)
        r1 = escape_time(H, 0.05, threshold=0.025, t_cap=0.5, n_samples=4, seed=7)
        r2 = escape_time(H, 0.05, threshold=0.025, t_cap=0.5, n_samples=4, seed=7)
        assert np.array_equal(r1.escape_times, r2.escape_times)
        assert r1.max_drift_at_cap == r2.max_drift_at_cap

    def test_ballistic_bound_fault_can_fire(self, monkeypatch):
        # the first escape, at t = 0.011, lies above the real bound 0.00796;
        # a bound of 1 puts it below, and the run must fault
        H = FourierTaylorSeries.linear(OMEGA) + cosine(D, (1, 0))

        def run():
            return escape_time(H, 0.1, threshold=0.05, t_cap=1.0, n_samples=4, seed=0,
                               dt=0.001)

        assert run().min_escape == pytest.approx(0.011)
        monkeypatch.setattr(dynamics, "ballistic_bound", lambda *args: 1.0)
        with pytest.raises(NumericalFault, match=r"^sample 0 escaped at t=1\.100000e-02, "
                           "faster than the ballistic bound"):
            run()

    def test_diverging_step_fails_without_warning(self):
        # at dt = 2 the midpoint iterates of this O(1) H overflow; the suite
        # turns a RuntimeWarning into an error, so the overflow must not warn
        H = build_test_hamiltonian(HolderClass(6.5, 2), amplitude=1.0)
        with pytest.raises(NumericalFault, match="is not finite: the step diverged"):
            escape_time(H, 0.1, threshold=0.05, t_cap=4.0, n_samples=2, seed=0, dt=2.0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="n_samples"):
            escape_time(coupled_hamiltonian(), 0.05, threshold=0.01, t_cap=1.0,
                        n_samples=0, seed=0)

    @pytest.mark.parametrize(
        "rho, threshold, t_cap, name",
        [
            (math.nan, 0.01, 1.0, "rho"),
            (0.0, 0.01, 1.0, "rho"),
            (-0.1, 0.01, 1.0, "rho"),
            (math.inf, 0.01, 1.0, "rho"),
            (0.05, math.nan, 1.0, "threshold"),
            (0.05, math.inf, 1.0, "threshold"),
            (0.05, 0.0, 1.0, "threshold"),
            (0.05, 0.01, math.nan, "t_cap"),
            (0.05, 0.01, math.inf, "t_cap"),
            (0.05, 0.01, -1.0, "t_cap"),
        ],
    )
    def test_bad_input_rejected_by_name(self, monkeypatch, rho, threshold, t_cap, name):
        # a nan threshold used to censor every sample (a false "no escape"),
        # a nan rho or an infinite t_cap raised OverflowError, a nan t_cap
        # failed in int(), and rho <= 0 was blamed on the threshold
        calls = count_field_calls(monkeypatch)
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            escape_time(coupled_hamiltonian(), rho, threshold=threshold, t_cap=t_cap,
                        n_samples=2, seed=0)
        assert calls == []

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_dt_validation(self, dt):
        # dt = 0 used to divide by zero, and a negative dt ran one step of t_cap
        with pytest.raises(ValueError, match="dt"):
            escape_time(coupled_hamiltonian(), 0.05, threshold=0.01, t_cap=1.0,
                        n_samples=1, seed=0, dt=dt)


class TestConstantOffset:
    """H's constant c_0 is an energy offset that the split drops: it cannot
    scale the relative energy drift down."""

    H = build_test_hamiltonian(HolderClass(6.5, 2), 0, amplitude=1e-3)

    def test_offset_does_not_hide_energy_drift(self):
        plain, offset = (escape_time(G, 0.1, threshold=0.05, t_cap=2, n_samples=10, seed=0)
                         for G in (self.H, self.H + 1e6))
        assert plain.max_energy_drift > 1e-9
        assert offset.max_energy_drift == plain.max_energy_drift

    def test_trajectory_energy_leaves_out_the_offset(self):
        start = ((0.3, 0.7), (0.05, -0.05))
        plain, offset = (integrate(G, start, t_end=0.5, dt=0.01) for G in (self.H, self.H - 7.5))
        assert np.array_equal(offset.energy, plain.energy)
        assert plain.energy[0] == pytest.approx(
            self.H.evaluate(np.array(start[0]), np.array(start[1])), rel=1e-14
        )


def count_field_builds(monkeypatch):
    builds = []
    original = HamiltonianVectorField.__init__

    def counted(self, series):
        builds.append(len(series))
        original(self, series)

    monkeypatch.setattr(HamiltonianVectorField, "__init__", counted)
    return builds


def record_bytes(rec):
    return {f.name: np.asarray(getattr(rec, f.name)).tobytes() for f in fields(rec)}


class TestSplitKept:
    """_split keeps the last H object's (omega, field): the sweep and the
    checks step one H at several radii."""

    ARGS = dict(threshold=0.0005, t_cap=0.3, n_samples=6, seed=3)

    def test_one_build_per_object(self, monkeypatch):
        builds = count_field_builds(monkeypatch)
        H = coupled_hamiltonian(0.3)
        escape_time(H, 0.1, **self.ARGS)
        integrate(H, ((0.3, 0.7), (0.05, -0.05)), t_end=0.1, dt=0.01)
        warm = escape_time(H, 0.05, **self.ARGS)
        assert len(builds) == 1
        cold = escape_time(coupled_hamiltonian(0.3), 0.05, **self.ARGS)
        assert len(builds) == 2
        assert 0 < cold.censored.sum() < 6  # some samples escape, some are censored
        assert record_bytes(warm) == record_bytes(cold)

    def test_each_new_object_rebuilt(self, monkeypatch):
        # each series here is built by one constructor call, so it takes the
        # address (and so the id) of the last one freed; only the kept H
        # stops a new series of other content from passing for it
        builds = count_field_builds(monkeypatch)
        z = np.array([[0.3, 0.7, 0.05, -0.05]])
        w1, w2 = OMEGA
        for n, eps in enumerate(np.linspace(0.01, 0.5, 30), start=1):
            H = FourierTaylorSeries(D, {((0, 0), (1, 0)): w1, ((0, 0), (0, 1)): w2,
                                        ((1, -1), (2, 0)): eps, ((-1, 1), (2, 0)): eps})
            omega, field = _split(H)
            assert len(builds) == n
            assert _energy(field, omega, z)[0] == pytest.approx(
                H.evaluate(z[0, :D], z[0, D:]), rel=1e-14
            )
            del H, omega, field

    def test_complex_series_fails_every_call(self):
        H = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries(D, {((1, 0), (1, 0)): 0.1})
        for _ in range(2):
            with pytest.raises(NumericalFault, match="requires a real-valued series"):
                escape_time(H, 0.1, **self.ARGS)
        with pytest.raises(NumericalFault, match="requires a real-valued series"):
            integrate(H, ((0.3, 0.7), (0.05, -0.05)), t_end=0.1, dt=0.01)

    def test_complex_perturbation_measured_against_its_own_mass(self):
        # i f at 1e-12 of omega: against H's mass, which omega.I dominates, it passed
        f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-12)
        H = FourierTaylorSeries.linear(OMEGA) + 1j * f
        for _ in range(2):
            with pytest.raises(NumericalFault, match="^vector field requires a real-valued"):
                _split(H)
        omega, field = _split(FourierTaylorSeries.linear(OMEGA) + f)
        assert field.n == 1
