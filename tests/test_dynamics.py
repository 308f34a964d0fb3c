"""Split implicit-midpoint integration and Monte-Carlo escape measurement."""

import math

import numpy as np
import pytest

from torusstab import (
    FourierTaylorSeries,
    HamiltonianVectorField,
    HolderClass,
    ballistic_bound,
    default_dt,
    escape_time,
    golden_frequency,
    integrate,
    linear_frequency,
    sample_initial_conditions,
    theta_gradient_majorant,
)
from torusstab.dynamics import _midpoint_step, _split, _split_step

D = 2
OMEGA = golden_frequency(2)


def coupled_hamiltonian(eps=1e-3):
    return (
        FourierTaylorSeries.linear(OMEGA)
        + FourierTaylorSeries.cosine(D, (1, -1), m=(2, 0), amplitude=eps)
        + FourierTaylorSeries.sine(D, (0, 1), m=(1, 1), amplitude=0.5 * eps)
    )


class TestHelpers:
    def test_linear_frequency(self):
        H = coupled_hamiltonian()
        assert linear_frequency(H) == pytest.approx(np.array(OMEGA.omega))

    def test_default_dt(self):
        assert default_dt(coupled_hamiltonian()) == pytest.approx(0.01 / OMEGA.omega[1])
        slow = FourierTaylorSeries.linear((0.5, 0.1))
        assert default_dt(slow) == 0.01

    def test_theta_gradient_majorant_hand_value(self):
        H = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries.sine(
            D, (1, 0), m=(2, 0)
        )
        # two coefficients of 1/2, |k|_1 = 1, |m|_1 = 2
        assert theta_gradient_majorant(H, 0.05) == pytest.approx(
            2 * math.pi * 0.05**2, rel=1e-14
        )

    def test_ballistic_bound_oracle(self):
        # omega.I + I_1^2 sin(2 pi theta_1), threshold rho/2, radius rho:
        # bound = (rho/2) / (2 pi rho^2) = 1/(4 pi rho)
        rho = 0.05
        H = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries.sine(
            D, (1, 0), m=(2, 0)
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
        w = np.array(OMEGA.omega)
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
        H = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries.sine(
            D, (1, 0), m=(0, 0), amplitude=1.0
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

    def test_midpoint_step_second_order(self):
        # halving dt reduces the one-step error by about 2^3 (local order 3)
        H = coupled_hamiltonian(0.1)
        field = H.vector_field()
        theta = np.array([[0.2, 0.6]])
        I = np.array([[0.1, -0.2]])

        def error(dt, n):
            th, Ii = theta, I
            for _ in range(n):
                th, Ii = _midpoint_step(field, th, Ii, dt)
            return th, Ii

        ref_t, ref_I = error(1e-4, 400)
        t1, I1 = error(0.04, 1)
        t2, I2 = error(0.02, 2)
        e1 = np.max(np.abs(I1 - ref_I[0] * 0 - ref_I))
        e2 = np.max(np.abs(I2 - ref_I))
        assert e2 <= e1 / 3.0  # global order 2 over the same interval

    def test_split_step_second_order(self):
        # the whole step: half rotation, midpoint on f, half rotation
        H = coupled_hamiltonian(0.1)
        omega, field = _split(H)
        start = (np.array([[0.2, 0.6]]), np.array([[0.1, -0.2]]))

        def run(dt, n):
            th, Ii = start
            for _ in range(n):
                th, Ii = _split_step(field, omega, th, Ii, dt)
            return np.hstack([th, Ii])

        ref = run(1e-4, 400)
        e1 = np.max(np.abs(run(0.04, 1) - ref))
        e2 = np.max(np.abs(run(0.02, 2) - ref))
        e4 = np.max(np.abs(run(0.01, 4) - ref))
        assert e2 <= e1 / 3.0 and e4 <= e2 / 3.0

    def test_split_energy_is_f_kernel_plus_rotation(self):
        H = coupled_hamiltonian(0.1)
        omega, field = _split(H)
        assert field.n == 2  # the two conjugate pairs of f; omega.I is not in the kernel
        assert np.array_equal(omega, OMEGA.omega)
        traj = integrate(H, ((0.2, 0.6), (0.1, -0.2)), t_end=0.05, dt=0.01)
        assert traj.method == "split-midpoint"
        for theta, I, e in zip(traj.theta, traj.I, traj.energy):
            assert e == pytest.approx(H.evaluate(theta, I), rel=0, abs=1e-15)


def count_field_calls(monkeypatch):
    calls = []
    original = HamiltonianVectorField.__call__

    def counted(self, theta, I):
        calls.append(np.atleast_2d(theta).shape[0])
        return original(self, theta, I)

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


class TestEscapeTime:
    def test_all_censored_for_tiny_perturbation(self):
        H = coupled_hamiltonian(1e-12)
        rec = escape_time(H, 0.05, threshold=0.025, t_cap=1.0, n_samples=5, seed=0)
        assert rec.censored_fraction == 1.0
        assert rec.min_escape is None
        assert rec.max_drift_at_cap <= 1e-10
        assert rec.max_energy_drift <= 1e-12
        assert rec.method == "split-midpoint"

    def test_strong_forcing_escapes(self):
        H = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries.sine(
            D, (1, 0), amplitude=1.0
        )
        rec = escape_time(
            H, 0.01, threshold=0.005, t_cap=5.0, n_samples=8, seed=2, dt=1e-4
        )
        assert rec.censored_fraction == 0.0
        bound = rec.threshold / (2 * math.pi)  # sup force = 2 pi
        assert rec.min_escape >= bound * (1 - 1e-9)
        assert rec.min_escape <= 5 * bound  # and not absurdly later

    def test_deterministic(self):
        H = coupled_hamiltonian(1e-6)
        r1 = escape_time(H, 0.05, threshold=0.025, t_cap=0.5, n_samples=4, seed=7)
        r2 = escape_time(H, 0.05, threshold=0.025, t_cap=0.5, n_samples=4, seed=7)
        assert np.array_equal(r1.escape_times, r2.escape_times)
        assert r1.max_drift_at_cap == r2.max_drift_at_cap

    def test_input_validation(self):
        H = coupled_hamiltonian()
        with pytest.raises(ValueError):
            escape_time(H, 0.05, threshold=0.0, t_cap=1.0, n_samples=1, seed=0)
        with pytest.raises(ValueError):
            escape_time(H, 0.05, threshold=0.01, t_cap=-1.0, n_samples=1, seed=0)
        with pytest.raises(ValueError):
            escape_time(H, 0.05, threshold=0.01, t_cap=1.0, n_samples=0, seed=0)
