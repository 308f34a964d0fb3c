"""Experiment configs, test Hamiltonians, sweeps, fits, and plot data."""

import math

import numpy as np
import pytest

from torusstab import (
    BoundConstants,
    ExperimentConfig,
    FourierTaylorSeries,
    HolderClass,
    InsufficientDataError,
    build_test_hamiltonian,
    emit_plots,
    fit_exponent,
    fit_exponent_rows,
    golden_frequency,
    parse_config,
    read_sweep_csv,
    sweep,
)
from torusstab.experiment import SweepRow

HC65 = HolderClass(6.5, 2)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.rho_list == (0.1, 0.05, 0.025)
        assert cfg.frequency == golden_frequency(2)
        assert cfg.holder.ell == 6.5

    def test_rho_list_must_decrease(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho_list=(0.1, 0.2))

    def test_pipeline_mode_needs_small_rho(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho_list=(0.1, 0.05), dynamics_only=False)
        ExperimentConfig(rho_list=(1e-3, 1e-4), dynamics_only=False)

    @pytest.mark.parametrize("key", ["xi_const", "C_9", "kmax", "mmax", "outdir"])
    def test_unknown_keys_rejected_by_name(self, key):
        with pytest.raises(ValueError, match=f"unknown config key: {key}"):
            parse_config(f"{key} = 3")

    def test_xi_reaches_constants(self):
        cfg = parse_config("xi = 3")
        assert cfg.xi == 3.0
        assert cfg.constants.xi == 3.0

    def test_xi_is_the_constants_xi(self):
        assert ExperimentConfig(constants=BoundConstants(xi=3.0)).xi == 3.0

    def test_parse_round_values(self):
        cfg = parse_config(
            """
            # comment
            ell = 5.5
            rho_list = 0.2, 0.1
            seed = 42
            dt = none
            dynamics_only = true
            C_1 = 2.0
            """
        )
        assert cfg.ell == 5.5
        assert cfg.rho_list == (0.2, 0.1)
        assert cfg.seed == 42
        assert cfg.dt is None
        assert cfg.constants.C_1 == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("frobnicate = 3\n")


class TestBuildHamiltonian:
    def test_structure(self):
        H = build_test_hamiltonian(HC65, seed=0, amplitude=1e-12, j_max=4)
        # linear part is the golden frequency
        w = golden_frequency(2)
        assert H.terms[((0, 0), (1, 0))] == w.omega[0]
        assert H.terms[((0, 0), (0, 1))] == pytest.approx(w.omega[1])
        f = H - FourierTaylorSeries.linear(w)
        assert f.min_taylor_order() >= 2
        assert f.max_taylor_order() <= HC65.q - 2
        assert H.is_real(tol=1e-12)

    def test_deterministic(self):
        a = build_test_hamiltonian(HC65, seed=5, amplitude=1e-6, j_max=3)
        b = build_test_hamiltonian(HC65, seed=5, amplitude=1e-6, j_max=3)
        c = build_test_hamiltonian(HC65, seed=6, amplitude=1e-6, j_max=3)
        assert a == b
        assert a != c

    def test_amplitude_scales_perturbation(self):
        w = golden_frequency(2)
        f1 = build_test_hamiltonian(HC65, seed=1, amplitude=1e-6, j_max=3) - (
            FourierTaylorSeries.linear(w)
        )
        f2 = build_test_hamiltonian(HC65, seed=1, amplitude=2e-6, j_max=3) - (
            FourierTaylorSeries.linear(w)
        )
        assert f2.coefficient_mass() == pytest.approx(2 * f1.coefficient_mass(), rel=1e-12)


class TestSweep:
    def test_dynamics_only_sweep_and_csv(self, tmp_path):
        cfg = ExperimentConfig(
            rho_list=(0.1, 0.05),
            t_cap=0.5,
            n_samples=2,
            seed=0,
        )
        csv = tmp_path / "sweep.csv"
        rows = sweep(cfg, csv_path=csv)
        assert len(rows) == 2
        assert all(r.censored_fraction == 1.0 for r in rows)
        assert rows[0].t_pred > 0
        # round trip through the CSV
        parsed = read_sweep_csv(csv)
        assert [r.rho for r in parsed] == [r.rho for r in rows]
        assert [r.t_pred for r in parsed] == [r.t_pred for r in rows]
        assert parsed[0].min_escape is None
        header = csv.read_text().splitlines()[0]
        assert header.startswith("# torusstab sweep schema")

    def test_row_round_trip(self):
        row = SweepRow(
            rho=0.05,
            t_pred=123.456,
            t_diff_ref=789.0,
            min_escape=None,
            censored_fraction=1.0,
            max_drift=1e-14,
            schedule_flags="dynamics-only",
            contraction=math.nan,
        )
        back = SweepRow.from_csv(row.to_csv())
        assert back.rho == row.rho
        assert back.t_pred == row.t_pred
        assert back.min_escape is None


class TestFit:
    def test_pure_power_exact_recovery(self):
        rhos = np.array([10.0**-e for e in range(3, 9)])
        times = 7.3 / rhos**3.5
        rep = fit_exponent(rhos, times, model="pure-power")
        assert rep.p == pytest.approx(3.5, abs=1e-10)
        assert math.exp(rep.c0) == pytest.approx(7.3, rel=1e-9)

    def test_power_with_log_recovery(self):
        rhos = np.array([10.0**-e for e in range(3, 9)])
        times = 2.0 / (rhos**3.5 * np.abs(np.log(rhos)) ** 5.5)
        rep = fit_exponent(rhos, times, model="power-with-log", log_exponent=5.5)
        assert rep.p == pytest.approx(3.5, abs=1e-6)
        # fitting the same data without the log correction biases the exponent
        naive = fit_exponent(rhos, times, model="pure-power")
        assert abs(naive.p - 3.5) > 0.05

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_exponent([0.1, 0.01, 0.001], [1.0, 10.0, 100.0])

    def test_nonfinite_rows_excluded(self):
        rhos = [0.1, 0.05, 0.02, 0.01, 0.005]
        times = [10.0, math.nan, 100.0, 1000.0, 10000.0]
        rep = fit_exponent(rhos, times)
        assert rep.n_points == 4

    def test_fit_from_rows(self):
        rows = [
            SweepRow(
                rho=r, t_pred=1.0 / r**2, t_diff_ref=0.0, min_escape=None,
                censored_fraction=1.0, max_drift=0.0,
                schedule_flags="-", contraction=math.nan,
            )
            for r in (0.1, 0.05, 0.02, 0.01)
        ]
        rep = fit_exponent_rows(rows, source="t_pred")
        assert rep.p == pytest.approx(2.0, abs=1e-10)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_exponent([1, 2, 3, 4], [1, 2, 3, 4], model="cubic-spline")


class TestPlots:
    def test_emit_and_parse_back(self, tmp_path):
        rows = [
            SweepRow(0.1, 57.0, 100.0, None, 1.0, 0.0, "-", math.nan),
            SweepRow(0.05, 180.0, 400.0, 90.0, 0.5, 0.0, "-", math.nan),
        ]
        paths = emit_plots(rows, tmp_path / "out")
        names = {p.split("/")[-1] for p in map(str, paths)}
        assert names == {"pred.dat", "escape.dat", "escape_censored.dat", "plot.gp"}
        pred = [
            tuple(map(float, line.split()))
            for line in (tmp_path / "out" / "pred.dat").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert pred[0][0] == pytest.approx(math.log10(0.1))
        assert pred[0][1] == pytest.approx(math.log10(57.0))

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plots([], tmp_path / "out")
