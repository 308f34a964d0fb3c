"""Experiment configs, test Hamiltonians, sweeps, fits, and plot data."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from torusstab import (
    ExperimentConfig,
    FourierTaylorSeries,
    HolderClass,
    NumericalFault,
    PreconditionError,
    build_test_hamiltonian,
    default_dt,
    emit_plots,
    fit_exponent,
    fit_exponent_rows,
    golden_frequency,
    lacunary_series,
    parse_config,
    read_sweep_csv,
    sweep,
)
from torusstab import dynamics, experiment, ftseries, stabpipe
from torusstab.cli import main as cli_main
from torusstab.experiment import CSV_COLUMNS, CSV_HEADER, SweepRow
from series_helpers import count_calls

HC65 = HolderClass(6.5, 2)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.rho_list == (0.1, 0.05, 0.025)
        assert cfg.holder.ell == 6.5

    def test_rho_list_must_decrease(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho_list=(0.1, 0.2))

    @pytest.mark.parametrize("rhos, bad", [((0.1, -0.05), -0.05), ((1.5, 0.1), 1.5),
                                           ((0.1, math.nan, 0.05), math.nan)])
    def test_every_rho_checked_up_front(self, rhos, bad):
        with pytest.raises(ValueError, match=rf"^rho must lie in \(0, 1\), got {bad!r}$"):
            ExperimentConfig(rho_list=rhos)

    def test_pipeline_mode_needs_small_rho(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho_list=(0.1, 0.05), dynamics_only=False)
        ExperimentConfig(rho_list=(1e-3, 1e-4), dynamics_only=False)

    @pytest.mark.parametrize(
        "key",
        ["xi", "xi_const", "C_1", "C_B", "C_9", "C_A", "C_2", "C_3", "kmax", "mmax", "outdir",
         "d", "omega", "epsilon", "T0"],
    )
    def test_unknown_keys_rejected_by_name(self, key):
        with pytest.raises(ValueError, match=f"unknown config key: {key}"):
            parse_config(f"{key} = 3")

    def test_parse_round_values(self):
        cfg = parse_config(
            """
            # comment
            ell = 5.5
            rho_list = 0.2, 0.1
            seed = 42
            dt = none
            dynamics_only = true
            """
        )
        assert cfg.ell == 5.5
        assert cfg.rho_list == (0.2, 0.1)
        assert cfg.seed == 42
        assert cfg.dt is None

    @pytest.mark.parametrize(
        "line, key",
        [("seed = x", "seed"), ("rho_list = 0.1, y", "rho_list"),
         ("dynamics_only = flase", "dynamics_only"), ("dynamics_only = 2", "dynamics_only")],
    )
    def test_bad_value_names_key(self, line, key):
        with pytest.raises(ValueError, match=f"bad value for config key {key}: '"):
            parse_config(line)

    @pytest.mark.parametrize(
        "word, value",
        [("1", True), ("True", True), ("yes", True), ("0", False), ("false", False),
         ("NO", False)],
    )
    def test_flag_words(self, word, value):
        config = parse_config(f"rho_list = 1e-3\ndynamics_only = {word}")
        assert config.dynamics_only is value

    @pytest.mark.parametrize(
        "line, key",
        [("t_cap = nan", "t_cap"), ("t_cap = inf", "t_cap"), ("t_cap = 0", "t_cap"),
         ("dt = -0.01", "dt"), ("dt = nan", "dt")],
    )
    def test_step_and_cap_must_be_positive_and_finite(self, line, key):
        with pytest.raises(ValueError, match=f"{key} must be None or positive and finite"):
            parse_config(line)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("frobnicate = 3\n")

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            parse_config("seed = -1")


class TestBuildHamiltonian:
    def test_structure(self):
        H = build_test_hamiltonian(HC65, seed=0, amplitude=1e-12, j_max=4)
        # linear part is the golden frequency
        w = golden_frequency(2)
        terms = dict(H.items())
        assert terms[((0, 0), (1, 0))] == w[0]
        assert terms[((0, 0), (0, 1))] == pytest.approx(w[1])
        f = H - FourierTaylorSeries.linear(w)
        assert f.min_taylor_order() >= 2
        assert f.max_taylor_order() <= HC65.q - 2
        assert H.is_real(tol=1e-12)

    def test_negative_seed_named_as_passed(self):
        # not the [seed, idx] each coefficient's draws derive from it
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            build_test_hamiltonian(HC65, seed=-1)

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
        assert f2.mass() == pytest.approx(2 * f1.mass(), rel=1e-12)


    @pytest.mark.parametrize(
        "build, expected",
        [
            *((lambda ell=ell, seed=seed: build_test_hamiltonian(HolderClass(ell, 2), seed), digest)
              for (ell, seed), digest in {
                  (5.5, 0): "55594eb63983c361", (5.5, 1): "1ceec08920175d0b",
                  (5.5, 3): "55dec51a45255c68", (6.5, 0): "b6638f2538fbd8ab",
                  (6.5, 1): "78dd36171b12213d", (6.5, 3): "121480da8cec263f",
                  (7.5, 0): "51711292454eafd2", (7.5, 1): "23cce1b76f399733",
                  (7.5, 3): "94244fbf850be409",
              }.items()),
            (lambda: lacunary_series(2, 6.5, j_max=12, seed=0), "cb658cb2df3e0108"),
            (lambda: lacunary_series(3, 7.5, j_max=10, seed=[4, 2], amplitude=3.0),
             "9e9f5b70b7b07062"),
        ],
    )
    def test_bits_are_pinned(self, build, expected):
        # every check, sweep and benchmark starts from these series: a change
        # to how they are drawn or merged that moves one bit fails here
        series = build()
        h = hashlib.sha256()
        for a in (series.K, series.M, series.C):
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
        assert h.hexdigest()[:16] == expected


class TestSweep:
    def test_certified_row_and_default_cap(self, monkeypatch):
        # rho = 1e-3 certifies, so the row carries its worst per-rho gate,
        # s_in_range at s / 1, and the contraction; t_cap defaults to
        # min(t_pred, max_steps dt) = 10 dt
        caps = []
        original = experiment.escape_time

        def spy(*args, **kwargs):
            caps.append(kwargs["t_cap"])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "escape_time", spy)
        cfg = ExperimentConfig(rho_list=(1e-3,), dynamics_only=False, max_steps=10, n_samples=2)
        (row,) = sweep(cfg)
        assert row.error == ""
        H = build_test_hamiltonian(HC65, seed=0)
        s = stabpipe.run_pipeline(H, golden_frequency(2), 0.5, 1.0, HC65, 1e-3).schedule.s
        assert row.schedule_flags == f"s_in_range:{s!r}"
        assert 0.0 < row.contraction < 1e-14
        assert row.censored_fraction == 1.0
        assert caps == [10 * default_dt(H)] and caps[0] < row.t_pred
        assert row.t_cap == caps[0]

    def test_rows_split_h_once(self, monkeypatch):
        # each row's pipeline, its escape run and the default dt read one split
        # of the one H, and one field of its f
        splits = count_calls(monkeypatch, ftseries, "_split_of")
        checks = count_calls(monkeypatch, FourierTaylorSeries, "is_real")
        builds = count_calls(monkeypatch, dynamics, "HamiltonianVectorField")
        cfg = ExperimentConfig(rho_list=(1e-3, 5e-4, 3e-4), dynamics_only=False, max_steps=10,
                               n_samples=2)
        rows = sweep(cfg)
        assert [r.censored_fraction for r in rows] == [1.0] * 3
        assert len(splits) == len(checks) == len(builds) == 1
        assert checks[0] is builds[0]  # f

    def test_certified_cells_show_a_per_rho_margin(self):
        # the dominance ratio (3 + 2/tau)/ell = 5/6.5 is the largest gate
        # ratio on both certified rows, and the same on each: the cell leaves
        # it out and shows the worst gate that moves with rho
        cfg = ExperimentConfig(rho_list=(1e-3, 1e-4), dynamics_only=False, max_steps=10,
                               n_samples=2)
        rows = sweep(cfg)
        assert [r.error for r in rows] == ["", ""]
        cells = [r.schedule_flags.split(":") for r in rows]
        assert [name for name, _ in cells] == ["s_in_range", "gamma_K"]
        assert 5.0 / 6.5 > float(cells[0][1]) > float(cells[1][1])

    def test_censored_points_drawn_at_t_cap(self, tmp_path):
        # the default cap stops the samples at 10 dt, orders of magnitude
        # below t_pred: the censored point is drawn where they stopped
        cfg = ExperimentConfig(rho_list=(0.1, 0.05), max_steps=10, n_samples=2)
        csv = tmp_path / "sweep.csv"
        sweep(cfg, csv_path=csv)
        cap = 10 * default_dt(build_test_hamiltonian(HC65, seed=0))
        rows = read_sweep_csv(csv)
        assert [(r.censored_fraction, r.t_cap) for r in rows] == [(1.0, cap)] * 2
        assert all(r.t_pred > 900 * cap for r in rows)
        emit_plots(rows, tmp_path / "out")
        censored = (tmp_path / "out" / "escape_censored.dat").read_text().splitlines()
        assert censored[1:] == [f"{math.log10(r)!r} {math.log10(cap)!r}" for r in (0.1, 0.05)]

    def test_stalled_normal_form_row_says_so(self, monkeypatch, tmp_path):
        # a normal form that stops uncertified (stubbed: the real stall at
        # rho = 1e-9 takes about 37 s) fails the contraction gate, and the
        # row names it, with the contraction over its target as the worst gate
        original = stabpipe.resonant_normal_form
        targets = []

        def stalled(*args, **kwargs):
            nf = original(*args, **kwargs)
            targets.append(nf.target_contraction)
            return replace(nf, stop="stalled", contraction=1.405 * nf.target_contraction)

        monkeypatch.setattr(stabpipe, "resonant_normal_form", stalled)
        cfg = ExperimentConfig(rho_list=(1e-3,), dynamics_only=False, max_steps=10, n_samples=2)
        csv = tmp_path / "sweep.csv"
        (row,) = sweep(cfg, csv_path=csv)
        (target,) = targets
        assert row.contraction == 1.405 * target
        assert row.error == "failed gates: contraction"
        assert row.schedule_flags == f"contraction:{row.contraction / target!r}"
        assert read_sweep_csv(csv)[0].error == row.error

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
        assert header == "# torusstab sweep schema v3"

    def test_failed_schedule_error_kept_in_csv(self, tmp_path):
        # amplitude 1e-3 puts the smoothing width s out of range at rho = 1e-3
        cfg = ExperimentConfig(
            rho_list=(1e-3,), amplitude=1e-3, t_cap=0.02, n_samples=2, dynamics_only=False
        )
        csv = tmp_path / "sweep.csv"
        (row,) = sweep(cfg, csv_path=csv)
        assert row.error == "failed gates: s_in_range"
        name, ratio = row.schedule_flags.split(":")
        assert name == "s_in_range" and float(ratio) > 1.0
        assert read_sweep_csv(csv)[0].error == row.error

    def test_failed_schedule_row_has_no_predicted_time(self, monkeypatch, tmp_path):
        # amplitude 1e-8 puts s out of range at rho = 1e-3: the pipeline gives
        # no prediction, so the row's t_pred is nan, not the headline shape,
        # and the default cap is max_steps dt
        caps = []
        original = experiment.escape_time

        def spy(*args, **kwargs):
            caps.append(kwargs["t_cap"])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "escape_time", spy)
        cfg = ExperimentConfig(
            rho_list=(1e-3,), amplitude=1e-8, dynamics_only=False, max_steps=10, n_samples=2
        )
        csv = tmp_path / "sweep.csv"
        (row,) = sweep(cfg, csv_path=csv)
        assert row.error == "failed gates: s_in_range"
        assert math.isnan(row.t_pred)
        dt = default_dt(build_test_hamiltonian(HC65, seed=0, amplitude=1e-8))
        assert caps == [10 * dt] and row.t_cap == caps[0]
        assert math.isnan(read_sweep_csv(csv)[0].t_pred)

    def test_integrable_row_has_no_flags(self, tmp_path):
        # amplitude 0 leaves H = omega.I: nothing to certify, so no schedule
        cfg = ExperimentConfig(
            rho_list=(1e-3,), amplitude=0.0, t_cap=0.02, n_samples=2, dynamics_only=False
        )
        csv = tmp_path / "sweep.csv"
        (row,) = sweep(cfg, csv_path=csv)
        assert row.t_pred == math.inf
        assert row.error == ""
        assert read_sweep_csv(csv)[0].schedule_flags == "-"

    def test_failed_stage_row_is_not_dynamics_only(self, tmp_path):
        # gamma = 5 exceeds the certified gamma_K, so the certificate stage
        # raises: the pipeline ran and gave no schedule flags
        cfg = ExperimentConfig(
            rho_list=(1e-3,), gamma=5.0, t_cap=0.02, n_samples=2, dynamics_only=False
        )
        csv = tmp_path / "sweep.csv"
        (row,) = sweep(cfg, csv_path=csv)
        assert row.error.startswith("pipeline stage 'certificate' failed")
        assert row.schedule_flags == "-"
        assert read_sweep_csv(csv)[0].schedule_flags == "-"

    def test_failed_schedule_value_error_row_recorded(self, tmp_path):
        # at rho = 1e-320 the cutoff K overflows in parameter_schedule, which
        # runs outside any stage: the row records it and the sweep goes on
        cfg = ExperimentConfig(rho_list=(1e-3, 1e-320), t_cap=0.01, n_samples=2,
                               dynamics_only=False)
        csv = tmp_path / "sweep.csv"
        rows = sweep(cfg, csv_path=csv)
        assert rows[0].error == ""
        assert rows[1].error.startswith("cutoff K = (rho_tilde/rho)^a must be finite")
        assert [r.error for r in read_sweep_csv(csv)] == [r.error for r in rows]

    def test_dominance_gate_at_tau_0_row_recorded(self):
        # at tau = 0 the gate 3 + 2/tau is inf, and fails by name
        cfg = ExperimentConfig(rho_list=(1e-3,), tau=0.0, t_cap=0.01, n_samples=2,
                               dynamics_only=False)
        (row,) = sweep(cfg)
        assert row.error == ("pipeline stage 'remainder_bounds' failed: ell = 6.5 must exceed "
                             "(3-a)/(1-a) = 3 + 2/tau = inf for tau = 0.0")

    def test_step_count_overflow_row_recorded(self):
        cfg = ExperimentConfig(rho_list=(0.1, 0.05), dt=1e-300, t_cap=1e300, n_samples=2)
        rows = sweep(cfg)
        assert [r.error for r in rows] == ["dynamics: t_cap/dt must be positive and finite, "
                                           "got inf"] * 2

    def test_programming_error_in_dynamics_propagates(self, monkeypatch):
        # only the failure families are a row's error; anything else is a bug
        def raising(exc):
            def escape_time(*args, **kwargs):
                raise exc

            return escape_time

        cfg = ExperimentConfig(rho_list=(0.1,), t_cap=0.02, n_samples=2)
        monkeypatch.setattr(experiment, "escape_time", raising(TypeError("not a fault")))
        with pytest.raises(TypeError, match="not a fault"):
            sweep(cfg)
        monkeypatch.setattr(experiment, "escape_time", raising(NumericalFault("not finite")))
        (row,) = sweep(cfg)
        assert row.error == "dynamics: not finite"

    def test_diverging_step_error_kept_in_csv(self, tmp_path):
        # at dt = 2 the midpoint iteration on the amplitude-1 H diverges
        cfg = parse_config("amplitude = 1\ndt = 2\nt_cap = 4\nn_samples = 2\nrho_list = 0.1\n")
        csv = tmp_path / "sweep.csv"
        (row,) = sweep(cfg, csv_path=csv)
        assert row.error.startswith("dynamics: ")
        assert "not finite" in row.error
        assert row.min_escape is None and math.isnan(row.censored_fraction)
        assert read_sweep_csv(csv)[0].error == row.error

    def test_row_round_trip(self, tmp_path):
        row = SweepRow(
            rho=0.05,
            t_pred=123.456,
            min_escape=None,
            censored_fraction=1.0,
            max_drift=1e-14,
            schedule_flags="dynamics-only",
            contraction=math.nan,
            t_cap=0.25,
            error="schedule flags failed: rho_ok, s_in_range; dynamics: a, b",
        )
        csv = tmp_path / "sweep.csv"
        csv.write_text(f"{CSV_HEADER}\n{','.join(CSV_COLUMNS)}\n{row.to_csv()}\n")
        (back,) = read_sweep_csv(csv)
        assert back.to_csv() == row.to_csv()
        assert back.min_escape is None
        assert back.t_cap == 0.25
        assert back.error == row.error

    def test_v1_row_still_parses(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        csv.write_text(
            "# torusstab sweep schema v1\n"
            "rho,t_pred,t_diff_ref,min_escape,censored_fraction,max_drift,schedule_flags,"
            "contraction\n"
            "0.05,123.456,789.0,nan,1.0,1e-14,dynamics-only,nan\n"
        )
        (back,) = read_sweep_csv(csv)
        assert back.t_pred == 123.456
        assert back.schedule_flags == "dynamics-only"
        assert math.isnan(back.t_cap)
        assert back.error == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("rho,t_pred\n0.1,1.0\n", "sweep columns line lacks min_escape"),
            (f"{','.join(CSV_COLUMNS)}\n0.1,1.0,nan,1.0,0.0\n", "malformed sweep row"),
            ("0.1,1.0,nan,1.0,0.0,-,nan,0.1,\n", "sweep row before the columns line"),
            (f"{','.join(CSV_COLUMNS)}\n0.1,abc,nan,1.0,0.0,-,nan,0.1,\n",
             "bad value for sweep column t_pred: 'abc' in row '0.1,abc,"),
        ],
        ids=["missing-column", "short-row", "no-columns-line", "not-a-number"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, message):
        csv = tmp_path / "sweep.csv"
        csv.write_text(f"{CSV_HEADER}\n{text}")
        with pytest.raises(ValueError, match=message):
            read_sweep_csv(csv)


# one sweep as each schema version wrote it: v1 has no error column, v1 and
# v2 carry t_diff_ref and no t_cap
RHOS = (0.1, 0.05, 0.02, 0.01)
T_PRED = (57.255038647058555, 181.17405043259018, 1296.9696572379241, 7114.571298504987)
FAILED = "schedule flags failed: rho_ok, s_in_range; dynamics: a, b"
OLD_FILES = {
    "v1": (
        "# torusstab sweep schema v1\n"
        "rho,t_pred,t_diff_ref,min_escape,censored_fraction,max_drift,schedule_flags,"
        "contraction\n"
        "0.1,57.255038647058555,7079.45784384137,nan,1.0,6.5e-15,dynamics-only,nan\n"
        "0.05,181.17405043259018,102085.83450873457,0.05,0.5,1.4e-15,dynamics-only,nan\n"
        "0.02,1296.9696572379241,3475637.8388934773,nan,1.0,2.0e-16,dynamics-only,nan\n"
        "0.01,7114.571298504987,50118723.362727106,nan,1.0,4.9e-17,dynamics-only,nan\n"
    ),
    "v2": (
        "# torusstab sweep schema v2\n"
        "rho,t_pred,t_diff_ref,min_escape,censored_fraction,max_drift,schedule_flags,"
        "contraction,error\n"
        "0.1,57.255038647058555,7079.45784384137,nan,1.0,6.5e-15,dynamics-only,nan,\n"
        "0.05,181.17405043259018,102085.83450873457,0.05,0.5,1.4e-15,dynamics-only,nan,\n"
        f"0.02,1296.9696572379241,3475637.8388934773,nan,nan,nan,-,nan,{FAILED}\n"
        "0.01,7114.571298504987,50118723.362727106,nan,1.0,4.9e-17,dynamics-only,nan,\n"
    ),
    "v3": (
        "# torusstab sweep schema v3\n"
        "rho,t_pred,min_escape,censored_fraction,max_drift,schedule_flags,contraction,t_cap,"
        "error\n"
        "0.1,57.255038647058555,nan,1.0,6.5e-15,dynamics-only,nan,0.1,\n"
        "0.05,181.17405043259018,0.05,0.5,1.4e-15,dynamics-only,nan,0.1,\n"
        f"0.02,1296.9696572379241,nan,nan,nan,-,nan,0.1,{FAILED}\n"
        "0.01,7114.571298504987,nan,1.0,4.9e-17,dynamics-only,nan,0.1,\n"
    ),
}


@pytest.mark.parametrize("version", sorted(OLD_FILES))
class TestEveryVersionReads:
    @pytest.fixture
    def csv(self, tmp_path, version):
        path = tmp_path / f"sweep-{version}.csv"
        path.write_text(OLD_FILES[version])
        return path

    def test_rows(self, csv, version):
        rows = read_sweep_csv(csv)
        assert tuple(r.rho for r in rows) == RHOS
        assert tuple(r.t_pred for r in rows) == T_PRED
        assert [r.min_escape for r in rows] == [None, 0.05, None, None]
        assert rows[2].error == ("" if version == "v1" else FAILED)
        assert rows[0].error == ""
        caps = [r.t_cap for r in rows]
        if version == "v3":
            assert caps == [0.1] * 4
        else:
            assert all(map(math.isnan, caps))

    def test_fit_and_plots_run(self, csv, version, tmp_path, capsys):
        assert cli_main(["fit", "--csv", str(csv), "--log-exponent", "5.5"]) == 0
        out = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert out["n_points"] == "4"
        # t_pred follows the headline shape, exponent 1 + 5.5/2, exactly
        assert float(out["p"]) == pytest.approx(3.75, abs=1e-9)
        outdir = tmp_path / "plots"
        assert cli_main(["plots", "--csv", str(csv), "--outdir", str(outdir)]) == 0
        censored = (outdir / "escape_censored.dat").read_text().splitlines()[1:]
        # v1 and v2 rows do not say how long their samples ran: no point
        expected = [f"{math.log10(r)!r} {math.log10(0.1)!r}" for r in (0.1, 0.01)]
        assert censored == (expected if version == "v3" else [])


class TestFit:
    def test_pure_power_exact_recovery(self):
        rhos = np.array([10.0**-e for e in range(3, 9)])
        times = 7.3 / rhos**3.5
        rep = fit_exponent(rhos, times)
        assert rep.model == "pure-power"
        assert rep.p == pytest.approx(3.5, abs=1e-10)
        assert math.exp(rep.c0) == pytest.approx(7.3, rel=1e-9)

    def test_power_with_log_recovery(self):
        rhos = np.array([10.0**-e for e in range(3, 9)])
        times = 2.0 / (rhos**3.5 * np.abs(np.log(rhos)) ** 5.5)
        rep = fit_exponent(rhos, times, log_exponent=5.5)
        assert rep.model == "power-with-log"
        assert rep.p == pytest.approx(3.5, abs=1e-6)
        # fitting the same data without the log correction biases the exponent
        naive = fit_exponent(rhos, times)
        assert abs(naive.p - 3.5) > 0.05

    def test_insufficient_data(self):
        with pytest.raises(PreconditionError, match=r"only 3 usable rows \(need >= 4\)"):
            fit_exponent([0.1, 0.01, 0.001], [1.0, 10.0, 100.0])

    def test_nonfinite_rows_excluded(self):
        rhos = [0.1, 0.05, 0.02, 0.01, 0.005]
        times = [10.0, math.nan, 100.0, 1000.0, 10000.0]
        rep = fit_exponent(rhos, times)
        assert rep.n_points == 4

    def test_fit_from_rows(self):
        rows = [
            SweepRow(
                rho=r, t_pred=1.0 / r**2, min_escape=None,
                censored_fraction=1.0, max_drift=0.0,
                schedule_flags="-", contraction=math.nan,
            )
            for r in (0.1, 0.05, 0.02, 0.01)
        ]
        rep = fit_exponent_rows(rows, source="t_pred")
        assert rep.p == pytest.approx(2.0, abs=1e-10)

    def test_fit_from_escape_rows(self):
        # a censored row (no escape) is left out of the fit
        rows = [
            SweepRow(
                rho=r, t_pred=0.0, min_escape=None if r == 0.2 else 3.0 / r**1.5,
                censored_fraction=0.5, max_drift=0.0, schedule_flags="-", contraction=math.nan,
            )
            for r in (0.2, 0.1, 0.05, 0.02, 0.01)
        ]
        rep = fit_exponent_rows(rows, source="min_escape")
        assert rep.n_points == 4
        assert rep.p == pytest.approx(1.5, abs=1e-10)
        with pytest.raises(ValueError, match="unknown fit source 'escape'"):
            fit_exponent_rows(rows, source="escape")


class TestPlots:
    def test_emit_and_parse_back(self, tmp_path):
        rows = [
            SweepRow(0.1, 57.0, None, 1.0, 0.0, "-", math.nan),
            SweepRow(0.05, 180.0, 90.0, 0.5, 0.0, "-", math.nan),
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

    def test_only_fully_censored_rows_are_censored_points(self, tmp_path):
        # at dt = 2 the integration raises, so the sweep's row has no escape
        # data; it and a row with no finite t_cap give no censored point
        cfg = parse_config("amplitude = 1\ndt = 2\nt_cap = 4\nn_samples = 2\nrho_list = 0.1\n")
        (failed,) = sweep(cfg)
        assert failed.error.startswith("dynamics: ")
        rows = [
            failed,
            SweepRow(0.05, 180.0, None, 1.0, 0.0, "-", math.nan, t_cap=math.inf),
            SweepRow(0.025, 180.0, None, 1.0, 0.0, "-", math.nan, t_cap=0.5),
        ]
        emit_plots(rows, tmp_path)
        censored = (tmp_path / "escape_censored.dat").read_text().splitlines()
        assert censored[1:] == [f"{math.log10(0.025)!r} {math.log10(0.5)!r}"]

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plots([], tmp_path / "out")
