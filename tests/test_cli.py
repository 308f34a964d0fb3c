"""Command-line interface: subcommands, output format, exit codes."""

import math
from dataclasses import replace

import pytest

from torusstab import (
    AnalyticityWidths,
    ExperimentConfig,
    FourierTaylorSeries,
    HolderClass,
    NormalFormParams,
    NumericalFault,
    build_test_hamiltonian,
    golden_frequency,
    read_sweep_csv,
    resonant_normal_form,
    dynamics,
    stabpipe,
    sweep,
)
from torusstab import ftseries
from torusstab.cli import main
from torusstab.experiment import CSV_COLUMNS, CSV_HEADER, SweepRow
from torusstab.ftseries import split_linear
from series_helpers import cosine, count_calls


def parse_kv(output):
    values = {}
    for line in output.strip().splitlines():
        key, _, val = line.partition(" = ")
        values[key] = val
    return values


class TestDioph:
    def test_golden(self, capsys):
        assert main(["dioph", "--K", "5"]) == 0
        out = parse_kv(capsys.readouterr().out)
        assert float(out["gamma_K"]) == pytest.approx(1.0)
        assert float(out["alpha"]) == pytest.approx(0.2)

    def test_any_K(self, capsys):
        assert main(["dioph", "--K", "2700"]) == 0
        out = parse_kv(capsys.readouterr().out)
        assert out["gamma_K"] == "1.0"
        assert out["attained_k"] == "1,0"

    def test_bad_K_exit_code(self, capsys):
        assert main(["dioph", "--K", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_cap_flag_removed(self):
        # the search is exact and cheap at any K, so there is no cap to raise
        with pytest.raises(SystemExit) as exc:
            main(["dioph", "--K", "5", "--cap", "10"])
        assert exc.value.code == 2

    def test_explicit_omega(self, capsys):
        assert main(["dioph", "--omega", "1.0,1.4142135623730951", "--K", "5"]) == 0
        out = parse_kv(capsys.readouterr().out)
        assert float(out["gamma_K"]) == pytest.approx(0.8284271247461901)

    @pytest.mark.parametrize("command", ["dioph"])
    def test_bad_omega_names_the_flag(self, capsys, command):
        assert main([command, "--K", "5", "--omega", "1,abc"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: bad value for --omega: '1,abc'\n"
        assert captured.out == ""


class TestNF:
    def test_acceptance_instance(self, tmp_path, capsys):
        H = FourierTaylorSeries.linear(golden_frequency(2)) + (
            cosine(2, (1, 0), m=(2, 0), amplitude=1e-6)
        )
        src = tmp_path / "H.txt"
        dst = tmp_path / "h.txt"
        H.save(src)
        rc = main(["nf", "--input", str(src), "--alpha", "0.2", "--K", "5",
                   "--sigma", "1.2", "--rho", "0.5", "--output", str(dst)])
        assert rc == 0
        out = parse_kv(capsys.readouterr().out)
        assert out["certified"] == "1"
        assert out["stop"] == "certified"
        assert float(out["contraction"]) <= math.exp(-1.0)
        # --output writes the integrable part of the same normal form
        params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5))
        h = resonant_normal_form(*split_linear(H, "normal form"), params).h
        assert FourierTaylorSeries.load(dst) == h

    def test_output_leaves_out_the_constant(self, tmp_path):
        # c_0 is an energy offset, dropped by the split as by every consumer
        f = cosine(2, (1, 0), m=(2, 0), amplitude=1e-6)
        H = FourierTaylorSeries.linear(golden_frequency(2)) + f
        argv = ["nf", "--alpha", "0.2", "--K", "5", "--sigma", "1.2", "--rho", "0.5"]
        outputs = []
        for n, series in enumerate((H, H + 0.5)):
            src, dst = tmp_path / f"H{n}.txt", tmp_path / f"h{n}.txt"
            series.save(src)
            assert main(argv + ["--input", str(src), "--output", str(dst)]) == 0
            outputs.append(dst.read_text())
        assert outputs[0] == outputs[1]
        params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5))
        assert outputs[0] == resonant_normal_form(golden_frequency(2), f, params).h.to_text()

    def test_frequency_read_from_input(self, tmp_path, capsys):
        # the linear part is (1, sqrt 2): the golden frequency would solve the
        # wrong homological equation and certify a nonzero remainder
        H = FourierTaylorSeries.linear((1.0, 2.0**0.5)) + (
            cosine(2, (0, 1), m=(2, 0), amplitude=1e-6)
        )
        src = tmp_path / "H.txt"
        H.save(src)
        assert main(["nf", "--input", str(src), "--alpha", "0.2", "--K", "5",
                     "--sigma", "1.2", "--rho", "0.5"]) == 0
        out = parse_kv(capsys.readouterr().out)
        params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5))
        nf = resonant_normal_form(*split_linear(H, "normal form"), params)
        assert out["contraction"] == repr(nf.contraction)
        assert out["contraction"] == "0.0"

    @pytest.mark.parametrize("command", ["nf", "predict"])
    def test_omega_flag_removed(self, tmp_path, command):
        # omega is the linear part of the input Hamiltonian
        argv = {
            "nf": ["nf", "--alpha", "0.2", "--K", "5", "--sigma", "1.2", "--rho", "0.5"],
            "predict": ["predict", "--rho", "1e-3"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--input", str(tmp_path / "H.txt"), "--omega", "1,1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--order", "--rel-chop", "--xi"])
    def test_chop_and_order_flags_removed(self, tmp_path, flag):
        # the chop and the stop rule follow from the certificate target, and
        # xi is the module constant normalform.XI
        with pytest.raises(SystemExit) as exc:
            main(["nf", "--input", str(tmp_path / "H.txt"), "--alpha", "0.2", "--K", "5",
                  "--sigma", "1.2", "--rho", "0.5", flag, "1"])
        assert exc.value.code == 2

    def test_smallness_violation_exit(self, tmp_path, capsys):
        H = FourierTaylorSeries.linear(golden_frequency(2)) + (
            cosine(2, (1, 0), m=(2, 0), amplitude=1.0)
        )
        src = tmp_path / "H.txt"
        H.save(src)
        rc = main(["nf", "--input", str(src), "--alpha", "0.2", "--K", "5",
                   "--sigma", "1.2", "--rho", "0.5"])
        assert rc == 2


class TestPredict:
    def test_shape_only(self, capsys):
        rc = main(["predict", "--rho", "1e-4", "--ell", "6.0", "--tau", "1.0"])
        assert rc == 0
        out = parse_kv(capsys.readouterr().out)
        assert float(out["t_theorem"]) == pytest.approx(1.5087649965990064e9, rel=1e-9)
        assert float(out["exponent"]) == pytest.approx(3.5)

    def test_gamma_without_input_refused(self, capsys):
        # gamma is the Diophantine constant of the pipeline, which needs an H
        assert main(["predict", "--rho", "1e-3", "--gamma", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --gamma is used only with --input\n"
        assert captured.out == ""

    def test_tiny_rho_time_reads_inf(self, capsys):
        # rho^3.75 underflows to 0 below about 1e-86; the times are computed
        # in log space, so they overflow to inf instead of dividing by zero
        assert main(["predict", "--rho", "1e-200"]) == 0
        captured = capsys.readouterr()
        out = parse_kv(captured.out)
        assert out["t_theorem"] == "inf"
        assert "Traceback" not in captured.err

    def test_pipeline_precondition_exit_code(self, tmp_path, capsys):
        # an order-1 perturbation term fails the Taylor-split precondition
        H = FourierTaylorSeries.linear(golden_frequency(2)) + (
            cosine(2, (1, 0), m=(1, 0), amplitude=1e-12)
        )
        src = tmp_path / "H.txt"
        H.save(src)
        assert main(["predict", "--rho", "1e-3", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_input_split_once(self, tmp_path, capsys, monkeypatch):
        # the CLI's check for a linear part and the pipeline read one split
        src = tmp_path / "H.txt"
        build_test_hamiltonian(HolderClass(6.5, 2), seed=0).save(src)
        splits = count_calls(monkeypatch, ftseries, "_split_of")
        checks = count_calls(monkeypatch, FourierTaylorSeries, "is_real")
        assert main(["predict", "--rho", "1e-3", "--input", str(src)]) == 0
        assert "certified = 1" in capsys.readouterr().out
        assert len(splits) == len(checks) == 1

    def test_empty_polynomial_part_exit_code(self, tmp_path, capsys):
        # only Taylor order 5 = q - 1 at ell = 6.5: no coefficient to take a norm of
        H = FourierTaylorSeries.linear(golden_frequency(2)) + (
            cosine(2, (2, 0), m=(5, 0), amplitude=1e-12)
        )
        src = tmp_path / "H.txt"
        H.save(src)
        assert main(["predict", "--rho", "1e-3", "--ell", "6.5", "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: pipeline stage 'taylor_split' failed: perturbation has no terms of "
            "Taylor orders 2..4\n"
        )
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_stage_failures_keep_their_exit_codes(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "H.txt"
        build_test_hamiltonian(HolderClass(6.5, 2), seed=0).save(src)
        # gamma above the certified gamma_K fails the certificate stage
        assert main(["predict", "--rho", "1e-3", "--gamma", "5", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pipeline stage 'certificate' failed")
        assert "Traceback" not in err

        def diverge(*args):
            raise NumericalFault("bracket norm grew")

        monkeypatch.setattr(stabpipe, "resonant_normal_form", diverge)
        assert main(["predict", "--rho", "1e-3", "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical fault: pipeline stage 'normal_form' failed")
        assert "Traceback" not in err

    def test_stalled_normal_form_names_the_failure(self, tmp_path, capsys, monkeypatch):
        # a normal form that stops uncertified (stubbed: a real stall takes
        # tens of seconds) fails the contraction gate, whose line gives the margin
        original = stabpipe.resonant_normal_form

        def stalled(*args, **kwargs):
            nf = original(*args, **kwargs)
            return replace(nf, stop="stalled", contraction=1.405 * nf.target_contraction)

        monkeypatch.setattr(stabpipe, "resonant_normal_form", stalled)
        src = tmp_path / "H.txt"
        build_test_hamiltonian(HolderClass(6.5, 2), seed=0).save(src)
        assert main(["predict", "--rho", "1e-3", "--input", str(src)]) == 1
        captured = capsys.readouterr()
        out = parse_kv(captured.out)
        assert out["nf.stop"] == "stalled"
        assert out["nf.certified"] == "0"
        assert out["failure"] == "failed gates: contraction"
        contraction, target = float(out["nf.contraction"]), float(out["nf.target_contraction"])
        assert out["gate.contraction"] == (
            f"{contraction!r} / {target!r} = {contraction / target!r}"
        )
        assert captured.err == ""

    @pytest.mark.parametrize("rho", ["1e-3", "1e-8", "1e-13"])
    def test_integrable_input_has_no_schedule(self, tmp_path, capsys, rho):
        # H = omega.I: nothing to certify, so no schedule lines and t = inf
        src = tmp_path / "H.txt"
        FourierTaylorSeries.linear(golden_frequency(2)).save(src)
        assert main(["predict", "--rho", rho, "--input", str(src)]) == 0
        captured = capsys.readouterr()
        out = parse_kv(captured.out)
        assert not any(key.startswith("schedule.") for key in out)
        assert out["t_theorem"] == "inf"
        assert out["failure"] == "none"
        assert captured.err == ""

    def test_infinite_cutoff_exit_code(self, tmp_path, capsys):
        # a 1e-300 amplitude makes rho_tilde/rho, and so the cutoff K, overflow
        src = tmp_path / "H.txt"
        build_test_hamiltonian(HolderClass(6.5, 2), seed=0, amplitude=1e-300).save(src)
        assert main(["predict", "--rho", "1e-20", "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cutoff K ")
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_key_overflow_exit_code(self, tmp_path, capsys):
        # modes +-(2^31, 2^31): the packed (k, m) keys would pass 2^63
        big = 1 << 31
        src = tmp_path / "H.txt"
        src.write_text(f"# d=2\n{big} {big} | 0 0 | 1.0 0.0\n{-big} {-big} | 0 0 | 1.0 0.0\n")
        assert main(["predict", "--rho", "1e-3", "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "column spans" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_constants_flag_removed(self, tmp_path):
        # every bound is the theorem's shape with its constant set to 1
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--rho", "1e-3", "--constants", str(tmp_path / "f")])
        assert exc.value.code == 2


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["predict", "--rho", "1e-3", "--tau", "-1"], "tau"),
            (["predict", "--rho", "1e-3", "--tau", "nan"], "tau"),
            (["predict", "--rho", "1e-3", "--ell", "inf"], "ell"),
            (["fit", "--log-exponent", "nan", "--csv"], "log_exponent"),
            (["fit", "--log-exponent", "inf", "--csv"], "log_exponent"),
            (["dioph", "--K", "5", "--tau", "nan"], "tau"),
            (["predict", "--rho", "1e-3", "--d", "0"], "d"),
            (["predict", "--rho", "1e-3", "--tau", "-1", "--input"], "tau"),
            (["predict", "--rho", "nan", "--input"], "rho"),
            (["predict", "--rho", "1e-3", "--gamma", "nan", "--input"], "gamma"),
            (["nf", "--alpha", "nan", "--K", "5", "--sigma", "1.2", "--rho", "0.5", "--input"],
             "alpha"),
            (["escape", "--amplitude", "nan", "--rho", "0.1", "--t-cap", "0.1",
              "--n-samples", "2"], "amplitude"),
        ],
    )
    def test_rejected_by_name(self, tmp_path, capsys, argv, name):
        if argv[-1] == "--input":
            src = tmp_path / "H.txt"
            FourierTaylorSeries.linear(golden_frequency(2)).save(src)
            argv = argv + [str(src)]
        elif argv[-1] == "--csv":
            src = tmp_path / "sweep.csv"
            sweep(ExperimentConfig(rho_list=(0.1, 0.05, 0.02, 0.01), t_cap=0.1, n_samples=1),
                  csv_path=src)
            argv = argv + [str(src)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} must ")
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestEscape:
    def test_builtin_hamiltonian(self, capsys):
        rc = main(["escape", "--rho", "0.05", "--t-cap", "0.2",
                   "--n-samples", "2", "--amplitude", "1e-12"])
        assert rc == 0
        out = parse_kv(capsys.readouterr().out)
        assert out["censored_fraction"] == "1.0"
        assert out["min_escape"] == "none"
        assert list(out)[:4] == ["rho", "threshold", "dt", "t_cap"]

    def test_step_failure_exit_code(self, tmp_path, capsys):
        # the midpoint iteration cannot converge at dt = 2 on an O(1) twist
        H = FourierTaylorSeries.linear(golden_frequency(2)) + (
            cosine(2, (1, 0), m=(2, 0))
        )
        src = tmp_path / "H.txt"
        H.save(src)
        assert main(["escape", "--input", str(src), "--rho", "1", "--t-cap", "2",
                     "--dt", "2", "--n-samples", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical fault: fixed-point iteration did not reach")
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_diverging_step_exit_code(self, capsys):
        # at dt = 2 the midpoint iterates of the amplitude-1 H overflow: one
        # fault line, no RuntimeWarning (the suite makes those errors)
        assert main(["escape", "--amplitude", "1", "--rho", "0.1", "--t-cap", "4",
                     "--dt", "2", "--n-samples", "2"]) == 3
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("numerical fault: fixed-point iterate ")
        assert line.endswith("is not finite: the step diverged")
        assert captured.out == ""

    def test_ballistic_fault_exit_code(self, tmp_path, capsys, monkeypatch):
        # the first escape (t = 0.011) beats a ballistic bound of 1
        H = FourierTaylorSeries.linear(golden_frequency(2)) + cosine(
            2, (1, 0)
        )
        src = tmp_path / "H.txt"
        H.save(src)
        monkeypatch.setattr(dynamics, "ballistic_bound", lambda *args: 1.0)
        assert main(["escape", "--input", str(src), "--rho", "0.1", "--threshold", "0.05",
                     "--t-cap", "1", "--n-samples", "4", "--dt", "0.001"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical fault: sample 0 escaped at t=1.100000e-02")
        assert captured.out == ""

    @pytest.mark.parametrize("dt", ["0", "-0.01", "nan"])
    def test_bad_dt_exit_code(self, capsys, dt):
        assert main(["escape", "--rho", "0.1", "--t-cap", "1", "--dt", dt]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: dt ")
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--rho", "0.1", "--threshold", "nan", "--t-cap", "0.05"], "threshold"),
            (["--rho", "nan", "--t-cap", "0.05"], "rho"),
            (["--rho", "0.1", "--t-cap", "inf"], "t_cap"),
            (["--rho", "0.1", "--t-cap", "nan"], "t_cap"),
            (["--rho", "-0.1", "--t-cap", "0.05"], "rho"),
            (["--rho", "0", "--t-cap", "0.05"], "rho"),
        ],
    )
    def test_bad_input_exit_code(self, capsys, flags, name):
        assert main(["escape", *flags, "--n-samples", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} must be positive and finite")
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestInputOnlyOptions:
    """An option that only builds the built-in series is refused by name
    with --input, which replaces that series."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["escape", "--rho", "0.1", "--t-cap", "0.1", "--ell", "99"], "--ell"),
            (["escape", "--rho", "0.1", "--t-cap", "0.1", "--amplitude", "5"], "--amplitude"),
        ],
    )
    def test_refused_with_input(self, tmp_path, capsys, argv, option):
        src = tmp_path / "g.txt"
        FourierTaylorSeries.linear(golden_frequency(2)).save(src)
        assert main(argv + ["--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {option} is used only without --input\n"
        assert captured.out == ""


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["escape", "--rho", "0.1", "--t-cap", "0.1", "--n-samples", "2", "--seed", "-1"],
            ["escape", "--rho", "0.1", "--t-cap", "0.1", "--n-samples", "2", "--seed", "-1",
             "--input"],
        ],
    )
    def test_rejected_by_name(self, tmp_path, capsys, argv):
        # the built-in H draws from the seed, and so does escape's sampling
        # for a series read from a file
        if argv[-1] == "--input":
            src = tmp_path / "H.txt"
            build_test_hamiltonian(HolderClass(6.5, 2), seed=0).save(src)
            argv = argv + [str(src)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        # the value passed, not a seed derived from it
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""


class TestSweepFitPlots:
    def test_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text(
            "rho_list = 0.1, 0.05, 0.02, 0.01\n"
            "t_cap = 0.1\n"
            "n_samples = 1\n"
            "amplitude = 1e-12\n"
        )
        csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--csv", str(csv)]) == 0
        capsys.readouterr()
        assert main(["fit", "--csv", str(csv), "--source", "t_pred",
                     "--log-exponent", "5.5"]) == 0
        out = parse_kv(capsys.readouterr().out)
        assert out["model"] == "power-with-log"
        # t_pred follows the headline shape exactly, so the fit is sharp
        assert float(out["p"]) == pytest.approx(1.0 + 5.5 / 2.0, abs=1e-9)
        outdir = tmp_path / "plots"
        assert main(["plots", "--csv", str(csv), "--outdir", str(outdir)]) == 0
        assert (outdir / "pred.dat").exists()
        assert (outdir / "plot.gp").exists()

    def test_fit_notes_a_dynamics_only_t_pred(self, tmp_path, capsys):
        # a dynamics-only row's t_pred is the headline shape, and so is a
        # pipeline row's: fitting either returns the shape's exponent by
        # construction, and both fits print the same lines, the note last; a
        # fit of the measured escape times never carries it
        outputs = {}
        for flags in ("dynamics-only", "s_in_range:0.5"):
            rows = [SweepRow(rho=r, t_pred=1.0 / r**2, min_escape=3.0 / r, censored_fraction=0.0,
                             max_drift=0.0, schedule_flags=flags, contraction=math.nan)
                    for r in (0.1, 0.05, 0.02, 0.01)]
            csv = tmp_path / "sweep.csv"
            csv.write_text("\n".join([CSV_HEADER, ",".join(CSV_COLUMNS),
                                       *(row.to_csv() for row in rows)]) + "\n")
            assert main(["fit", "--csv", str(csv), "--source", "min_escape"]) == 0
            assert "note" not in capsys.readouterr().out
            assert main(["fit", "--csv", str(csv), "--source", "t_pred"]) == 0
            outputs[flags] = capsys.readouterr().out.splitlines()
        assert outputs["dynamics-only"] == outputs["s_in_range:0.5"]
        assert outputs["dynamics-only"][-1] == (
            "note = t_pred is the headline shape, so the fit returns its exponent by construction"
        )

    def test_fit_notes_a_pipeline_t_pred(self, tmp_path, capsys):
        # a pipeline row's t_pred is its report's predicted time, the same
        # headline shape: the fit returns 1 + 5.5/2 to roundoff, with the note
        config = tmp_path / "cfg.txt"
        config.write_text(
            "rho_list = 1e-3, 5e-4, 3e-4, 1e-4, 5e-5\n"
            "t_cap = 0.01\n"
            "dynamics_only = false\n"
        )
        csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--csv", str(csv)]) == 0
        capsys.readouterr()
        assert all(r.schedule_flags != "dynamics-only" for r in read_sweep_csv(csv))
        assert main(["fit", "--csv", str(csv), "--source", "t_pred",
                     "--log-exponent", "5.5"]) == 0
        out = parse_kv(capsys.readouterr().out)
        assert float(out["p"]) == pytest.approx(1.0 + 5.5 / 2.0, abs=1e-9)
        assert out["note"] == (
            "t_pred is the headline shape, so the fit returns its exponent by construction"
        )

    @pytest.mark.parametrize("rho_list, bad", [("0.1, -0.05", "-0.05"), ("1.5, 0.1", "1.5")])
    def test_bad_rho_rejected_before_any_row(self, tmp_path, capsys, rho_list, bad):
        config = tmp_path / "cfg.txt"
        config.write_text(f"rho_list = {rho_list}\nt_cap = 0.1\nn_samples = 1\n")
        csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--csv", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: rho must lie in (0, 1), got {bad}\n"
        assert captured.out == ""
        assert not csv.exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("seed = 2\nC_1 = 1\n", "C_1"),
            ("seed = 2\nell 3\n", "ell 3"),
            ("seed = abc\n", "seed: 'abc'"),
            ("dynamics_only = flase\n", "dynamics_only: 'flase'"),
            ("t_cap = nan\n", "t_cap must be None or positive and finite"),
            ("dt = 0\n", "dt must be None or positive and finite"),
            ("max_steps = 0\n", "max_steps must be >= 1"),
            ("n_samples = 0\n", "n_samples must be >= 1"),
            ("threshold_factor = -1\n", "threshold_factor must be positive and finite"),
            ("gamma = -1\n", "gamma must be positive and finite, got -1.0"),
            ("j_max = -1\n", "j_max must be >= 0"),
            # 2^j_max must fit the generator's C long
            ("j_max = 70\n", "j_max must be at most 62"),
            # 2^40 draws, but the (k, m) keys of the d = 2 series overflow int64
            ("j_max = 40\n", "j_max = 40 is too large for d = 2: "),
            ("seed = -1\n", "seed must be >= 0"),
            ("seed = 1\nseed = 2\n", "config key set twice: seed"),
            ("epsilon = 0.1\n", "unknown config key: epsilon"),
        ],
    )
    def test_bad_config_file_exit_code(self, tmp_path, capsys, text, named):
        config = tmp_path / "cfg.txt"
        config.write_text(text)
        assert main(["sweep", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert named in captured.err
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestCheckNotPassed:
    """Exit 1: the run completes, but its certificate does not pass."""

    @pytest.mark.parametrize(
        "argv, series, line",
        [
            # the amplitude puts the smoothing parameter s out of range
            (["predict", "--rho", "1e-3"],
             lambda: build_test_hamiltonian(HolderClass(6.5, 2), seed=0, amplitude=1e-9),
             "failure = failed gates: s_in_range"),
        ],
    )
    def test_exit_code(self, tmp_path, capsys, argv, series, line):
        src = tmp_path / "H.txt"
        series().save(src)
        assert main(argv + ["--input", str(src)]) == 1
        captured = capsys.readouterr()
        assert line in captured.out.splitlines()
        assert captured.err == ""


def complex_frequency_hamiltonian():
    """omega.I + 1e-12 cos(2 pi theta_1) I_1^2 with 1e-3 i added to omega_1."""
    return (FourierTaylorSeries.linear(golden_frequency(2))
            + FourierTaylorSeries(2, {((0, 0), (1, 0)): 1e-3j})
            + cosine(2, (1, 0), m=(2, 0), amplitude=1e-12))


class TestExitCodeTable:
    """Exit 2 for a precondition, 3 for a numerical fault: one real CLI path
    per failure kind, each with its one stderr line.  A row's series is a
    series builder, or the text of a series file."""

    @pytest.mark.parametrize(
        "argv, series, code, line",
        [
            # omega = (1, 1) is resonant at k = +-(1, -1)
            (["nf", "--alpha", "0.2", "--K", "5", "--sigma", "1.2", "--rho", "0.5"],
             lambda: FourierTaylorSeries.linear((1.0, 1.0)) + cosine(
                 2, (1, -1), m=(2, 0), amplitude=1e-12),
             3,
             "numerical fault: small divisor |omega.k|=0.000e+00 below floor 1.0e-12 "
             "at k=(-1, 1)"),
            # a lone e^{2 pi i theta_1} term has no conjugate partner
            (["escape", "--rho", "0.1", "--t-cap", "0.1", "--n-samples", "2"],
             lambda: FourierTaylorSeries.linear(golden_frequency(2)) + FourierTaylorSeries(
                 2, {((1, 0), (2, 0)): 1e-6j}),
             3,
             "numerical fault: vector field requires a real-valued series"),
            # the dominance gate 3 + 2/tau = 7 at tau = 0.5 is above ell = 6.5
            (["predict", "--tau", "0.5", "--gamma", "0.01", "--rho", "1e-4"],
             lambda: build_test_hamiltonian(HolderClass(6.5, 2), seed=0),
             2,
             "error: pipeline stage 'remainder_bounds' failed: ell = 6.5 must exceed "
             "(3-a)/(1-a) = 3 + 2/tau = 7.0 for tau = 0.5"),
            (["fit"], None, 2, "error: only 3 usable rows (need >= 4)"),
            # a d = 2 series against a d = 1 Holder class, whose ell > 2d+1 = 3
            # is weaker than the ell > 5 that d = 2 needs
            (["predict", "--rho", "1e-3", "--d", "1", "--ell", "4.5", "--tau", "2"],
             lambda: build_test_hamiltonian(HolderClass(6.5, 2), seed=0),
             2,
             "error: series has d = 2, Holder class has d = 1"),
            # with no omega.I the averaging would remove nothing, while the
            # domain shrink alone meets the target
            (["nf", "--alpha", "0.2", "--K", "5", "--sigma", "1.2", "--rho", "0.5"],
             lambda: cosine(2, (1, 0), m=(2, 0), amplitude=1e-6),
             2,
             "error: series has no linear part omega.I"),
            (["predict", "--rho", "1e-3"],
             lambda: cosine(2, (1, 0), m=(2, 0), amplitude=1e-6),
             2,
             "error: series has no linear part omega.I"),
            # i f for the real f of the seed-0 H: f's mass is 1.5e-11 of H's,
            # so its reality is measured against its own mass
            (["predict", "--rho", "1e-3"],
             lambda: FourierTaylorSeries.linear(golden_frequency(2)) + 1j * (
                 build_test_hamiltonian(HolderClass(6.5, 2), seed=0)
                 - FourierTaylorSeries.linear(golden_frequency(2))),
             3,
             "numerical fault: pipeline requires a real-valued series"),
            # the same i f: escape too measures it against its own mass
            (["escape", "--rho", "0.05", "--t-cap", "0.1", "--n-samples", "2"],
             lambda: FourierTaylorSeries.linear(golden_frequency(2)) + 1j * (
                 build_test_hamiltonian(HolderClass(6.5, 2), seed=0)
                 - FourierTaylorSeries.linear(golden_frequency(2))),
             3,
             "numerical fault: vector field requires a real-valued series"),
            (["nf", "--alpha", "0.2", "--K", "5", "--sigma", "1.2", "--rho", "0.5"],
             lambda: FourierTaylorSeries.linear(golden_frequency(2)) + FourierTaylorSeries(
                 2, {((1, 0), (2, 0)): 1e-6j}),
             3,
             "numerical fault: normal form requires a real-valued series"),
            # an imaginary part on omega_1 is f's, so every consumer of the
            # split refuses it
            (["escape", "--rho", "0.1", "--t-cap", "0.1", "--n-samples", "2"],
             complex_frequency_hamiltonian,
             3,
             "numerical fault: vector field requires a real-valued series"),
            (["nf", "--alpha", "0.2", "--K", "5", "--sigma", "1.2", "--rho", "0.5"],
             complex_frequency_hamiltonian,
             3,
             "numerical fault: normal form requires a real-valued series"),
            (["predict", "--rho", "1e-3"],
             complex_frequency_hamiltonian,
             3,
             "numerical fault: pipeline requires a real-valued series"),
            # at tau = 0, a = 1 and the gate (3-a)/(1-a) is infinite
            (["predict", "--rho", "1e-3", "--tau", "0"],
             lambda: build_test_hamiltonian(HolderClass(6.5, 2), seed=0),
             2,
             "error: pipeline stage 'remainder_bounds' failed: ell = 6.5 must exceed "
             "(3-a)/(1-a) = 3 + 2/tau = inf for tau = 0.0"),
            # 1e300 / 1e-300 steps overflow
            (["escape", "--rho", "0.1", "--t-cap", "1e300", "--n-samples", "2", "--dt", "1e-300"],
             lambda: build_test_hamiltonian(HolderClass(6.5, 2), seed=0),
             2,
             "error: t_cap/dt must be positive and finite, got inf"),
            # a series file's text, refused as it is read
            (["predict", "--rho", "1e-3"],
             "0 0 | 1 0 | 1.0 0.0\n99999999999999999999 0 | 2 0 | 1e-20 0.0\n",
             2,
             "error: index does not fit int64: k=(99999999999999999999, 0), m=(2, 0)"),
            (["escape", "--rho", "0.1", "--t-cap", "0.1", "--n-samples", "2"],
             "0 0 | 1 0 | 1.0 0.0\n1 0 | 2 0 | nan 0.0\n-1 0 | 2 0 | nan 0.0\n",
             2,
             "error: coefficient must be finite, got (nan+0j) at k=(1, 0), m=(2, 0)"),
        ],
        ids=["small-divisor", "complex-series", "dominance-gate", "too-few-rows",
             "predict-dimension",
             "nf-no-linear-part", "predict-no-linear-part", "predict-complex-series",
             "escape-complex-perturbation", "nf-complex-series", "escape-complex-frequency",
             "nf-complex-frequency", "predict-complex-frequency", "dominance-gate-at-tau-0",
             "escape-step-count-overflow", "file-index-past-int64", "file-nonfinite-coefficient"],
    )
    def test_exit_code_and_line(self, tmp_path, capsys, argv, series, code, line):
        src = tmp_path / "input"
        if series is None:
            sweep(ExperimentConfig(rho_list=(0.1, 0.05, 0.02), t_cap=0.1, n_samples=1),
                  csv_path=src)
            argv = argv + ["--csv", str(src)]
        else:
            src.write_text(series if isinstance(series, str) else series().to_text())
            argv = argv + ["--input", str(src)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == ""


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["escape", "--rho", "0.1", "--t-cap", "1", "--input", "{missing}"],
            ["sweep", "--config", "{directory}"],
            ["fit", "--csv", "{missing}"],
            ["predict", "--rho", "1e-3", "--input", "{missing}"],
        ],
    )
    def test_unreadable_file_exit_code(self, tmp_path, capsys, argv):
        paths = {"missing": str(tmp_path / "missing.txt"), "directory": str(tmp_path)}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert argv[-1] in captured.err
        assert "Traceback" not in captured.err + captured.out
