"""Command-line interface: subcommands, output format, exit codes."""

import math

import pytest

from torusstab import FourierTaylorSeries, golden_frequency, lacunary_series
from torusstab.cli import main


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


class TestSmooth:
    def test_smooth_and_output(self, tmp_path, capsys, cutoff_gap):
        g = lacunary_series(2, 6.5, j_max=6, seed=0)
        src = tmp_path / "g.txt"
        dst = tmp_path / "gs.txt"
        g.save(src)
        assert main(["smooth", "--input", str(src), "--s", "0.1",
                     "--output", str(dst)]) == 0
        out = parse_kv(capsys.readouterr().out)
        assert "equality_residual" not in out
        gs = FourierTaylorSeries.load(dst)
        assert gs.max_fourier_order() <= 10
        assert cutoff_gap(g, gs) <= float(out["dropped_tail_mass"]) * (1.0 + 1e-12)

    def test_bad_s_exit_code(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        lacunary_series(2, 6.5, j_max=3, seed=0).save(src)
        assert main(["smooth", "--input", str(src), "--s", "2.0"]) == 2


class TestSmoothVerify:
    def test_lacunary_default_passes(self, capsys):
        rc = main(["smooth-verify", "--ell", "6.5", "--p", "0",
                   "--s-min-exp", "3", "--s-max-exp", "10"])
        assert rc == 0
        out = parse_kv(capsys.readouterr().out)
        assert out["passed"] == "1"
        assert float(out["slope"]) == pytest.approx(6.5, abs=0.3)


class TestNF:
    def test_acceptance_instance(self, tmp_path, capsys):
        H = FourierTaylorSeries.linear(golden_frequency(2)) + (
            FourierTaylorSeries.cosine(2, (1, 0), m=(2, 0), amplitude=1e-6)
        )
        src = tmp_path / "H.txt"
        H.save(src)
        rc = main(["nf", "--input", str(src), "--alpha", "0.2", "--K", "5",
                   "--sigma", "1.2", "--rho", "0.5"])
        assert rc == 0
        out = parse_kv(capsys.readouterr().out)
        assert out["certified"] == "1"
        assert out["stop"] == "certified"
        assert float(out["contraction"]) <= math.exp(-1.0)

    @pytest.mark.parametrize("flag", ["--order", "--rel-chop"])
    def test_chop_and_order_flags_removed(self, tmp_path, flag):
        # the chop and the stop rule follow from the certificate target
        with pytest.raises(SystemExit) as exc:
            main(["nf", "--input", str(tmp_path / "H.txt"), "--alpha", "0.2", "--K", "5",
                  "--sigma", "1.2", "--rho", "0.5", flag, "1"])
        assert exc.value.code == 2

    def test_smallness_violation_exit(self, tmp_path, capsys):
        H = FourierTaylorSeries.linear(golden_frequency(2)) + (
            FourierTaylorSeries.cosine(2, (1, 0), m=(2, 0), amplitude=1.0)
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

    def test_pipeline_precondition_exit_code(self, tmp_path, capsys):
        # an order-1 perturbation term fails the Taylor-split precondition
        H = FourierTaylorSeries.linear(golden_frequency(2)) + (
            FourierTaylorSeries.cosine(2, (1, 0), m=(1, 0), amplitude=1e-12)
        )
        src = tmp_path / "H.txt"
        H.save(src)
        assert main(["predict", "--rho", "1e-3", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ("C_1 = 2\nC_9 = 1\n", "C_9"),
            ("C_1 = 2\nC_2 3\n", "C_2 3"),
            ("C_1 = abc\n", "C_1: 'abc'"),
        ],
    )
    def test_bad_constants_file_exit_code(self, tmp_path, capsys, text, named):
        consts = tmp_path / "consts.txt"
        consts.write_text(text)
        assert main(["predict", "--rho", "1e-3", "--constants", str(consts)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert named in captured.err
        assert "Traceback" not in captured.err + captured.out


class TestEscape:
    def test_builtin_hamiltonian(self, capsys):
        rc = main(["escape", "--rho", "0.05", "--t-cap", "0.2",
                   "--n-samples", "2", "--amplitude", "1e-12"])
        assert rc == 0
        out = parse_kv(capsys.readouterr().out)
        assert out["censored_fraction"] == "1.0"
        assert out["min_escape"] == "none"
        assert out["method"] == "split-midpoint"
        assert list(out).index("method") == list(out).index("dt") + 1


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
        assert main(["fit", "--csv", str(csv), "--model", "power-with-log",
                     "--source", "t_pred", "--log-exponent", "5.5"]) == 0
        out = parse_kv(capsys.readouterr().out)
        # t_pred follows the headline shape exactly, so the fit is sharp
        assert float(out["p"]) == pytest.approx(1.0 + 5.5 / 2.0, abs=1e-9)
        outdir = tmp_path / "plots"
        assert main(["plots", "--csv", str(csv), "--outdir", str(outdir)]) == 0
        assert (outdir / "pred.dat").exists()
        assert (outdir / "plot.gp").exists()


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--rho", "1e-3", "--constants", "{missing}"],
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
