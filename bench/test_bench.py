"""Tests of the benchmark itself: metric names, tracer patching, span arithmetic.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
from pathlib import Path

import pytest

import layers
import run
import speed
import workloads
from torusstab import dynamics, experiment, ftseries, normalform, stabpipe
from tracer import Tracer
from workloads import EscapeQuiet, OpResult, Orbit, PipelineLadder

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SMALL = {
    "escape-quiet": lambda: EscapeQuiet(t_cap=0.02, n_samples=4),
    "orbit": lambda: Orbit(t_end=0.02),
    "pipeline-ladder": lambda: PipelineLadder(rhos=(1e-3,)),
}


def _run(capsys, workload, seed, trace):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)


@pytest.fixture
def small_workloads(monkeypatch):
    for name, make in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, make)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.per_layer_specs()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("workload", list(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(small_workloads, capsys, workload, trace):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    result = _run(capsys, workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    other = _run(capsys, workload, 1, trace)
    assert set(other["metrics"]) == set(result["metrics"])


def test_traced_counts_on_small_runs(small_workloads, capsys):
    m = {k: v["value"] for k, v in _run(capsys, "escape-quiet", 0, 1)["metrics"].items()}
    steps = 4 * len(workloads.ESCAPE_RHOS)  # ceil(0.02 / default_dt) per rho
    assert m["dynamics.steps"] == steps
    assert m["dynamics.sample_steps"] == 4 * steps
    assert m["ftseries.vf_calls"] == m["dynamics.sweeps_per_step"] * steps
    assert m["ftseries.bracket_calls"] == 0
    m = {k: v["value"] for k, v in _run(capsys, "pipeline-ladder", 0, 1)["metrics"].items()}
    label = workloads.rho_label(1e-3)
    assert m[f"stabpipe.certified.{label}"] == 1
    assert m[f"freqlib.lattice_points_computed.{label}"] == (2 * m[f"freqlib.K.{label}"] + 1) ** 2
    assert m[f"normalform.lie_calls.{label}"] == m[f"normalform.iterations.{label}"]
    assert m["ftseries.vf_calls"] == 0 and m["dynamics.steps"] == 0


def test_failures_are_counted_not_fatal(monkeypatch, capsys):
    # rho = 0.01 lies above e^-6, so its schedule flags fail at once
    monkeypatch.setitem(
        workloads.WORKLOADS, "pipeline-ladder", lambda: PipelineLadder(rhos=(1e-3, 0.01))
    )
    result = _run(capsys, "pipeline-ladder", 0, 0)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_tracer_restores_every_patched_attribute():
    owners = [ftseries.HamiltonianVectorField, ftseries.FourierTaylorSeries,
              dynamics, normalform, stabpipe, experiment]
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            layers.install(tracer)
            patched = list(tracer._patches)
            assert len(patched) == 16
            for owner, attr, original in patched:
                assert vars(owner)[attr] is not original
                assert vars(owner)[attr].__wrapped__ is original
            raise RuntimeError("leave the block early")
    for owner, snapshot in zip(owners, before):
        after = vars(owner)
        assert all(after[attr] is snapshot[attr] for attr in snapshot)
        assert set(after) == set(snapshot)


def test_wrap_rejects_missing_attribute():
    with pytest.raises(AttributeError):
        Tracer().wrap(stabpipe, "no_such_function", "x")


def test_self_time_is_span_minus_children():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("leaf"):
                pass
        with tracer.span("b"):
            pass
    names = [s.name for s in tracer.spans]
    assert names == ["root", "a", "leaf", "b"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    # rescaled durations: the same arithmetic on the given times
    assert tracer.self_times([20.0, 6.0, 2.0, 8.0]) == [6.0, 4.0, 2.0, 8.0]
    assert tracer.enclosing(2, "root") == 0
    assert tracer.enclosing(0, "root") == -1


def test_consistency_flags_differing_passes():
    a = OpResult("x", fingerprint="f", counts={"steps": 3})
    b = OpResult("x", fingerprint="f", counts={"steps": 4})
    assert run.consistency_errors([[a], [a], [a]]) == []
    assert run.consistency_errors([[a], [a], [b]]) == [
        "pass 3 outputs or counts differ from pass 1"
    ]


def test_missing_source_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "orbit", "--seed", "0", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_traced_run_skips_untraced_passes_past_the_run_limit(small_workloads, monkeypatch, capsys):
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.0)
    result = _run(capsys, "orbit", 0, 1)
    assert result["correct"] is True
    assert result["metrics"]["trace.overhead_s"]["value"] == 0.0
    assert result["metrics"]["ftseries.energy_calls"]["value"] > 0


def test_speed_scale_uses_probes_inside_or_just_before():
    probe = speed.SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [0.001, 0.004, 0.002, 0.008]
    ref = speed.REFERENCE_S
    # probes at 1.0 and 2.0 fall inside: median 0.003, and their time is removed
    assert probe.scale(0.5, 2.5) == pytest.approx(ref / 0.003)
    assert probe.probe_seconds(0.5, 2.5) == pytest.approx(0.006)
    assert probe.nominal(0.5, 2.5) == pytest.approx((2.0 - 0.006) * ref / 0.003)
    # no probe inside: the one at 1.0 stands in, and no probe time is removed
    assert probe.scale(1.2, 1.4) == pytest.approx(ref / 0.004)
    assert probe.nominal(1.2, 1.4, scale=2.0) == pytest.approx(0.4)


def test_import_seconds_rescales_by_the_reference_import(tmp_path):
    pkg = tmp_path / "torusstab"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    nominal, raw = speed.import_seconds(tmp_path, tmp_path)
    assert 0 < raw < 5 and nominal > 0


def test_speed_probe_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        deadline = probe.clock() + 0.1
        while probe.clock() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 2
    assert len(probe.durations) == len(probe.starts)
