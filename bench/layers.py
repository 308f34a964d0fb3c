"""Where the traced run records spans, and the per-layer metrics made from them.

Module -> metric -> the end-to-end metric it should move (see NOTES.md):

- ftseries: vector field and energy calls move `wall_s` on escape-quiet
  and orbit; Poisson brackets move `wall_s` on pipeline-ladder.
- dynamics: steps, sweeps and self time move `wall_s` on escape-quiet and
  orbit; the drift metrics are the accuracy guard.
- normalform, freqlib, smoothing, stabpipe: per-rho iterations, stage times
  and sizes move `wall_s` (and `peak_rss_mb`) on pipeline-ladder.
- experiment: building the Hamiltonian moves `setup_s` on every workload.
"""

from __future__ import annotations

import statistics

import numpy as np

from torusstab import dynamics, experiment, ftseries, normalform, stabpipe

from workloads import LADDER_RHOS, rho_label

LADDER_LABELS = tuple(rho_label(rho) for rho in LADDER_RHOS)

NORMALFORM_PER_RHO = (
    ("iterations", "count"),
    ("lie_calls", "count"),
    ("lie_s", "s"),
    ("homological_s", "s"),
    ("terms_final", "count"),
    ("contraction_over_target", "ratio"),
)
FREQLIB_PER_RHO = (("enum_s", "s"), ("K", "count"), ("lattice_points_computed", "count"))
STABPIPE_STAGES = (
    ("taylor_split", "stabpipe.taylor_split"),
    ("coefficient_norm", "stabpipe.coefficient_norm"),
    ("smooth_coefficients", "stabpipe.smooth_coefficients"),
    ("certificate", "freqlib.enum"),
    ("normal_form", "stabpipe.normal_form"),
    ("remainder_bounds", "stabpipe.remainder_bounds"),
)

DYNAMICS_SPANS = ("dynamics.escape_time", "dynamics.integrate")


def per_layer_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = [
        ("ftseries.vf_calls", "count"),
        ("ftseries.vf_s", "s"),
        ("ftseries.vf_ns_per_row_term", "ns"),
        ("ftseries.energy_calls", "count"),
        ("ftseries.energy_s", "s"),
        ("ftseries.bracket_calls", "count"),
        ("ftseries.bracket_s", "s"),
        ("ftseries.bracket_terms_max", "count"),
        ("dynamics.steps", "count"),
        ("dynamics.sweeps_per_step", "ratio"),
        ("dynamics.sample_steps", "count"),
        ("dynamics.self_s", "s"),
        ("dynamics.energy_drift_max", "ratio"),
        ("dynamics.drift_to_threshold_max", "ratio"),
    ]
    for label in LADDER_LABELS:
        specs += [(f"normalform.{m}.{label}", unit) for m, unit in NORMALFORM_PER_RHO]
        specs += [(f"freqlib.{m}.{label}", unit) for m, unit in FREQLIB_PER_RHO]
        specs += [(f"stabpipe.{stage}_s.{label}", "s") for stage, _ in STABPIPE_STAGES]
        specs.append((f"stabpipe.certified.{label}", "count"))
    specs += [
        ("smoothing.holder_majorant_calls", "count"),
        ("smoothing.holder_majorant_s", "s"),
        ("experiment.build_hamiltonian_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return specs


def _vf_work(args, kwargs, result):
    field, theta = args[0], args[1]
    return {"row_terms": np.atleast_2d(theta).shape[0] * field.n}


def _bracket_terms(args, kwargs, result):
    return {"terms": len(result)}


def _lattice(args, kwargs, result):
    freq = args[0]
    return {"K": result.K, "points": (2 * result.K + 1) ** freq.d}


def install(tracer):
    """Patch the package's public entry points, each where it is looked up."""
    hvf = ftseries.HamiltonianVectorField
    tracer.wrap(hvf, "__call__", "ftseries.vf", _vf_work)
    tracer.wrap(hvf, "energy", "ftseries.energy")
    tracer.wrap(ftseries.FourierTaylorSeries, "poisson_bracket", "ftseries.bracket", _bracket_terms)
    tracer.wrap(dynamics, "escape_time", "dynamics.escape_time")
    tracer.wrap(dynamics, "integrate", "dynamics.integrate")
    tracer.wrap(normalform, "lie_transform", "normalform.lie")
    tracer.wrap(normalform, "solve_homological", "normalform.homological")
    tracer.wrap(stabpipe, "taylor_split", "stabpipe.taylor_split")
    tracer.wrap(stabpipe, "coefficient_norm_max", "stabpipe.coefficient_norm")
    tracer.wrap(stabpipe, "holder_norm_majorant", "smoothing.holder_majorant")
    tracer.wrap(stabpipe, "smooth_coefficients", "stabpipe.smooth_coefficients")
    tracer.wrap(stabpipe, "diophantine_constant", "freqlib.enum", _lattice)
    tracer.wrap(stabpipe, "resonant_normal_form", "stabpipe.normal_form")
    tracer.wrap(stabpipe, "remainder_bounds", "stabpipe.remainder_bounds")
    tracer.wrap(stabpipe, "predicted_stability_time", "stabpipe.remainder_bounds")
    tracer.wrap(experiment, "build_test_hamiltonian", "experiment.build_hamiltonian")


def per_layer_metrics(tracer, first_span, last_span, ops, build_s, overhead_s, seconds):
    """Per-layer metrics of one traced pass.

    The pass's spans are tracer.spans[first_span:last_span], `ops` its OpResults,
    `build_s` the Hamiltonian-build times of the traced set-ups, and
    `seconds(span)` a span's time as reported (run.py gives it at nominal speed).
    Metrics of a layer the workload does not reach read 0.
    """
    spans = tracer.spans[first_span:last_span]
    durations = [seconds(span) for span in tracer.spans]
    self_times = tracer.self_times(durations)[first_span:last_span]
    op_label = {}
    for i, span in enumerate(spans, start=first_span):
        if span.name == "op":
            op_label[i] = span.tags["op"]

    def op_of(i):
        return op_label.get(tracer.enclosing(i, "op"), "")

    calls, total, extra = {}, {}, {}
    for i, span in enumerate(spans, start=first_span):
        for key in (span.name, (span.name, op_of(i))):
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + durations[i]
            for cname, v in (span.counts or {}).items():
                extra.setdefault((key, cname), []).append(v)

    def n(key):
        return calls.get(key, 0)

    def s(key):
        return total.get(key, 0.0)

    row_terms = sum(extra.get(("ftseries.vf", "row_terms"), []))
    steps = sum(op.counts.get("steps", 0) for op in ops)
    m = {
        "ftseries.vf_calls": n("ftseries.vf"),
        "ftseries.vf_s": s("ftseries.vf"),
        "ftseries.vf_ns_per_row_term": s("ftseries.vf") * 1e9 / row_terms if row_terms else 0.0,
        "ftseries.energy_calls": n("ftseries.energy"),
        "ftseries.energy_s": s("ftseries.energy"),
        "ftseries.bracket_calls": n("ftseries.bracket"),
        "ftseries.bracket_s": s("ftseries.bracket"),
        "ftseries.bracket_terms_max": max(extra.get(("ftseries.bracket", "terms"), [0])),
        "dynamics.steps": steps,
        "dynamics.sweeps_per_step": n("ftseries.vf") / steps if steps else 0.0,
        "dynamics.sample_steps": sum(op.counts.get("sample_steps", 0) for op in ops),
        "dynamics.self_s": sum(
            t for span, t in zip(spans, self_times) if span.name in DYNAMICS_SPANS
        ),
        "dynamics.energy_drift_max": max(
            (op.values["energy_drift"] for op in ops if "energy_drift" in op.values), default=0.0
        ),
        "dynamics.drift_to_threshold_max": max(
            (op.values["drift_to_threshold"] for op in ops if "drift_to_threshold" in op.values),
            default=0.0,
        ),
    }
    by_label = {op.label: op for op in ops}
    for label in LADDER_LABELS:
        op = by_label.get(label)
        counts = op.counts if op else {}
        values = op.values if op else {}
        m[f"normalform.iterations.{label}"] = counts.get("iterations", 0)
        m[f"normalform.lie_calls.{label}"] = n(("normalform.lie", label))
        m[f"normalform.lie_s.{label}"] = s(("normalform.lie", label))
        m[f"normalform.homological_s.{label}"] = s(("normalform.homological", label))
        m[f"normalform.terms_final.{label}"] = values.get("terms_final", 0)
        m[f"normalform.contraction_over_target.{label}"] = values.get(
            "contraction_over_target", 0.0
        )
        m[f"freqlib.enum_s.{label}"] = s(("freqlib.enum", label))
        m[f"freqlib.K.{label}"] = counts.get("K", 0)
        m[f"freqlib.lattice_points_computed.{label}"] = sum(
            extra.get((("freqlib.enum", label), "points"), [])
        )
        for stage, span_name in STABPIPE_STAGES:
            m[f"stabpipe.{stage}_s.{label}"] = s((span_name, label))
        m[f"stabpipe.certified.{label}"] = values.get("certified", 0)
    m["smoothing.holder_majorant_calls"] = n("smoothing.holder_majorant")
    m["smoothing.holder_majorant_s"] = s("smoothing.holder_majorant")
    m["experiment.build_hamiltonian_s"] = statistics.median(build_s) if build_s else 0.0
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(spans)
    return m
