"""Run one workload of the torusstab benchmark.

    python3 bench/run.py --workload escape-quiet --seed 0 --seconds 10 --trace 0

Workloads: escape-quiet, orbit, pipeline-ladder (see workloads.py and
NOTES.md).  Every operation runs in this process.  A run

1. sets the workload up SETUP_REPS times, each time importing the package
   afresh in a short-lived child process and building the inputs here;
2. with --trace 1, repeats the whole workload until --seconds have passed
   (at least once) with the package's public entry points wrapped by the span
   recorder;
3. repeats the whole workload untraced until --seconds have passed (at least
   once).

Speed probes (speed.py) run throughout, and times are reported at nominal
machine speed next to the raw times.

Output: human-readable lines, then as the last line one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 the
per-layer ones (see layers.py).  The full record (environment, every
operation's outcome, the spans of the first traced pass) is written under
bench/out/.

The script must be run from a source checkout: it imports the package from
src/ next to this directory and exits with status 2 if that is missing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: all load comes from this one process, and the batched
# matrix products are too small to gain from threads on a shared machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7
# A run must end within 180 s; a traced run keeps its untraced passes inside this.
RUN_LIMIT_S = 165.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root):
    """HEAD of the checkout at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "seed": seed,
    }


def run_pass(workload, inputs, tracer=None):
    """Run every operation of the workload once; returns (start, end, results)."""
    from workloads import OpResult

    results = []
    t0 = time.perf_counter()
    for label, op in workload.operations(inputs):
        with tracer.span("op", op=label) if tracer else nullcontext():
            try:
                results.append(op())
            except Exception as exc:  # noqa: BLE001 - a raising operation is a counted failure
                results.append(
                    OpResult(label, failure=f"{type(exc).__name__}: {exc}",
                             values={"traceback": traceback.format_exc()})
                )
    return t0, time.perf_counter(), results


def _signature(res):
    return (res.label, res.failure, res.fingerprint, res.counts)


def consistency_errors(passes):
    """Every pass, untraced or traced, must give the outputs and counts of the first."""
    errors = []
    reference = [_signature(r) for r in passes[0]]
    for i, ops in enumerate(passes[1:], start=2):
        if [_signature(r) for r in ops] != reference:
            errors.append(f"pass {i} outputs or counts differ from pass 1")
    for ops in passes:
        for res in ops:
            errors.extend(res.check_errors)
    return sorted(set(errors))


def span_ranges(tracer, first_span, traced_passes):
    """[lo, hi) span indices of each traced pass; spans are stored in start order."""
    starts = [s.start for s in tracer.spans]
    return [
        (bisect.bisect_left(starts, t0, first_span), bisect.bisect_right(starts, t1, first_span))
        for t0, t1, _ in traced_passes
    ]


def end_to_end_lines(e2e, walls, nominal, setup_times, setup_raw, ops):
    """Report lines for the end-to-end metrics, with sample counts and raw times."""
    wall_raw = statistics.median(walls)
    slowdown = statistics.median(w / n for w, n in zip(walls, nominal))
    lines = [
        f"wall_s = {e2e['wall_s']:.6f} s at nominal speed (median of {len(walls)} passes; "
        f"raw median {wall_raw:.6f} s, min {min(walls):.6f}, max {max(walls):.6f}; "
        f"machine took {slowdown:.3f}x the nominal time)",
        f"setup_s = {e2e['setup_s']:.6f} s at nominal speed (median of {len(setup_times)} "
        f"fresh imports + input builds, min {min(setup_times):.6f}, max {max(setup_times):.6f}; "
        f"raw median {statistics.median(setup_raw):.6f} s)",
        f"peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB (1 sample)",
    ]
    sample_time = sum(res.values.get("sample_time", 0.0) for res in ops)
    if sample_time:
        lines.append(
            f"sample_time_per_s = {sample_time / e2e['wall_s']:.6f} 1/s (samples x simulated "
            f"time {sample_time:g} / wall_s, {len(walls)} passes; raw "
            f"{sample_time / wall_raw:.6f} 1/s)"
        )
    return lines


def run_for(seconds, workload, inputs, tracer=None):
    """Repeat whole passes until `seconds` have passed, at least once."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, inputs, tracer))
    return passes


def timings(passes, probe):
    """Raw work time (probes excluded) and nominal time of each pass."""
    walls = [t1 - t0 - probe.probe_seconds(t0, t1) for t0, t1, _ in passes]
    nominal = [probe.nominal(t0, t1) for t0, t1, _ in passes]
    return walls, nominal


def measure_setup(workload, seed, probe):
    """SETUP_REPS set-ups, each a fresh package import in a child process plus
    building the workload's inputs here; returns (inputs, nominal times, raw times).

    The import is rescaled by a reference import in the same child, the
    input build by this process's speed probes (speed.py)."""
    from speed import import_seconds

    nominal, raw = [], []
    for _ in range(SETUP_REPS):
        imported, imported_raw = import_seconds(ROOT / "src", ROOT)
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        t1 = time.perf_counter()
        nominal.append(imported + probe.nominal(t0, t1))
        raw.append(imported_raw + t1 - t0 - probe.probe_seconds(t0, t1))
    return inputs, nominal, raw


def main(argv=None):
    run_start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "torusstab" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    env = environment(args.seed)

    tracer = Tracer() if args.trace else None
    traced_passes = []
    with SpeedProbe() as probe:
        inputs, setup_times, setup_raw = measure_setup(workload, args.seed, probe)
        if tracer:
            # traced set-ups give the Hamiltonian build time, the first traced
            # pass the per-layer metrics, and all traced passes the overhead
            with tracer:
                layers.install(tracer)
                for _ in range(SETUP_REPS):
                    workload.setup(args.seed)
                build_spans = [
                    s for s in tracer.spans if s.name == "experiment.build_hamiltonian"
                ]
                first_span = len(tracer.spans)
                traced_passes = run_for(args.seconds, workload, inputs, tracer)
        # the untraced passes of a traced run only serve the overhead and the
        # output comparison; they are skipped if they would overrun the run
        pass_s = max((t1 - t0 for t0, t1, _ in traced_passes), default=0.0)
        room = RUN_LIMIT_S - (time.perf_counter() - run_start)
        passes = run_for(args.seconds, workload, inputs) if 1.25 * pass_s < room else []

    walls, nominal = timings(passes, probe)
    results = [ops for _, _, ops in passes]
    traced = [ops for _, _, ops in traced_passes]
    all_ops = [res for ops in results + traced for res in ops]
    attempted = len(all_ops)
    failed = sum(res.failure is not None for res in all_ops)
    errors = consistency_errors(results + traced)
    ops = (results + traced)[0]

    lines = [
        f"# torusstab bench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "# env: " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    record = {
        "args": vars(args),
        "env": env,
        "passes": [
            {"start": t0, "end": t1, "wall_s": wall, "nominal_s": nom,
             "ops": [asdict(r) for r in ops_]}
            for (t0, t1, ops_), wall, nom in zip(passes, walls, nominal)
        ],
        "setup_s": setup_times,
        "setup_raw_s": setup_raw,
        "probes": {"start": probe.starts, "total_s": probe.durations},
        "errors": errors,
    }
    if passes:
        e2e = {
            "wall_s": statistics.median(nominal),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["end_to_end"] = e2e
        lines += end_to_end_lines(e2e, walls, nominal, setup_times, setup_raw, ops)
    lines.append(
        f"failed_fraction = {failed}/{attempted} = {failed / attempted:.6g} "
        f"({attempted} operations)"
    )
    for res in ops:
        status = "FAIL " + res.failure if res.failure else "ok"
        shown = {k: v for k, v in {**res.counts, **res.values}.items() if k != "traceback"}
        lines.append(f"op {res.label}: {status} {json.dumps(shown)}")

    if tracer:
        traced_walls, traced_nominal = timings(traced_passes, probe)
        if passes:
            overhead = statistics.median(traced_nominal) - e2e["wall_s"]
            how = f"median of {len(traced_passes)} traced passes less wall_s, at nominal speed"
        else:
            overhead = 0.0
            how = (f"not measured: an untraced pass ({pass_s:.1f} s) would overrun the "
                   f"{RUN_LIMIT_S:g} s run limit")
        ranges = span_ranges(tracer, first_span, traced_passes)
        counts = [Counter(s.name for s in tracer.spans[lo:hi]) for lo, hi in ranges]
        errors += [f"traced pass {i} call counts differ from traced pass 1"
                   for i, c in enumerate(counts[1:], start=2) if c != counts[0]]
        last_span = ranges[0][1]
        # span times less the probes inside them, at the first traced pass's
        # nominal speed like wall_s; build spans at their own, like setup_s
        t0, t1, _ = traced_passes[0]
        scale = probe.scale(t0, t1)
        build_s = [probe.nominal(s.start, s.end) for s in build_spans]
        per_layer = layers.per_layer_metrics(
            tracer, first_span, last_span, traced[0], build_s, overhead,
            lambda s: probe.nominal(s.start, s.end, scale),
        )
        units = dict(layers.per_layer_specs())
        metrics = {name: {"value": per_layer[name], "unit": units[name]} for name in units}
        lines.append(f"trace.overhead_s = {overhead:.6f} s ({how})")
        lines.append(f"per-layer times at nominal speed: traced pass 1 ran at speed scale "
                     f"{scale:.4f} (raw span times in the spans file)")
        lines += [f"{name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
        record["traced_passes"] = [
            {"wall_s": wall, "nominal_s": nom, "ops": [asdict(r) for r in ops_]}
            for wall, nom, ops_ in zip(traced_walls, traced_nominal, traced)
        ]
        record["per_layer"] = per_layer
        del tracer.spans[last_span:]
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    lines += [f"check: {e}" for e in errors] or ["check: outputs consistent"]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")

    print("\n".join(lines))
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
