"""Command-line interface.

Exit codes: 0 on success, 1 when `smooth-verify`, `nf` or `predict --input`
completes but its check or certificate does not pass, 2 for
precondition/model violations and files that cannot be read or written, 3
for numerical faults.  All computation is serial and deterministic.
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import escape_time
from .errors import NumericalFault, PipelineStageError, PreconditionError
from .experiment import (
    ExperimentConfig,
    build_test_hamiltonian,
    emit_plots,
    fit_exponent_rows,
    load_config,
    read_sweep_csv,
    sweep,
)
from .freqlib import Frequency, diophantine_constant, golden_frequency
from .ftseries import FourierTaylorSeries, split_linear
from .normalform import AnalyticityWidths, NormalFormParams, resonant_normal_form
from .smoothing import HolderClass, lacunary_series, smooth, verify_smoothing_estimate
from .stabpipe import predicted_stability_time, run_pipeline


def _refuse(args, where, *names):
    """Refuse by name each option given that is used only `where` --input."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} is used only {where} --input")


def cmd_dioph(args):
    freq = golden_frequency(2)
    if args.omega is not None:
        try:
            omega = tuple(float(v) for v in args.omega.split(","))
        except ValueError:
            raise ValueError(f"bad value for --omega: {args.omega!r}") from None
        freq = Frequency(omega)
    cert = diophantine_constant(freq, args.tau, args.K)
    print(f"omega = {','.join(repr(w) for w in freq)}")
    print(f"tau = {args.tau!r}")
    print(f"K = {cert.K}")
    print(f"gamma_K = {cert.gamma_K!r}")
    print(f"alpha = {cert.alpha!r}")
    print(f"attained_k = {','.join(str(v) for v in cert.attained_k)}")
    return 0


def cmd_smooth(args):
    g = FourierTaylorSeries.load(args.input)
    res = smooth(g, args.s)
    if args.output:
        res.g_s.save(args.output)
    print(f"s = {res.s!r}")
    print(f"fourier_norm_at_s = {res.fourier_norm_at_s!r}")
    print(f"dropped_tail_mass = {res.dropped_tail_mass!r}")
    return 0


def cmd_smooth_verify(args):
    hc = HolderClass(args.ell, args.d)
    if args.input:
        _refuse(args, "without", "j_max", "seed")
        g = FourierTaylorSeries.load(args.input)
    else:
        j_max = 12 if args.j_max is None else args.j_max
        g = lacunary_series(args.d, args.ell, j_max=j_max, seed=args.seed or 0)
    s_list = [2.0**-j for j in range(args.s_min_exp, args.s_max_exp + 1)]
    report = verify_smoothing_estimate(g, hc, args.p, s_list)
    print(f"slope = {report.slope!r}")
    print(f"target = {report.target!r}")
    print(f"n_used = {len(report.s_used)}")
    print(f"saturated = {len(report.saturated)}")
    print(f"passed = {int(report.passed)}")
    return 0 if report.passed else 1


def cmd_nf(args):
    H = FourierTaylorSeries.load(args.input)
    widths = AnalyticityWidths(args.sigma, args.rho)
    params = NormalFormParams(alpha=args.alpha, K=args.K, widths=widths)
    result = resonant_normal_form(*split_linear(H, "normal form"), params)
    if args.output:
        result.h.save(args.output)
    print(f"contraction = {result.contraction!r}")
    print(f"target_contraction = {result.target_contraction!r}")
    print(f"iterations = {result.iterations}")
    print(f"certified = {int(result.certified)}")
    print(f"stop = {result.stop}")
    return 0 if result.certified else 1


def cmd_predict(args):
    hc = HolderClass(args.ell, args.d)
    if args.input:
        H = FourierTaylorSeries.load(args.input)
        gamma = 0.5 if args.gamma is None else args.gamma
        omega = split_linear(H, "pipeline")[0]
        if not omega.any():
            raise PreconditionError("series has no linear part omega.I")
        report = run_pipeline(H, omega, gamma, args.tau, hc, args.rho)
        sys.stdout.write(report.to_text())
        return 0 if report.certified else 1
    _refuse(args, "with", "gamma")
    pred = predicted_stability_time(args.rho, hc, args.tau)
    print(f"t_theorem = {pred.t_theorem!r}")
    print(f"exponent = {pred.exponent!r}")
    print(f"log_exponent = {pred.log_exponent!r}")
    return 0


def cmd_escape(args):
    if args.input:
        _refuse(args, "without", "ell", "amplitude")
        H = FourierTaylorSeries.load(args.input)
    else:
        hc = HolderClass(6.5 if args.ell is None else args.ell, 2)
        amplitude = 1e-12 if args.amplitude is None else args.amplitude
        H = build_test_hamiltonian(hc, seed=args.seed, amplitude=amplitude)
    threshold = args.threshold if args.threshold is not None else 0.5 * args.rho
    record = escape_time(
        H,
        args.rho,
        threshold=threshold,
        t_cap=args.t_cap,
        n_samples=args.n_samples,
        seed=args.seed,
        dt=args.dt,
    )
    print(f"rho = {record.rho!r}")
    print(f"threshold = {record.threshold!r}")
    print(f"dt = {record.dt!r}")
    print(f"t_cap = {record.t_cap!r}")
    print(f"n_samples = {record.n_samples}")
    print(f"censored_fraction = {record.censored_fraction!r}")
    me = record.min_escape
    print(f"min_escape = {'none' if me is None else repr(me)}")
    print(f"max_drift_at_cap = {record.max_drift_at_cap!r}")
    print(f"max_energy_drift = {record.max_energy_drift!r}")
    return 0


def cmd_sweep(args):
    config = load_config(args.config) if args.config else ExperimentConfig()
    rows = sweep(config, csv_path=args.csv)
    for row in rows:
        status = row.error or "ok"
        print(f"rho = {row.rho!r}  t_pred = {row.t_pred!r}  "
              f"min_escape = {row.min_escape!r}  status = {status}")
    return 0


def cmd_fit(args):
    rows = read_sweep_csv(args.csv)
    report = fit_exponent_rows(rows, source=args.source, log_exponent=args.log_exponent)
    print(f"model = {report.model}")
    print(f"p = {report.p!r}")
    print(f"c0 = {report.c0!r}")
    print(f"n_points = {report.n_points}")
    print(f"max_residual = {max(abs(r) for r in report.residuals)!r}")
    if args.source == "t_pred":
        print("note = t_pred is the headline shape, so the fit returns its exponent "
              "by construction")
    return 0


def cmd_plots(args):
    rows = read_sweep_csv(args.csv)
    for path in emit_plots(rows, args.outdir):
        print(path)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torusstab",
        description="Effective-stability laboratory for Diophantine tori of "
        "finitely differentiable Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dioph", help="certify a Diophantine constant by exact lattice search")
    p.add_argument("--omega", help="comma-separated frequency (default: golden, d=2)")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--K", type=int, required=True)
    p.set_defaults(func=cmd_dioph)

    p = sub.add_parser("smooth", help="sharp Fourier cutoff of a pure-angle series")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("smooth-verify", help="tail-decay slope check across an s sweep")
    p.add_argument("--input", help="series file; omit to use a lacunary test series")
    p.add_argument("--ell", type=float, default=6.5)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--j-max", type=int, help="default 12; only without --input")
    p.add_argument("--seed", type=int, help="default 0; only without --input")
    p.add_argument("--s-min-exp", type=int, default=3, help="largest s is 2^-this")
    p.add_argument("--s-max-exp", type=int, default=10, help="smallest s is 2^-this")
    p.set_defaults(func=cmd_smooth_verify)

    p = sub.add_parser("nf", help="resonant normal form with certificate")
    p.add_argument("--input", required=True, help="Hamiltonian series; omega is its linear part")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--output", help="write the integrable part here")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser(
        "predict", help="stability-time prediction (full pipeline when --input given)"
    )
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--ell", type=float, default=6.5)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--gamma", type=float, help="default 0.5; only with --input")
    p.add_argument("--input", help="Hamiltonian series file for the full pipeline")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("escape", help="Monte-Carlo escape-time measurement")
    p.add_argument("--input", help="Hamiltonian series file (default: built-in test)")
    p.add_argument("--ell", type=float, help="default 6.5; only without --input")
    p.add_argument("--amplitude", type=float, help="default 1e-12; only without --input")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--threshold", type=float, help="default rho/2")
    p.add_argument("--t-cap", type=float, required=True)
    p.add_argument("--n-samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float)
    p.set_defaults(func=cmd_escape)

    p = sub.add_parser("sweep", help="rho sweep with incremental CSV output")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--csv", help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit the stability exponent from a sweep CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--source", choices=("t_pred", "min_escape"), default="t_pred")
    p.add_argument("--log-exponent", type=float,
                   help="fit the power-with-log model with this fixed |log rho| "
                   "exponent (use ell - 1); omit for a pure power")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("plots", help="emit gnuplot data files from a sweep CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_plots)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NumericalFault, PipelineStageError) as exc:
        # a pipeline stage failure takes the exit code of its cause
        cause = exc.cause if isinstance(exc, PipelineStageError) else exc
        if isinstance(cause, NumericalFault):
            print(f"numerical fault: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
