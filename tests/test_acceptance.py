"""Acceptance suite: one quantitative check per headline property, each
printing a single PASS/FAIL line (bypassing capture) plus a hard assert.

Run with plain `pytest`; the no-escape check integrates ~160k batched
split steps and dominates the runtime (about 15-20 s on a 2-core x86_64 box).
"""

import math

import numpy as np
import pytest

from torusstab import (
    AnalyticityWidths,
    FourierTaylorSeries,
    HolderClass,
    NormalFormParams,
    PreconditionError,
    RHO_MAX,
    ballistic_bound,
    build_test_hamiltonian,
    default_dt,
    dominance_threshold,
    escape_time,
    fit_exponent,
    golden_frequency,
    parameter_schedule,
    predicted_stability_time,
    remainder_bounds,
    resonant_normal_form,
    run_pipeline,
    solve_homological,
)
from series_helpers import cosine, partial_theta, worst_tail_slope_miss

D = 2
OMEGA = golden_frequency(2)


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written past pytest's fd capture."""

    def _report(name, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'}: {name} -- {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_smoothing_scaling(report):
    """The smoothing slope where the pipeline smooths: for each ell in {5.5,
    6.5, 7.5}, every Taylor index m of the seed-0 test H's polynomial part P
    and p in {0, 1}, the fitted slope of log (tail mass of a_m beyond |k|_1 =
    1/s, weighted (2 pi |k|_1)^p) against log s, s = 2^-2 ... 2^-7, is
    within 0.3 of ell - p.

    The slope is not exact on these coefficients: the two modes of a shell
    are drawn independently, and where they coincide or one is the other's
    mirror their coefficients add with random phases, so some shells carry
    only part of their stated mass.  These collisions bend the slope by up
    to about 0.25.
    """
    misses = {ell: worst_tail_slope_miss(build_test_hamiltonian(HolderClass(ell, D), 0),
                                         HolderClass(ell, D))
              for ell in (5.5, 6.5, 7.5)}
    report("smoothing-scaling", max(misses.values()) <= 0.3,
           "worst |slope - (ell - p)| "
           + ", ".join(f"{miss:.3f} at ell={ell}" for ell, miss in misses.items())
           + " (bound 0.3)")


def test_normal_form_contraction(report):
    """Golden-frequency instance: certified with contraction <= e^-1."""
    f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-6)
    params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5))
    nf = resonant_normal_form(OMEGA, f, params)
    ok = nf.certified and nf.contraction <= math.exp(-1.0)
    report("normal-form-contraction", ok,
           f"contraction={nf.contraction:.2e} <= {math.exp(-1):.3f}, stop={nf.stop}")


def test_pipeline_certifies_down_the_ladder(report):
    """Built-in H (seed 0) certifies at rho in {1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8}."""
    hc = HolderClass(6.5, D)
    H = build_test_hamiltonian(hc, seed=0, amplitude=1e-12, j_max=8)
    ok = True
    details = []
    for rho in (1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        rep = run_pipeline(H, OMEGA, 0.5, 1.0, hc, rho)
        nf = rep.normal_form
        if nf is None:
            ok = False
            details.append(f"rho={rho:g}: {rep.failure}")
            continue
        # certified means every gate holds, and a certified run has passed all six
        ok = ok and rep.certified and len(rep.gates) == 6
        ok = ok and nf.contraction <= nf.target_contraction
        details.append(
            f"rho={rho:g}, K={rep.schedule.K}: {nf.stop} after {nf.iterations} iterations, "
            f"contraction/target={nf.contraction / nf.target_contraction:.3f}"
        )
    report("pipeline-certifies", ok, "; ".join(details))


def test_homological_exactness(report):
    """Residual of omega . d_theta chi = f <= 1e-13 of f."""
    f = cosine(D, (1, -1), m=(2, 0), amplitude=1e-3) + (
        cosine(D, (2, 1), m=(1, 1), amplitude=5e-4, phase=-0.5 * math.pi)
    )
    chi = solve_homological(f, OMEGA)
    w = np.array(OMEGA)
    resid = FourierTaylorSeries(D)
    for ax in range(D):
        resid = resid + partial_theta(chi, ax) * w[ax]
    resid = resid - f
    rel_resid = resid.mass() / f.mass()
    report("homological-exactness", rel_resid <= 1e-13, f"residual={rel_resid:.1e}")


def test_schedule_and_exponent_identities(report):
    """a, b, K*s and the stability exponent; dominance over 6 decades; gate."""
    hc = HolderClass(6.5, D)
    tau = 1.0
    checks = []
    for exp in range(7, 13):
        rho = 10.0**-exp
        sch = parameter_schedule(rho, 0.5, tau, hc, 1e-3)
        checks.append(sch.a == 1.0 / (tau + 1.0))
        checks.append(sch.b == 6.0 * (sch.a * hc.ell + 1.0))
        target = sch.b * abs(math.log(rho))
        checks.append(abs(sch.K * sch.s - target) / target <= 1.0 / sch.K)
        checks.append(rho < min(sch.s, RHO_MAX) and sch.s <= 1.0)
        bounds = remainder_bounds(sch, hc)
        checks.append(bounds.dominant == "smoothing_gap")
    pred = predicted_stability_time(1e-8, hc, tau)
    checks.append(pred.exponent == 1.0 + (hc.ell - 1.0) / (tau + 1.0))
    checks.append(dominance_threshold(1.0) == 5.0)
    gate_raises = False
    try:
        sch_bad = parameter_schedule(1e-8, 0.5, 0.5, hc, 1e-3)
        remainder_bounds(sch_bad, hc)
    except PreconditionError as exc:
        gate_raises = "must exceed (3-a)/(1-a)" in str(exc)
    checks.append(gate_raises)
    ok = all(checks)
    report("schedule-exponent-identities", ok,
           f"{sum(checks)}/{len(checks)} identities hold; gate(tau=1)=5")


def test_fit_correctness(report):
    """Exponent recovery: power-with-log to 1e-6, pure power to 1e-10."""
    hc = HolderClass(6.5, D)
    rhos = np.array([10.0**-e for e in range(3, 10)])
    t_pred = np.array(
        [predicted_stability_time(r, hc, 1.0).t_theorem for r in rhos]
    )
    rep_log = fit_exponent(rhos, t_pred, log_exponent=hc.ell - 1.0)
    p_target = 1.0 + (hc.ell - 1.0) / 2.0
    pure = 4.2 / rhos**2.75
    rep_pure = fit_exponent(rhos, pure)
    ok = abs(rep_log.p - p_target) <= 1e-6 and abs(rep_pure.p - 2.75) <= 1e-10
    report("fit-correctness", ok,
           f"log-model dev={abs(rep_log.p - p_target):.1e}, "
           f"pure dev={abs(rep_pure.p - 2.75):.1e}")


def test_ballistic_sanity(report):
    """Bound arithmetic 1/(4 pi rho) and no sub-ballistic measured escapes."""
    rho = 0.05
    H = FourierTaylorSeries.linear(OMEGA) + cosine(
        D, (1, 0), m=(2, 0), phase=-0.5 * math.pi
    )
    bound = ballistic_bound(H, 0.5 * rho, rho)
    exact = 1.0 / (4.0 * math.pi * rho)
    arithmetic_ok = abs(bound - exact) <= 1e-14 * exact
    # a strongly forced instance that does escape; escape_time itself raises a
    # numerical fault if any uncensored time beats the reachable-tube bound
    H_forced = FourierTaylorSeries.linear(OMEGA) + cosine(
        D, (1, 0), amplitude=1.0, phase=-0.5 * math.pi
    )
    rec = escape_time(H_forced, 0.01, threshold=0.005, t_cap=5.0,
                      n_samples=8, seed=2, dt=1e-4)
    forced_bound = ballistic_bound(H_forced.fourier_nonzero_part(), 0.005, 0.01)
    times = rec.escape_times[~rec.censored]
    escapes_ok = len(times) > 0 and bool(np.all(times >= forced_bound * (1 - 1e-12)))
    ok = arithmetic_ok and escapes_ok
    report("ballistic-sanity", ok,
           f"bound={bound:.6f} vs 1/(4 pi rho)={exact:.6f}; "
           f"{len(times)} escapes all >= {forced_bound:.4f}")


def test_escape_power(report):
    """The no-escape check can fail: at amplitude 1 a sample escapes at
    rho = 0.1, never faster than the ballistic bound, and none at rho = 0.05."""
    hc = HolderClass(6.5, D)
    H = build_test_hamiltonian(hc, seed=0, amplitude=1.0, j_max=8)
    details = []
    escapes = {}
    ok = True
    for rho in (0.1, 0.05):
        rec = escape_time(H, rho, threshold=0.5 * rho, t_cap=2.0, n_samples=10, seed=0)
        bound = ballistic_bound(H.fourier_nonzero_part(), 0.5 * rho, 1.5 * rho)
        times = rec.escape_times[~rec.censored]
        escapes[rho] = len(times)
        ok = ok and bool(np.all(times >= bound))
        first = f"first at {times.min():.4f}" if len(times) else "none"
        details.append(
            f"rho={rho}: {len(times)}/10 escaped ({first}; bound {bound:.4f}), "
            f"drift/threshold={rec.max_drift_at_cap / (0.5 * rho):.2f}"
        )
    ok = ok and escapes[0.1] >= 1 and escapes[0.05] == 0
    report("escape-power", ok, "; ".join(details))


@pytest.mark.slow
def test_no_escape_property(report):
    """Zero of 150 seeded samples drifts rho/2 before the predicted time."""
    hc = HolderClass(6.5, D)
    H = build_test_hamiltonian(hc, seed=0, amplitude=1e-12, j_max=8)
    dt = default_dt(H)
    details = []
    ok = True
    for rho in (0.1, 0.05, 0.025):
        t_pred = predicted_stability_time(rho, hc, 1.0).t_theorem
        t_cap = min(t_pred, 10**6 * dt)
        rec = escape_time(H, rho, threshold=0.5 * rho, t_cap=t_cap,
                          n_samples=50, seed=0, dt=dt)
        ok = ok and rec.censored_fraction == 1.0 and rec.max_energy_drift <= 1e-8
        details.append(
            f"rho={rho}: t_cap={t_cap:.1f}, censored={rec.censored_fraction:.2f}, "
            f"edrift={rec.max_energy_drift:.1e}, "
            f"drift/threshold={rec.max_drift_at_cap / (0.5 * rho):.1e}"
        )
    report("no-escape-property", ok, "; ".join(details))
