"""Acceptance suite: one quantitative check per headline property, each
printing a single PASS/FAIL line (bypassing capture) plus a hard assert.

Run with plain `pytest`; the no-escape check integrates ~160k batched
split steps and dominates the runtime (about two minutes).
"""

import math

import numpy as np
import pytest

from torusstab import (
    AnalyticityWidths,
    BoundConstants,
    DominanceViolationError,
    FourierTaylorSeries,
    HolderClass,
    NormalFormParams,
    apply_transform,
    ballistic_bound,
    build_test_hamiltonian,
    default_dt,
    dominance_threshold,
    escape_time,
    fit_exponent,
    fourier_norm_bound_check,
    golden_frequency,
    holder_norm_majorant,
    lacunary_series,
    parameter_schedule,
    predicted_stability_time,
    remainder_bounds,
    resonant_normal_form,
    run_pipeline,
    smooth,
    solve_homological,
    verify_smoothing_estimate,
)

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
    """Fitted tail-decay slope within +-0.3 of ell - p on the lacunary family."""
    s_list = [2.0**-j for j in range(3, 11)]
    worst = math.inf
    details = []
    for ell in (5.5, 6.5):
        hc = HolderClass(ell, D)
        g = lacunary_series(D, ell, j_max=12, seed=0)
        for p in (0, 1):
            rep = verify_smoothing_estimate(g, hc, p, s_list)
            dev = abs(rep.slope - (ell - p))
            worst = min(worst, 0.3 - dev)
            details.append(f"ell={ell} p={p} slope={rep.slope:.3f}")
            if not rep.passed or dev > 0.3:
                report("smoothing-scaling", False, "; ".join(details))
    report("smoothing-scaling", True,
           "; ".join(details) + f" (margin {worst:.3f} of 0.3)")


def test_fourier_norm_equality_and_bound(report, cutoff_gap):
    """sup |g - g_s| <= dropped tail mass on a grid, and no norm growth as s shrinks."""
    hc = HolderClass(6.5, D)
    g = lacunary_series(D, 6.5, j_max=12, seed=0)
    gap_ratio = 0.0
    for s in (2.0**-j for j in range(1, 11)):
        res = smooth(g, s)
        gap_ratio = max(gap_ratio, cutoff_gap(g, res.g_s) / res.dropped_tail_mass)
    maj = holder_norm_majorant(g, hc)
    r4 = smooth(g, 2.0**-4).fourier_norm_at_s / maj
    r10 = smooth(g, 2.0**-10).fourier_norm_at_s / maj
    sweep = fourier_norm_bound_check(g, hc, [2.0**-j for j in range(2, 11)])
    ok = gap_ratio <= 1.0 + 1e-12 and r10 <= 2.0 * r4 and sweep.passed
    report("fourier-norm-equality", ok,
           f"sup|g-g_s|/dropped mass={gap_ratio:.3f}, "
           f"ratio(2^-10)/ratio(2^-4)={r10 / r4:.3f}")


def test_normal_form_contraction(report):
    """Golden-frequency instance: contraction <= e^-1, shifts <= 1/64, 1/48."""
    H = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries.cosine(
        D, (1, 0), m=(2, 0), amplitude=1e-6
    )
    params = NormalFormParams(alpha=0.2, K=5, widths=AnalyticityWidths(1.2, 0.5), xi=2.0)
    nf = resonant_normal_form(H, OMEGA, params)
    ok = (
        nf.certified
        and nf.contraction <= math.exp(-1.0)
        and nf.action_shift_ratio <= 1.0 / 64.0
        and nf.angle_shift_ratio <= 1.0 / 48.0
    )
    report("normal-form-contraction", ok,
           f"contraction={nf.contraction:.2e} <= {math.exp(-1):.3f}, "
           f"shifts=({nf.action_shift_ratio:.1e}, {nf.angle_shift_ratio:.1e})")


def test_pipeline_certifies_down_the_ladder(report):
    """Built-in H (seed 0) certifies at rho in {1e-3, 3e-4, 1e-4, 1e-5, 1e-6}."""
    hc = HolderClass(6.5, D)
    H = build_test_hamiltonian(hc, seed=0, amplitude=1e-12, j_max=8)
    ok = True
    details = []
    for rho in (1e-3, 3e-4, 1e-4, 1e-5, 1e-6):
        rep = run_pipeline(H, OMEGA, 0.5, 1.0, hc, rho)
        nf = rep.normal_form
        if nf is None:
            ok = False
            details.append(f"rho={rho:g}: {rep.failure}")
            continue
        ok = ok and rep.certified and nf.contraction <= nf.target_contraction
        details.append(
            f"rho={rho:g}, K={rep.schedule.K}: {nf.stop} after {nf.iterations} iterations, "
            f"contraction/target={nf.contraction / nf.target_contraction:.3f}"
        )
    report("pipeline-certifies", ok, "; ".join(details))


def test_homological_and_symplectic_exactness(report):
    """Residual <= 1e-13, Jacobian symplecticity defect <= 1e-6, round trip <= 1e-8."""
    f = FourierTaylorSeries.cosine(D, (1, -1), m=(2, 0), amplitude=1e-3) + (
        FourierTaylorSeries.sine(D, (2, 1), m=(1, 1), amplitude=5e-4)
    )
    chi = solve_homological(f, OMEGA)
    w = OMEGA.as_array()
    resid = FourierTaylorSeries.zero(D)
    for ax in range(D):
        resid = resid + chi.partial_theta(ax) * w[ax]
    resid = resid - f
    rel_resid = resid.coefficient_mass() / f.coefficient_mass()

    J = np.block([[np.zeros((D, D)), np.eye(D)], [-np.eye(D), np.zeros((D, D))]])
    rng = np.random.default_rng(1)
    h = 1e-5
    defect = 0.0
    rt_err = 0.0
    for _ in range(10):
        x0 = np.concatenate([rng.random(D), rng.uniform(-0.1, 0.1, D)])
        M = np.zeros((2 * D, 2 * D))
        for j in range(2 * D):
            e = np.zeros(2 * D)
            e[j] = h
            plus = np.concatenate(
                apply_transform((chi,), (x0[:D] + e[:D], x0[D:] + e[D:]), "forward")
            )
            minus = np.concatenate(
                apply_transform((chi,), (x0[:D] - e[:D], x0[D:] - e[D:]), "forward")
            )
            M[:, j] = (plus - minus) / (2 * h)
        defect = max(defect, float(np.max(np.abs(M.T @ J @ M - J))))
        fwd = apply_transform((chi,), (x0[:D], x0[D:]), "forward")
        back = apply_transform((chi,), fwd, "inverse")
        rt_err = max(rt_err, float(np.max(np.abs(np.concatenate(back) - x0))))
    ok = rel_resid <= 1e-13 and defect <= 1e-6 and rt_err <= 1e-8
    report("homological-symplectic-exactness", ok,
           f"residual={rel_resid:.1e}, defect={defect:.1e}, roundtrip={rt_err:.1e}")


def test_schedule_and_exponent_identities(report):
    """a, b, K*s and the stability exponent; dominance over 6 decades; gate."""
    hc = HolderClass(6.5, D)
    consts = BoundConstants()
    tau = 1.0
    checks = []
    for exp in range(7, 13):
        rho = 10.0**-exp
        sch = parameter_schedule(rho, 0.5, tau, hc, consts, 1e-3)
        checks.append(sch.a == 1.0 / (tau + 1.0))
        checks.append(sch.b == 6.0 * (sch.a * hc.ell + 1.0))
        target = sch.b * abs(math.log(rho))
        checks.append(abs(sch.K * sch.s - target) / target <= 1.0 / sch.K)
        checks.append(sch.valid)
        bounds = remainder_bounds(sch, consts, hc)
        checks.append(bounds.dominant == "smoothing_gap")
    pred = predicted_stability_time(1e-8, hc, tau, consts)
    checks.append(pred.exponent == 1.0 + (hc.ell - 1.0) / (tau + 1.0))
    checks.append(dominance_threshold(1.0) == 5.0)
    gate_raises = False
    try:
        sch_bad = parameter_schedule(1e-8, 0.5, 0.5, hc, consts, 1e-3)
        remainder_bounds(sch_bad, BoundConstants(), hc)
    except DominanceViolationError:
        gate_raises = True
    checks.append(gate_raises)
    ok = all(checks)
    report("schedule-exponent-identities", ok,
           f"{sum(checks)}/{len(checks)} identities hold; gate(tau=1)=5")


def test_fit_correctness(report):
    """Exponent recovery: power-with-log to 1e-6, pure power to 1e-10."""
    hc = HolderClass(6.5, D)
    consts = BoundConstants()
    rhos = np.array([10.0**-e for e in range(3, 10)])
    t_pred = np.array(
        [predicted_stability_time(r, hc, 1.0, consts).t_theorem for r in rhos]
    )
    rep_log = fit_exponent(rhos, t_pred, model="power-with-log",
                           log_exponent=hc.ell - 1.0)
    p_target = 1.0 + (hc.ell - 1.0) / 2.0
    pure = 4.2 / rhos**2.75
    rep_pure = fit_exponent(rhos, pure, model="pure-power")
    ok = abs(rep_log.p - p_target) <= 1e-6 and abs(rep_pure.p - 2.75) <= 1e-10
    report("fit-correctness", ok,
           f"log-model dev={abs(rep_log.p - p_target):.1e}, "
           f"pure dev={abs(rep_pure.p - 2.75):.1e}")


def test_ballistic_sanity(report):
    """Bound arithmetic 1/(4 pi rho) and no sub-ballistic measured escapes."""
    rho = 0.05
    H = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries.sine(
        D, (1, 0), m=(2, 0)
    )
    bound = ballistic_bound(H, 0.5 * rho, rho)
    exact = 1.0 / (4.0 * math.pi * rho)
    arithmetic_ok = abs(bound - exact) <= 1e-14 * exact
    # a strongly forced instance that does escape; escape_time itself raises a
    # numerical fault if any uncensored time beats the reachable-tube bound
    H_forced = FourierTaylorSeries.linear(OMEGA) + FourierTaylorSeries.sine(
        D, (1, 0), amplitude=1.0
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


@pytest.mark.slow
def test_no_escape_property(report):
    """Zero of 150 seeded samples drifts rho/2 before the predicted time."""
    hc = HolderClass(6.5, D)
    consts = BoundConstants()
    H = build_test_hamiltonian(hc, seed=0, amplitude=1e-12, j_max=8)
    dt = default_dt(H)
    details = []
    ok = True
    for rho in (0.1, 0.05, 0.025):
        t_pred = predicted_stability_time(rho, hc, 1.0, consts).t_theorem
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
