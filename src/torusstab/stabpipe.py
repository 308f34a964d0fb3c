"""The stability-proof pipeline: Taylor split, coefficient smoothing,
parameter schedule, remainder bounds, and predicted stability times.

The schedule follows the choices a = 1/(tau+1), b = 6(a ell + 1),
K = ceil((rho_tilde/rho)^a), s = (rho/rho_tilde)^a |b log rho|,
alpha = gamma/K^tau, with rho_tilde chosen so that the smallness condition
saturates exactly (at the real-valued K).  All C-constants are configured
scale factors with default 1; predictions are reported as shape times
configured constant, never as calibrated truths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    DominanceViolationError,
    NumericalFault,
    PipelineStageError,
    PreconditionError,
)
from .freqlib import diophantine_constant
from .ftseries import AnalyticityWidths, FourierTaylorSeries, theta_gradient_majorant
from .normalform import NormalFormParams, resonant_normal_form
from .smoothing import holder_norm_majorant

RHO_MAX = math.exp(-6.0)

# what a stage may fail with: a precondition or a numerical fault; anything
# else is a programming error and is not wrapped in a PipelineStageError
_STAGE_FAULTS = (ValueError, NumericalFault)


@dataclass(frozen=True)
class BoundConstants:
    """Configured scale factors for every bound shape.

    The theory guarantees only that such constants exist, not their values,
    so defaults are 1 and predictions are shapes times a configured factor."""

    C_A: float = 1.0
    C_B: float = 1.0
    C_0: float = 1.0
    C_1: float = 1.0
    C_2: float = 1.0
    C_3: float = 1.0
    C_4: float = 1.0
    C_5: float = 1.0
    C_6: float = 1.0
    xi: float = 2.0

    def __post_init__(self):
        for name in ("C_A", "C_B", "C_0", "C_1", "C_2", "C_3", "C_4", "C_5", "C_6"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.xi <= 1:
            raise ValueError("xi must exceed 1")


@dataclass(frozen=True)
class TaylorSplit:
    """Polynomial part P (orders 2..q-2) and tail bound for orders >= q-1."""

    P: FourierTaylorSeries
    Z: FourierTaylorSeries
    Z_bound: float
    rho: float


@dataclass(frozen=True)
class SmoothedSplit:
    P_s: FourierTaylorSeries
    grad_I_gap: float
    grad_theta_gap: float
    dropped_mass: float
    s: float


@dataclass(frozen=True)
class ParameterSchedule:
    rho: float
    gamma: float
    tau: float
    ell: float
    a: float
    b: float
    rho_tilde: float
    K: int
    K_real: float
    s: float
    alpha: float
    flags: dict

    @property
    def valid(self):
        return all(self.flags.values())

    def failed_flags(self):
        return sorted(name for name, ok in self.flags.items() if not ok)


@dataclass(frozen=True)
class RemainderBounds:
    analytic: float
    smoothing_gap: float
    taylor: float

    @property
    def dominant(self):
        values = {
            "analytic": self.analytic,
            "smoothing_gap": self.smoothing_gap,
            "taylor": self.taylor,
        }
        return max(values, key=values.get)

    @property
    def total(self):
        return self.analytic + self.smoothing_gap + self.taylor


@dataclass(frozen=True)
class StabilityPrediction:
    """Internal-form time t_star and the headline-form time with its exponent."""

    t_star: float
    t_theorem: float
    exponent: float
    log_exponent: float
    b: float


def taylor_split(f, hc, rho):
    """Split f into P (action orders 2..q-2) and the high-order tail Z.

    Z_bound is the angle-gradient majorant of Z on the tube of radius rho.
    Orders 0 and 1 are a model violation: the torus would not be invariant.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if f and f.min_taylor_order() < 2:
        raise PreconditionError(
            "perturbation carries Taylor orders < 2; the torus would not be invariant"
        )
    top = hc.q - 2
    Z = f.select(lambda nk, nm, c: nm > top)
    return TaylorSplit(
        P=f.select(lambda nk, nm, c: (nm >= 2) & (nm <= top)),
        Z=Z,
        Z_bound=theta_gradient_majorant(Z, rho),
        rho=float(rho),
    )


def smooth_coefficients(split, s):
    """Sharp-cutoff smoothing of every coefficient a_m(theta) of P at width s.

    Also returns gap majorants for the action and angle gradients of P - P_s
    on the half-radius tube, from the dropped coefficient tails.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    cutoff = 1.0 / s
    half = split.rho / 2.0
    tail = split.P.select(lambda nk, nm, c: nk > cutoff)
    return SmoothedSplit(
        P_s=split.P.select(lambda nk, nm, c: nk <= cutoff),
        grad_I_gap=tail.mass(lambda nk, nm: nm * half ** (nm - 1)),
        grad_theta_gap=theta_gradient_majorant(tail, half),
        dropped_mass=tail.mass(),
        s=float(s),
    )


def parameter_schedule(rho, gamma, tau, hc, consts, coeff_norm_max):
    """Compute (a, b, rho_tilde, K, s, alpha) and the validity flags.

    Flags report failures as diagnostics; no exception is raised here.  The
    smallness flag is evaluated at the real-valued K (the integer ceiling on
    the cutoff would otherwise break the structurally-saturated inequality
    by an O(1/K) factor).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if coeff_norm_max <= 0:
        raise ValueError("coeff_norm_max must be positive")
    a = 1.0 / (tau + 1.0)
    b = 6.0 * (a * hc.ell + 1.0)
    denom = 256.0 * consts.xi * consts.C_0 * consts.C_B * coeff_norm_max
    rho_tilde = (gamma / denom) ** (1.0 / (a * (tau + 1.0)))
    K_real = (rho_tilde / rho) ** a
    K = max(1, math.ceil(K_real))
    s = (rho / rho_tilde) ** a * abs(b * math.log(rho))
    alpha = gamma / float(K) ** tau
    smallness_lhs = consts.C_0 * consts.C_B * coeff_norm_max * rho**2
    smallness_rhs = gamma * rho / (256.0 * consts.xi * K_real ** (tau + 1.0))
    flags = {
        "smallness_ok": bool(smallness_lhs <= smallness_rhs * (1.0 + 1e-9)),
        "rho_ok": bool(rho < min(s, RHO_MAX)),
        "Ks_ok": bool(K * s >= 6.0),
        "s_in_range": bool(0.0 < s <= 1.0),
    }
    return ParameterSchedule(
        rho=float(rho),
        gamma=float(gamma),
        tau=float(tau),
        ell=float(hc.ell),
        a=a,
        b=b,
        rho_tilde=rho_tilde,
        K=K,
        K_real=K_real,
        s=s,
        alpha=alpha,
        flags=flags,
    )


def dominance_threshold(tau):
    """Regularity gate (3-a)/(1-a) = 3 + 2/tau below which the Taylor tail
    cannot be dominated."""
    return 3.0 + 2.0 / tau


def remainder_bounds(schedule, consts, hc):
    """The three drift-rate bound shapes and the dominant tag.

    Raises DominanceViolationError when ell <= 3 + 2/tau, and a precondition
    error when the schedule flags are not all true.
    """
    gate = dominance_threshold(schedule.tau)
    if hc.ell <= gate:
        raise DominanceViolationError(
            f"ell = {hc.ell} must exceed (3-a)/(1-a) = 3 + 2/tau = {gate} for tau = {schedule.tau}"
        )
    if not schedule.valid:
        raise PreconditionError(
            f"schedule flags failed: {', '.join(schedule.failed_flags())}"
        )
    rho = schedule.rho
    a, b, ell = schedule.a, schedule.b, hc.ell
    log_b = abs(b * math.log(rho))
    return RemainderBounds(
        analytic=consts.C_1 * rho ** (2.0 + b / 6.0 - a) / log_b,
        smoothing_gap=consts.C_4 * rho ** (2.0 + a * (ell - 1.0)) * log_b ** (ell - 1.0),
        taylor=consts.C_5 * rho ** (ell - 1.0),
    )


def predicted_stability_time(rho, hc, tau, consts):
    """Stability-time prediction, in both internal and headline forms.

    t_star = 1/(6 C_6 rho^{1+a(ell-1)} |b log rho|^{ell-1}) and
    t_theorem = C_1 / (rho^{1+(ell-1)/(tau+1)} |log rho|^{ell-1}); the rho
    exponents are identical, the constants differ by b^{ell-1}.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    a = 1.0 / (tau + 1.0)
    b = 6.0 * (a * hc.ell + 1.0)
    ell = hc.ell
    exponent = 1.0 + (ell - 1.0) / (tau + 1.0)
    log_abs = abs(math.log(rho))
    t_star = 1.0 / (6.0 * consts.C_6 * rho ** (1.0 + a * (ell - 1.0)) * (b * log_abs) ** (ell - 1.0))
    t_theorem = consts.C_1 / (rho**exponent * log_abs ** (ell - 1.0))
    return StabilityPrediction(
        t_star=t_star,
        t_theorem=t_theorem,
        exponent=exponent,
        log_exponent=ell - 1.0,
        b=b,
    )


def diffusion_time_reference(rho, hc, tau, epsilon, T0):
    """Reference diffusion time T0 / rho^{1+(ell-1)/(tau+1)+epsilon}."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if T0 <= 0:
        raise ValueError("T0 must be positive")
    return T0 / rho ** (1.0 + (hc.ell - 1.0) / (tau + 1.0) + epsilon)


@dataclass(frozen=True)
class PipelineReport:
    rho: float
    coeff_norm_max: float
    schedule: ParameterSchedule
    split: TaylorSplit | None
    smoothed: SmoothedSplit | None
    normal_form: object
    bounds: RemainderBounds | None
    drift_rate: float
    prediction: StabilityPrediction | None
    failure: str | None

    @property
    def certified(self):
        return self.failure is None and self.normal_form is not None and self.normal_form.certified

    def to_text(self):
        """Flat key=value report block."""
        lines = [f"rho = {self.rho!r}", f"coeff_norm_max = {self.coeff_norm_max!r}"]
        sch = self.schedule
        for name in ("a", "b", "rho_tilde", "K", "s", "alpha"):
            lines.append(f"schedule.{name} = {getattr(sch, name)!r}")
        for name, ok in sch.flags.items():
            lines.append(f"schedule.{name} = {int(ok)}")
        if self.split is not None:
            lines.append(f"z_bound = {self.split.Z_bound!r}")
        if self.smoothed is not None:
            lines.append(f"grad_I_gap = {self.smoothed.grad_I_gap!r}")
            lines.append(f"grad_theta_gap = {self.smoothed.grad_theta_gap!r}")
        if self.normal_form is not None:
            nf = self.normal_form
            lines.append(f"nf.contraction = {nf.contraction!r}")
            lines.append(f"nf.target_contraction = {nf.target_contraction!r}")
            lines.append(f"nf.certified = {int(nf.certified)}")
        if self.bounds is not None:
            lines.append(f"bound.analytic = {self.bounds.analytic!r}")
            lines.append(f"bound.smoothing_gap = {self.bounds.smoothing_gap!r}")
            lines.append(f"bound.taylor = {self.bounds.taylor!r}")
            lines.append(f"bound.dominant = {self.bounds.dominant}")
        lines.append(f"drift_rate = {self.drift_rate!r}")
        if self.prediction is not None:
            lines.append(f"t_star = {self.prediction.t_star!r}")
            lines.append(f"t_theorem = {self.prediction.t_theorem!r}")
            lines.append(f"exponent = {self.prediction.exponent!r}")
        lines.append(f"failure = {self.failure or 'none'}")
        return "\n".join(lines) + "\n"


def perturbation_of(H, omega, tol=1e-9):
    """Extract f from H = omega.I + f, checking the linear part matches omega."""
    w = omega.as_array() if hasattr(omega, "as_array") else omega
    linear = FourierTaylorSeries.linear(w)
    f = H - linear
    stray = f.select(lambda nk, nm, c: (nk == 0) & (nm <= 1))
    if stray and stray.coefficient_mass() > tol * max(H.coefficient_mass(), 1.0):
        raise PreconditionError(
            "Hamiltonian linear part does not match the supplied frequency"
        )
    return f - stray


def coefficient_norm_max(P, hc):
    """max over monomials 2 <= |m|_1 <= q-2 of the Holder majorant of a_m."""
    best = 0.0
    for m in P.taylor_monomials():
        best = max(best, holder_norm_majorant(P.angle_coefficient(m), hc))
    return best


def run_pipeline(H, omega, gamma, tau, hc, rho, consts=None, nf_rel_chop=1e-16):
    """Full pipeline: split -> schedule -> coefficient smoothing -> certificate
    check -> resonant normal form -> remainder bounds -> predicted times.

    A schedule with failed flags produces a report with `failure` naming them;
    failures in later stages raise PipelineStageError with the stage tag.
    """
    consts = consts or BoundConstants()
    f = perturbation_of(H, omega)
    if not f:
        # integrable case: nothing to certify, infinite predicted time
        schedule = parameter_schedule(rho, gamma, tau, hc, consts, coeff_norm_max=1e-300)
        return PipelineReport(
            rho=float(rho),
            coeff_norm_max=0.0,
            schedule=schedule,
            split=None,
            smoothed=None,
            normal_form=None,
            bounds=None,
            drift_rate=0.0,
            prediction=replace(
                predicted_stability_time(rho, hc, tau, consts),
                t_star=math.inf,
                t_theorem=math.inf,
            ),
            failure=None,
        )

    try:
        split = taylor_split(f, hc, rho)
        cmax = coefficient_norm_max(split.P, hc)
    except _STAGE_FAULTS as exc:
        raise PipelineStageError("taylor_split", exc) from exc

    schedule = parameter_schedule(rho, gamma, tau, hc, consts, cmax)
    if not schedule.valid:
        return PipelineReport(
            rho=float(rho),
            coeff_norm_max=cmax,
            schedule=schedule,
            split=split,
            smoothed=None,
            normal_form=None,
            bounds=None,
            drift_rate=math.nan,
            prediction=None,
            failure="schedule flags failed: " + ", ".join(schedule.failed_flags()),
        )

    try:
        smoothed = smooth_coefficients(split, schedule.s)
    except _STAGE_FAULTS as exc:
        raise PipelineStageError("smooth_coefficients", exc) from exc

    try:
        cert = diophantine_constant(omega, tau, schedule.K, cap=schedule.K)
        if cert.gamma_K < gamma:
            raise PreconditionError(
                f"supplied gamma = {gamma} exceeds the certified gamma_K = "
                f"{cert.gamma_K:.6e} at K = {schedule.K}"
            )
    except _STAGE_FAULTS as exc:
        raise PipelineStageError("certificate", exc) from exc

    try:
        params = NormalFormParams(
            alpha=schedule.alpha,
            K=schedule.K,
            widths=AnalyticityWidths(schedule.s, rho),
            xi=consts.xi,
            M=0.0,
        )
        nf = resonant_normal_form(
            FourierTaylorSeries.linear(omega) + smoothed.P_s, omega, params, rel_chop=nf_rel_chop
        )
    except _STAGE_FAULTS as exc:
        raise PipelineStageError("normal_form", exc) from exc

    try:
        bounds = remainder_bounds(schedule, consts, hc)
        drift_rate = (
            consts.C_6
            * rho ** (2.0 + schedule.a * (hc.ell - 1.0))
            * abs(schedule.b * math.log(rho)) ** (hc.ell - 1.0)
        )
        prediction = predicted_stability_time(rho, hc, tau, consts)
    except _STAGE_FAULTS as exc:
        raise PipelineStageError("remainder_bounds", exc) from exc

    return PipelineReport(
        rho=float(rho),
        coeff_norm_max=cmax,
        schedule=schedule,
        split=split,
        smoothed=smoothed,
        normal_form=nf,
        bounds=bounds,
        drift_rate=drift_rate,
        prediction=prediction,
        failure=None,
    )
