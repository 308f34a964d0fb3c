"""The stability-proof pipeline: Taylor split, coefficient smoothing,
parameter schedule, remainder bounds, and the predicted stability time.

The schedule follows the choices a = 1/(tau+1), b = 6(a ell + 1),
K = ceil((rho_tilde/rho)^a), s = (rho/rho_tilde)^a |b log rho|,
alpha = gamma/K^tau, with rho_tilde chosen so that the smallness condition
is an equality; then K s >= b |log rho| >= 36 for rho < e^-6.  Each
inequality the certificate uses is a gate of the report: rho_ok,
s_in_range, dominance, gamma_K, K_sigma, smallness and contraction, in
pipeline order.  The theory proves each bound only up to a constant it
does not compute, so every bound and predicted time here is the theorem's
shape with its constant set to 1: a shape, never a calibrated value.
A ladder of radii on one H does its rho-independent work once (keep_last); every
stage still runs on each call and computes its rho-dependent values afresh.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .errors import NumericalFault, PipelineStageError, PreconditionError
from .errors import require_dimension, require_positive
from .freqlib import Frequency, _check_tau, diophantine_constant
from .ftseries import AnalyticityWidths, FourierTaylorSeries, keep_last, split_linear
from .ftseries import theta_gradient_majorant
from .normalform import XI, NormalFormParams, resonant_normal_form
# holder_norm_majorant is looked up here by bench/layers.py
from .smoothing import coefficient_norm_max, holder_norm_majorant, sharp_cutoff  # noqa: F401

RHO_MAX = math.exp(-6.0)
# mass of H's k = 0, |m|_1 <= 1 part, relative to H's, beyond omega.I that
# run_pipeline rejects
LINEAR_PART_TOL = 1e-9
# the gates that hold only when value < bound; the others hold at value <= bound
_STRICT_GATES = ("rho_ok", "dominance")


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
    tau: float
    a: float
    b: float
    rho_tilde: float
    K: int
    s: float
    alpha: float


@dataclass(frozen=True)
class RemainderBounds:
    analytic: float
    smoothing_gap: float
    taylor: float

    @property
    def dominant(self):
        values = vars(self)  # the three fields in order, not copied
        return max(values, key=values.get)


@dataclass(frozen=True)
class StabilityPrediction:
    """Headline-form time t_theorem with its rho and |log rho| exponents."""

    t_theorem: float
    exponent: float
    log_exponent: float


@keep_last
def _taylor_parts(f, top):
    """(P, Z): f's terms of action orders 2..top, and of orders > top."""
    if f and f.min_taylor_order() < 2:
        raise PreconditionError(
            "perturbation carries Taylor orders < 2; the torus would not be invariant"
        )
    P = f.select(lambda nk, nm, c: (nm >= 2) & (nm <= top))
    return P, f.select(lambda nk, nm, c: nm > top)


def taylor_split(f, hc, rho):
    """Split f into P (action orders 2..q-2) and the high-order tail Z.

    Z_bound is the angle-gradient majorant of Z on the tube of radius rho.
    Orders 0 and 1 are a model violation: the torus would not be invariant.
    P and Z of the last f object and q are kept; Z_bound is computed on each call.
    """
    require_positive(rho=rho)
    P, Z = _taylor_parts(f, hc.q - 2)
    return TaylorSplit(P=P, Z=Z, Z_bound=theta_gradient_majorant(Z, rho), rho=float(rho))


def smooth_coefficients(split, s):
    """Sharp-cutoff smoothing of every coefficient a_m(theta) of P at width s.

    Also returns gap majorants for the action and angle gradients of P - P_s
    on the half-radius tube, from the dropped coefficient tails.
    """
    P_s, tail = sharp_cutoff(split.P, s)
    half = split.rho / 2.0
    return SmoothedSplit(
        P_s=P_s,
        grad_I_gap=tail.mass(lambda nk, nm: nm * half ** (nm - 1)),
        grad_theta_gap=theta_gradient_majorant(tail, half),
        dropped_mass=tail.mass(),
        s=float(s),
    )


def _check_inputs(rho, gamma, tau, **more):
    """Reject by name a bad tau, or a rho, gamma or `more` value <= 0 or not finite."""
    require_positive(rho=rho, gamma=gamma, **more)
    _check_tau(tau)


def parameter_schedule(rho, gamma, tau, hc, coeff_norm_max):
    """(a, b, rho_tilde, K, s, alpha).  Inputs that are not positive and
    finite, and a cutoff K that is not, raise ValueError; run_pipeline checks
    the gates rho_ok (rho < min(s, e^-6)) and s_in_range (s <= 1)."""
    _check_inputs(rho, gamma, tau, coeff_norm_max=coeff_norm_max)
    a = 1.0 / (tau + 1.0)
    b = 6.0 * (a * hc.ell + 1.0)
    denom = 256.0 * XI * coeff_norm_max
    rho_tilde = (gamma / denom) ** (1.0 / (a * (tau + 1.0)))
    cutoff = (rho_tilde / rho) ** a
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff K = (rho_tilde/rho)^a must be finite, got {cutoff!r}")
    K = max(1, math.ceil(cutoff))
    s = (rho / rho_tilde) ** a * abs(b * math.log(rho))
    alpha = gamma / float(K) ** tau
    return ParameterSchedule(
        rho=float(rho),
        tau=float(tau),
        a=a,
        b=b,
        rho_tilde=rho_tilde,
        K=K,
        s=s,
        alpha=alpha,
    )


def dominance_threshold(tau):
    """Regularity gate (3-a)/(1-a) = 3 + 2/tau below which the Taylor tail
    cannot be dominated."""
    return 3.0 + 2.0 / tau


def remainder_bounds(schedule, hc):
    """The three drift-rate bound shapes and the dominant tag.

    Raises PreconditionError when ell <= 3 + 2/tau.
    """
    gate = dominance_threshold(schedule.tau)
    if hc.ell <= gate:
        raise PreconditionError(
            f"ell = {hc.ell} must exceed (3-a)/(1-a) = 3 + 2/tau = {gate} for tau = {schedule.tau}"
        )
    rho = schedule.rho
    a, b, ell = schedule.a, schedule.b, hc.ell
    log_b = abs(b * math.log(rho))
    return RemainderBounds(
        analytic=rho ** (2.0 + b / 6.0 - a) / log_b,
        smoothing_gap=rho ** (2.0 + a * (ell - 1.0)) * log_b ** (ell - 1.0),
        taylor=rho ** (ell - 1.0),
    )


def _exp(x):
    """e^x, or inf beyond float range: times are computed in log space."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def predicted_stability_time(rho, hc, tau):
    """Stability-time prediction t_theorem = 1 / (rho^{1+(ell-1)/(tau+1)}
    |log rho|^{ell-1}), the headline shape with its constant set to 1."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho!r}")
    _check_tau(tau)
    ell = hc.ell
    exponent = 1.0 + (ell - 1.0) / (tau + 1.0)
    return StabilityPrediction(
        t_theorem=_exp(-exponent * math.log(rho) - (ell - 1.0) * math.log(-math.log(rho))),
        exponent=exponent,
        log_exponent=ell - 1.0,
    )


def _gate_ratio(value, bound):
    """value / bound, the gate's margin: at most 1 where it holds."""
    return value / bound if bound else math.inf


@dataclass(frozen=True)
class PipelineReport:
    rho: float
    coeff_norm_max: float
    schedule: ParameterSchedule | None = None
    split: TaylorSplit | None = None
    smoothed: SmoothedSplit | None = None
    normal_form: object = None
    bounds: RemainderBounds | None = None
    prediction: StabilityPrediction | None = None
    gates: tuple = ()  # (name, value, bound) of each inequality that was checked, in order

    @property
    def failure(self):
        """The gates that fail, by name, or None when every gate holds."""
        failed = [name for name, value, bound in self.gates
                  if not (value < bound if name in _STRICT_GATES else value <= bound)]
        return "failed gates: " + ", ".join(failed) if failed else None

    @property
    def certified(self):
        return self.failure is None

    def to_text(self):
        """Flat key=value report block."""
        lines = [f"rho = {self.rho!r}", f"coeff_norm_max = {self.coeff_norm_max!r}"]
        if self.schedule is not None:
            for name in ("a", "b", "rho_tilde", "K", "s", "alpha"):
                lines.append(f"schedule.{name} = {getattr(self.schedule, name)!r}")
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
            lines.append(f"nf.stop = {nf.stop}")
        if self.bounds is not None:
            for name, value in vars(self.bounds).items():
                lines.append(f"bound.{name} = {value!r}")
            lines.append(f"bound.dominant = {self.bounds.dominant}")
        if self.prediction is not None:
            lines.append(f"t_theorem = {self.prediction.t_theorem!r}")
            lines.append(f"exponent = {self.prediction.exponent!r}")
        for name, value, bound in self.gates:
            lines.append(f"gate.{name} = {value!r} / {bound!r} = {_gate_ratio(value, bound)!r}")
        lines.append(f"failure = {self.failure or 'none'}")
        return "\n".join(lines) + "\n"


@keep_last
def _perturbation(H, omega):
    """(f, omega.I) of H = omega.I + f, with split_linear's f.  The linear
    part must match omega to LINEAR_PART_TOL of H's mass; only H's k = 0,
    |m|_1 <= 1 terms are merged with omega.I for it.  The last H object's f
    and omega.I are kept with omega's values (keep_last)."""
    require_dimension(H, len(omega), "frequency")
    f = split_linear(H, "pipeline")[1]
    linear = FourierTaylorSeries.linear(omega)
    stray = H.select(lambda nk, nm, c: (nk == 0) & (nm <= 1)) - linear
    if stray and stray.mass() > LINEAR_PART_TOL * max(H.mass(), 1.0):
        raise PreconditionError("Hamiltonian linear part does not match the supplied frequency")
    return f, linear


@contextmanager
def _stage(name):
    """Re-raise a precondition or numerical fault of the block as a
    PipelineStageError tagged `name`; anything else is a programming error
    and passes unwrapped."""
    try:
        yield
    except (ValueError, NumericalFault) as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(H, omega, gamma, tau, hc, rho):
    """Full pipeline: split -> schedule -> remainder bounds and predicted time
    -> coefficient smoothing -> certificate check -> resonant normal form.

    An omega that Frequency refuses, a bad rho, gamma or tau, or an H that
    is not real or whose d is not hc.d or omega's, is refused before any
    stage runs; an integrable H (f = 0) gets a report with no gates and
    t_theorem = inf; an f with no terms of orders 2..q-2 fails taylor_split.
    Each gate enters the report as its stage passes.  A failed rho_ok or
    s_in_range returns the report, a failed contraction ends it, and the
    other gates raise PipelineStageError with their stage's tag.
    """
    omega = Frequency(omega)
    _check_inputs(rho, gamma, tau)
    require_dimension(H, hc.d, "Holder class")
    f, linear = _perturbation(H, omega)
    if not f:
        return PipelineReport(
            rho=float(rho),
            coeff_norm_max=0.0,
            prediction=replace(predicted_stability_time(rho, hc, tau), t_theorem=math.inf),
        )

    with _stage("taylor_split"):
        split = taylor_split(f, hc, rho)
        if not split.P:
            raise PreconditionError(f"perturbation has no terms of Taylor orders 2..{hc.q - 2}")
        cmax = coefficient_norm_max(split.P, hc)
    schedule = parameter_schedule(rho, gamma, tau, hc, cmax)
    gates = [("rho_ok", float(rho), min(schedule.s, RHO_MAX)), ("s_in_range", schedule.s, 1.0)]
    report = PipelineReport(
        rho=float(rho), coeff_norm_max=cmax, schedule=schedule, split=split, gates=tuple(gates)
    )
    if not report.certified:
        return report

    # closed-form shapes: the dominance gate fails before any costly stage
    with _stage("remainder_bounds"):
        bounds = remainder_bounds(schedule, hc)
        prediction = predicted_stability_time(rho, hc, tau)
    gates.append(("dominance", dominance_threshold(tau), hc.ell))
    with _stage("smooth_coefficients"):
        smoothed = smooth_coefficients(split, schedule.s)
    with _stage("certificate"):
        cert = diophantine_constant(omega, tau, schedule.K)
        if cert.gamma_K < gamma:
            raise PreconditionError(
                f"supplied gamma = {gamma} exceeds the certified gamma_K = "
                f"{cert.gamma_K:.6e} at K = {schedule.K}"
            )
    gates.append(("gamma_K", gamma, cert.gamma_K))
    with _stage("normal_form"):
        params = NormalFormParams(
            alpha=schedule.alpha, K=schedule.K, widths=AnalyticityWidths(schedule.s, rho)
        )
        nf = resonant_normal_form(linear + smoothed.P_s, params)
    gates += [
        ("K_sigma", 6.0, params.K * params.widths.sigma),
        ("smallness", nf.f_initial_norm, params.smallness_threshold),
        ("contraction", nf.contraction, nf.target_contraction),
    ]
    return replace(
        report,
        smoothed=smoothed,
        normal_form=nf,
        bounds=bounds,
        prediction=prediction,
        gates=tuple(gates),
    )
