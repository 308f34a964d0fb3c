"""Constructive resonant normal forms via Lie series.

The certificate target is the remainder contraction e^{-K sigma/6} between
the (sigma, rho) and (sigma/6, rho/2) domains, reached from a perturbation
within the entry bound alpha rho / (256 xi K), with the theorem's constant
xi fixed at XI = 2.  The integrable part of H = omega.I + f is linear, so
no Hessian bound enters.  For a Diophantine frequency every mode
0 < |k|_1 <= K is non-resonant, so the normal form is a pure average: the
integrable part only gains k=0 terms.

Each Lie step drops what cannot matter at the certificate's scale, and
counts it in the contraction: the bracket terms below the chop
CHOP_SHARE e^{-K sigma/6} |||f|||_{sigma,rho}, and, before each bracket
{X, chi} is formed, the rows of X whose a-priori bounds on their share of
|||{X, chi}||| sum to no more than that chop (truncated multiplication, as
in Poisson-series processors).  The skipped rows of one bracket together
weigh no more than one chopped term; lie_transform gives the bound.  As in
those processors, the terms of a Lie series are accumulated and merged into
one result once, not re-sorted after every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault, PreconditionError
from .errors import require_at_least, require_positive
from .ftseries import TWO_PI, AnalyticityWidths, FourierTaylorSeries, _merge, split_linear

DIVISOR_FLOOR = 1e-12
# bracket growth between consecutive Lie-series orders taken as divergence
DIVERGENCE_FACTOR = 1e3
# share of the target remainder e^{-K sigma/6} |||f|||_{sigma,rho} below which
# a Lie-series term is dropped (and counted in the contraction)
CHOP_SHARE = 1e-3
# the theorem's constant xi > 1 in the entry bound alpha rho / (256 xi K)
XI = 2.0


@dataclass(frozen=True)
class NormalFormParams:
    """Non-resonance threshold alpha, cutoff K and analyticity widths."""

    alpha: float
    K: int
    widths: AnalyticityWidths

    def __post_init__(self):
        require_positive(alpha=self.alpha)
        require_at_least(1, K=self.K)
        if self.K * self.widths.sigma < 6.0:
            raise ValueError(
                f"K*sigma = {self.K * self.widths.sigma:.3f} violates K*sigma >= 6"
            )

    @property
    def smallness_threshold(self):
        return self.alpha * self.widths.rho / (256.0 * XI * self.K)

    @property
    def target_contraction(self):
        return math.exp(-self.K * self.widths.sigma / 6.0)


@dataclass(frozen=True)
class LieResult:
    series: FourierTaylorSeries
    tail_mass: float
    dropped_mass: float


@dataclass(frozen=True)
class NormalFormResult:
    h: FourierTaylorSeries
    f_star: FourierTaylorSeries
    contraction: float
    target_contraction: float
    action_shift_bound: float
    stop: str  # "certified", "stalled" or "capped"
    iterations: int
    f_initial_norm: float
    dropped_mass: float
    params: NormalFormParams

    @property
    def certified(self):
        return self.stop == "certified"


def solve_homological(f_nr, omega):
    """Solve omega . d_theta chi = f_nr mode-wise: chi_{k,m} = f_{k,m}/(2 pi i omega.k).

    The first term in (k, m) order with |omega.k| below DIVISOR_FLOOR raises:
    a PreconditionError if its k is 0, a NumericalFault otherwise.
    """
    w = np.asarray(omega, dtype=float)
    # np.vecdot rounds each row as np.dot(k, w) does; K @ w rounds some rows
    # differently (another fused multiply-add order)
    divisor = np.vecdot(f_nr.K, w)
    small = np.flatnonzero(np.abs(divisor) < DIVISOR_FLOOR)
    if len(small):
        i = small[0]
        k = tuple(f_nr.K[i].tolist())
        if not any(k):
            m = tuple(f_nr.M[i].tolist())
            raise PreconditionError(f"k=0 mode present at m={m}; remove the mean first")
        raise NumericalFault(
            f"small divisor |omega.k|={abs(divisor[i]):.3e} below floor {DIVISOR_FLOOR:.1e} "
            f"at k={k}"
        )
    # c / (i x) written out: numpy's complex division would round differently
    x = TWO_PI * divisor
    C = f_nr.C
    return FourierTaylorSeries._of(f_nr.d, f_nr.K, f_nr.M, C.imag / x - 1j * (C.real / x))


def _row_bound(chi, widths):
    """lie_transform's row bound against chi: bound(X, masses) maps the
    weighted masses |c_a| w_a of X's terms to their R_a, with V^m and V^k
    summed over chi once.  A bound that overflows is not finite."""
    chi_masses = chi.masses(widths.weight)
    with np.errstate(invalid="ignore"):
        v_m, v_k = chi_masses @ chi.M, chi_masses @ np.abs(chi.K)
    scale = TWO_PI / widths.rho

    def bound(X, masses):
        with np.errstate(over="ignore", invalid="ignore"):
            return scale * masses * (np.abs(X.K) @ v_m + X.M @ v_k)

    return bound


def _rows_to_form(bounds, budget):
    """Mask of the rows to form, and the summed bound of the others: the rows
    of smallest bound are left out while their running sum stays <= budget.
    A row whose bound is not finite is always formed."""
    finite = np.flatnonzero(np.isfinite(bounds))
    order = finite[np.argsort(bounds[finite])]
    running = np.cumsum(bounds[order])
    n = int(np.searchsorted(running, budget, side="right"))
    form = np.ones(len(bounds), dtype=bool)
    form[order[:n]] = False
    return form, float(running[n - 1]) if n else 0.0


def lie_transform(H, chi, order=6, widths=None, chop=0.0):
    """Truncated Lie series H o Psi = sum_{n<=order} ad_chi^n H / n!.

    Psi is the time-1 Hamiltonian flow of chi, so ad_chi H = {H, chi}.
    Term masses are measured with the weighted norm at `widths` when given
    (coefficient mass otherwise); terms below `chop` in that measure are
    dropped and reported, and a growth factor above DIVERGENCE_FACTOR
    between consecutive brackets aborts with a divergence error.

    With `chop > 0` and `widths`, each bracket {X, chi} is formed only from
    the rows of X that can matter.  Term a of X contributes at most

        R_a = (2 pi / rho) |c_a| w_a sum_i (|k_a,i| V^m_i + m_a,i V^k_i),

    with V^m_i = sum_b |c_b| w_b m_b,i and V^k_i = sum_b |c_b| w_b |k_b,i|
    over chi's terms b and w the weight rho^{|m|_1} e^{sigma |k|_1}, because
    w(k_a + k_b, m_a + m_b - e_i) <= w_a w_b / rho and
    |k_a,i m_b,i - m_a,i k_b,i| <= |k_a,i| m_b,i + m_a,i |k_b,i|.  The
    rows of smallest R_a are left out while their running sum stays <= chop,
    so together they weigh no more than one chopped term; a row whose
    bracket vanishes axis by axis has R_a = 0.  `dropped_mass` counts the
    chopped terms and the skipped rows' summed bounds, neither divided by
    n!, and the divergence test sees each bracket's mass plus its skipped
    sum.  A bracket with no row left is not formed, and the series stops
    there with tail 0, as when the chop removes a whole bracket.

    H and the kept brackets, each scaled by 1/n!, are merged once at the
    end; the merge sums each key's terms in that order, left to right, so
    the result has the bits of adding the orders one by one.
    """
    require_at_least(1, order=order)
    require_at_least(0, chop=chop)
    weight = widths.weight if widths is not None else None
    prune = chop > 0.0 and widths is not None
    if prune:
        bound = _row_bound(chi, widths)
        masses = H.masses(weight)

    parts = [(H.K, H.M, H.C)]
    bracket = H
    dropped = 0.0
    prev_mass = None
    tail = 0.0
    fact = 1.0
    for n in range(1, order + 1):
        skipped = 0.0
        if prune:
            form, skipped = _rows_to_form(bound(bracket, masses), chop)
            dropped += skipped
            if not form.all():
                bracket = bracket._rows(form)
        if bracket:
            bracket = bracket.poisson_bracket(chi)
        masses = bracket.masses(weight)
        if chop > 0.0:
            pruned = masses < chop
            dropped += float(masses[pruned].sum())
            kept = ~pruned
            masses = masses[kept]
            bracket = bracket._rows(kept)
        with np.errstate(over="ignore"):
            mass = float(masses.sum())
        grown = mass + skipped
        if prev_mass is not None and prev_mass > 0.0 and grown > DIVERGENCE_FACTOR * prev_mass:
            raise NumericalFault(
                f"bracket norm grew by {grown / prev_mass:.2e} at order {n}"
            )
        prev_mass = grown
        fact *= n
        if bracket:
            parts.append((bracket.K, bracket.M, bracket.C * (1.0 / fact)))
        tail = mass / fact
        if mass == 0.0:
            break
    # one merge of H and the scaled brackets, each key's terms summed in that
    # order: the bits of adding the orders one by one
    result = FourierTaylorSeries._of(H.d, *_merge(*parts)) if len(parts) > 1 else H
    return LieResult(series=result, tail_mass=tail, dropped_mass=dropped)


def _frequency(H, owner):
    """omega of split_linear(H, owner); an H with no linear part is refused by name."""
    omega = split_linear(H, owner)[0]
    if not omega.any():
        raise PreconditionError("series has no linear part omega.I")
    return omega


def resonant_normal_form(H, params):
    """Iterated averaging of H = omega.I + f: remove modes 0 < |k|_1 <= K
    until the remainder certificate contraction <= e^{-K sigma/6} holds.

    Each Lie step drops terms below CHOP_SHARE * e^{-K sigma/6} * |||f|||_{sigma,rho},
    and skips bracket rows whose bounds sum to no more than that, and counts
    both in the contraction (`dropped_mass`).  The loop stops, with the reason in
    `stop`, when the certificate holds ("certified"), when an iteration fails
    to lower the contraction ("stalled"), or after 2K iterations ("capped");
    only "certified" gives certified=True.

    Raises NumericalFault if split_linear's f is not real, PreconditionError if H
    has no linear part or if f fails |||f|||_{sigma,rho} <= alpha rho / (256 xi K).
    """
    omega = _frequency(H, "normal form")
    widths = params.widths
    inner = AnalyticityWidths(widths.sigma / 6.0, widths.rho / 2.0)
    K = params.K

    f0 = H.fourier_nonzero_part()
    f0_norm = f0.weighted_norm(widths)
    if f0_norm > params.smallness_threshold:
        raise PreconditionError(
            f"|||f|||_(sigma,rho) = {f0_norm:.6e} exceeds alpha*rho/(256*xi*K) = "
            f"{params.smallness_threshold:.6e}"
        )
    target = params.target_contraction
    chop = CHOP_SHARE * target * f0_norm

    current = H
    f_star = f0
    iterations = 0
    dropped = 0.0
    previous = math.inf
    while True:
        f_nr = f_star.select(lambda nk, nm, c: (nk > 0) & (nk <= K))
        star_norm = f_star.weighted_norm(inner) + dropped
        contraction = star_norm / f0_norm if f0_norm > 0.0 else 0.0
        # at least one averaging pass: the change of variables must actually
        # remove the sub-cutoff modes, not merely certify the domain shrink
        if contraction <= target and (iterations or not f_nr):
            stop = "certified"
            break
        if contraction >= previous:
            stop = "stalled"
            break
        if iterations >= 2 * K:
            stop = "capped"
            break
        previous = contraction
        chi = solve_homological(f_nr, omega)
        lie = lie_transform(current, chi, widths=widths, chop=chop)
        current = lie.series
        f_star = current.fourier_nonzero_part()
        dropped += lie.dropped_mass + lie.tail_mass
        iterations += 1

    return NormalFormResult(
        h=current.fourier_zero_part(),
        f_star=f_star,
        contraction=contraction,
        target_contraction=target,
        action_shift_bound=8.0 * K / params.alpha * f0_norm,
        stop=stop,
        iterations=iterations,
        f_initial_norm=f0_norm,
        dropped_mass=dropped,
        params=params,
    )

