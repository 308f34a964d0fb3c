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
from .errors import require_at_least, require_dimension, require_positive
from .ftseries import TWO_PI, AnalyticityWidths, FourierTaylorSeries, _merge

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
    small = (np.abs(divisor) < DIVISOR_FLOOR).nonzero()[0]
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
    A row whose bound is not finite is always formed.  When the running sum
    over every row stays <= budget, no row is formed (decided from that same
    sum, so a tie at the budget falls as in any other cut), and lie_transform
    ends the series at that order, its skipped sum counted."""
    finite = np.isfinite(bounds).nonzero()[0]
    order = finite[bounds[finite].argsort()]
    running = bounds[order].cumsum()
    n = int(running.searchsorted(budget, side="right"))
    form = np.empty(len(bounds), dtype=bool)
    form.fill(True)
    form[order[:n]] = False
    return form, float(running[n - 1]) if n else 0.0


def lie_transform(H, chi, order=6, *, widths, chop):
    """Truncated Lie series H o Psi = sum_{n<=order} ad_chi^n H / n!.

    Psi is the time-1 Hamiltonian flow of chi, so ad_chi H = {H, chi}.
    Every mass is a term's share |c_a| w_a of the weighted norm at `widths`,
    w being the weight rho^{|m|_1} e^{sigma |k|_1}; bracket terms below `chop`
    are dropped and reported, and a growth factor above DIVERGENCE_FACTOR
    between consecutive brackets aborts with a divergence error.  Widths
    (1e-9, 1) weigh a term at e^{1e-9 |k|_1}, about 1, and chop 0 drops no
    term: the plain series.

    Each bracket {X, chi} is formed only from the rows of X that can matter.
    Term a of X contributes at most

        R_a = (2 pi / rho) |c_a| w_a sum_i (|k_a,i| V^m_i + m_a,i V^k_i),

    with V^m_i = sum_b |c_b| w_b m_b,i and V^k_i = sum_b |c_b| w_b |k_b,i|
    over chi's terms b, because w(k_a + k_b, m_a + m_b - e_i) <= w_a w_b / rho
    and |k_a,i m_b,i - m_a,i k_b,i| <= |k_a,i| m_b,i + m_a,i |k_b,i|.  The
    rows of smallest R_a are left out while their running sum stays <= chop,
    so together they weigh no more than one chopped term; a row whose
    bracket vanishes axis by axis has R_a = 0, and at chop 0 only such rows
    are left out.  `dropped_mass` counts the chopped terms and the skipped
    rows' summed bounds, neither divided by n!, and the divergence test sees
    each bracket's mass plus its skipped sum.  The series ends at the first
    order that forms no row, with tail 0, as when the chop removes a whole
    bracket; that order's skipped sum is still counted in `dropped_mass` and
    seen by the divergence test.

    H and the kept brackets, each scaled by 1/n!, are merged once at the
    end; the merge sums each key's terms in that order, left to right, so
    the result has the bits of adding the orders one by one.
    """
    require_at_least(1, order=order)
    require_at_least(0, chop=chop)
    bound = _row_bound(chi, widths)
    masses = H.masses(widths.weight)

    parts = [(H.K, H.M, H.C)]
    bracket = H
    dropped = 0.0
    prev_mass = None
    tail = 0.0
    fact = 1.0
    for n in range(1, order + 1):
        form, skipped = _rows_to_form(bound(bracket, masses), chop)
        dropped += skipped
        fact *= n
        mass = 0.0
        # a bracket with no row to form ends the series, as one whose terms
        # are all chopped does
        if form.any():
            if not form.all():
                bracket = bracket._rows(form)
            bracket = bracket.poisson_bracket(chi)
            masses = bracket.masses(widths.weight)
            pruned = masses < chop
            if pruned.any():
                dropped += float(masses[pruned].sum())
                kept = ~pruned
                masses = masses[kept]
                bracket = bracket._rows(kept)
            if bracket:
                parts.append((bracket.K, bracket.M, bracket.C * (1.0 / fact)))
                with np.errstate(over="ignore"):
                    mass = float(masses.sum())
        grown = mass + skipped
        if prev_mass is not None and prev_mass > 0.0 and grown > DIVERGENCE_FACTOR * prev_mass:
            raise NumericalFault(
                f"bracket norm grew by {grown / prev_mass:.2e} at order {n}"
            )
        prev_mass = grown
        tail = mass / fact
        if mass == 0.0:
            break
    # one merge of H and the scaled brackets, each key's terms summed in that
    # order: the bits of adding the orders one by one
    result = FourierTaylorSeries._of(H.d, *_merge(*parts)) if len(parts) > 1 else H
    return LieResult(series=result, tail_mass=tail, dropped_mass=dropped)


def resonant_normal_form(omega, f, params):
    """Iterated averaging of omega.I + f, split_linear's split of an H, whose
    check of f's reality it trusts: remove modes 0 < |k|_1 <= K until the
    remainder certificate contraction <= e^{-K sigma/6} holds.

    Each Lie step drops terms below CHOP_SHARE * e^{-K sigma/6} * |||f|||_{sigma,rho},
    and skips bracket rows whose bounds sum to no more than that, and counts
    both in the contraction (`dropped_mass`).  The loop stops, with the reason in
    `stop`, when the certificate holds ("certified"), when an iteration fails
    to lower the contraction ("stalled"), or after 2K iterations ("capped");
    only "certified" gives certified=True.

    Raises PreconditionError if omega is 0, if f's d is not omega's, or if
    f fails |||f|||_{sigma,rho} <= alpha rho / (256 xi K).
    """
    if not any(omega):
        raise PreconditionError("series has no linear part omega.I")
    require_dimension(f, len(omega), "frequency")
    widths = params.widths
    inner = AnalyticityWidths(widths.sigma / 6.0, widths.rho / 2.0)
    K = params.K

    f0 = f.fourier_nonzero_part()
    f0_norm = f0.weighted_norm(widths)
    if f0_norm > params.smallness_threshold:
        raise PreconditionError(
            f"|||f|||_(sigma,rho) = {f0_norm:.6e} exceeds alpha*rho/(256*xi*K) = "
            f"{params.smallness_threshold:.6e}"
        )
    target = params.target_contraction
    chop = CHOP_SHARE * target * f0_norm

    current = FourierTaylorSeries.linear(omega) + f
    f_star = f0
    iterations = 0
    dropped = 0.0
    previous = math.inf

    def sub_cutoff(series):
        """The modes 0 < |k|_1 <= K of a series, which averaging removes."""
        return series.select(lambda nk, nm, c: (nk > 0) & (nk <= K))

    while True:
        star_norm = f_star.weighted_norm(inner) + dropped
        contraction = star_norm / f0_norm if f0_norm > 0.0 else 0.0
        # at least one averaging pass: the change of variables must actually
        # remove the sub-cutoff modes, not merely certify the domain shrink
        if contraction <= target and (iterations or not sub_cutoff(f_star)):
            stop = "certified"
            break
        if contraction >= previous:
            stop = "stalled"
            break
        if iterations >= 2 * K:
            stop = "capped"
            break
        previous = contraction
        chi = solve_homological(sub_cutoff(f_star), omega)
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

