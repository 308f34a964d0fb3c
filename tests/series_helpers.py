"""Series builders, exact derivatives, reference loops, the smoothing slope fit
and a call counter shared by several test files."""

import cmath
import math

import numpy as np

from torusstab import TWO_PI, FourierTaylorSeries, LieResult, NumericalFault, taylor_split
from torusstab import normalform
from torusstab.ftseries import _merge, split_linear
from torusstab.smoothing import sharp_cutoff
from torusstab.normalform import DIVERGENCE_FACTOR


def cosine(d, k, m=None, amplitude=1.0, phase=0.0):
    """amplitude * cos(2 pi k.theta + phase) * I^m, stored as a conjugate pair;
    at k = 0 it is the one real term amplitude * cos(phase) I^m."""
    m = (0,) * d if m is None else tuple(m)
    k = tuple(k)
    if not any(k):
        return FourierTaylorSeries(d, {(k, m): amplitude * math.cos(phase)})
    neg = tuple(-v for v in k)
    half = 0.5 * amplitude * cmath.exp(1j * phase)
    return FourierTaylorSeries(d, {(k, m): half, (neg, m): half.conjugate()})


def partial_theta(f, axis):
    """Exact d/d theta_axis of f: multiplies c_{k,m} by 2 pi i k_axis."""
    rows = f.K[:, axis] != 0
    K = f.K[rows]
    return FourierTaylorSeries._of(f.d, K, f.M[rows], f.C[rows] * (TWO_PI * 1j * K[:, axis]))


def partial_I(f, axis):
    """Exact d/d I_axis of f: shifts m_axis down with factor m_axis."""
    rows = f.M[:, axis] > 0
    M = f.M[rows]
    C = f.C[rows] * M[:, axis]
    M[:, axis] -= 1  # a uniform shift keeps the (k, m) order
    return FourierTaylorSeries._of(f.d, f.K[rows], M, C)


def worst_tail_slope_miss(H, hc, s_list=tuple(2.0**-j for j in range(2, 8))):
    """The largest |slope - (ell - p)| over p in {0, 1} and the Taylor indices m
    of P, the polynomial part of H's f that the pipeline smooths.  The slope
    is the least-squares fit of log(tail) against log s, where tail is the
    mass of the modes that sharp_cutoff drops from a_m at s, each weighted
    (2 pi |k|_1)^p."""
    P = taylor_split(split_linear(H, "smoothing check")[1], hc, 0.1).P
    worst = 0.0
    for m in np.unique(P.M, axis=0):
        a_m = P.select(lambda nk, nm, c: (P.M == m).all(axis=1))
        for p in (0, 1):
            tails = [sharp_cutoff(a_m, s)[1].mass(lambda nk, nm: (TWO_PI * nk) ** p)
                     for s in s_list]
            slope = np.polyfit(np.log(s_list), np.log(tails), 1)[0]
            worst = max(worst, abs(slope - (hc.ell - p)))
    return worst


def count_calls(monkeypatch, owner, name):
    """The first argument of each call of owner.name made from now on: the
    series whose value a computation stored on that series derives from."""
    calls = []
    original = getattr(owner, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def reference_masses(f, weight):
    """|c| weight(|k|_1, |m|_1) of every term by the general rule: a term
    whose weight is not finite gets inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = weight(*f._orders())
        return np.where(np.isfinite(w), np.abs(f.C) * w, math.inf)


def reference_rows_to_form(bounds, budget):
    """Rows to form by sorting the finite bounds and taking their running
    sum: the rows of smallest bound are left out while it stays <= budget."""
    finite = np.flatnonzero(np.isfinite(bounds))
    order = finite[np.argsort(bounds[finite])]
    with np.errstate(over="ignore"):
        running = np.cumsum(bounds[order])
    n = int(np.searchsorted(running, budget, side="right"))
    form = np.ones(len(bounds), dtype=bool)
    form[order[:n]] = False
    return form, float(running[n - 1]) if n else 0.0


def reference_lie_transform(H, chi, order=6, *, widths, chop,
                            rows_to_form=reference_rows_to_form, log=None):
    """lie_transform's series as a loop that runs every order in full: a
    bracket with no row to form is an empty bracket, whose masses, prune and
    row subset still run.  Row subsets are rebuilt from masked arrays and
    masses follow the general rule.  `log`, if given, gets (n, bounds) per
    order."""
    def rows(f, mask):
        return FourierTaylorSeries._of(f.d, f.K[mask], f.M[mask], f.C[mask])

    bound = normalform._row_bound(chi, widths)
    masses = reference_masses(H, widths.weight)
    parts = [(H.K, H.M, H.C)]
    bracket = H
    dropped = 0.0
    prev_mass = None
    tail = 0.0
    fact = 1.0
    for n in range(1, order + 1):
        bounds = bound(bracket, masses)
        if log is not None:
            log.append((n, bounds))
        form, skipped = rows_to_form(bounds, chop)
        dropped += skipped
        if not form.all():
            bracket = rows(bracket, form)
        if bracket:
            bracket = bracket.poisson_bracket(chi)
        masses = reference_masses(bracket, widths.weight)
        pruned = masses < chop
        dropped += float(masses[pruned].sum())
        kept = ~pruned
        masses = masses[kept]
        bracket = rows(bracket, kept)
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
    result = FourierTaylorSeries._of(H.d, *_merge(*parts)) if len(parts) > 1 else H
    return LieResult(series=result, tail_mass=tail, dropped_mass=dropped)
