"""Series builders, exact derivatives, reference loops and a call counter shared by
several test files."""

import cmath
import math

import numpy as np

from torusstab import TWO_PI, FourierTaylorSeries, LieResult, NumericalFault
from torusstab import normalform
from torusstab.ftseries import _merge
from torusstab.normalform import DIVERGENCE_FACTOR


def cosine(d, k, m=None, amplitude=1.0, phase=0.0):
    """amplitude * cos(2 pi k.theta + phase) * I^m, stored as a conjugate pair."""
    m = (0,) * d if m is None else tuple(m)
    k = tuple(k)
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
