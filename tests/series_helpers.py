"""Series builders, exact derivatives and a call counter shared by several test files."""

import cmath

from torusstab import TWO_PI, FourierTaylorSeries


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
