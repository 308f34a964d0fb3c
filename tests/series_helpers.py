"""Series builders shared by several test files."""

import cmath

from torusstab import FourierTaylorSeries


def cosine(d, k, m=None, amplitude=1.0, phase=0.0):
    """amplitude * cos(2 pi k.theta + phase) * I^m, stored as a conjugate pair."""
    m = (0,) * d if m is None else tuple(m)
    k = tuple(k)
    neg = tuple(-v for v in k)
    half = 0.5 * amplitude * cmath.exp(1j * phase)
    return FourierTaylorSeries(d, {(k, m): half, (neg, m): half.conjugate()})
