"""Checks shared by several test files."""

import numpy as np
import pytest

from torusstab import HamiltonianVectorField


@pytest.fixture
def cutoff_gap():
    """sup |g - g_s| over the uniform n^d angle grid theta = j/n.

    The difference series is evaluated with the vector-field kernel's
    energy, batched over the grid.  Pointwise |g - g_s| <= the mass of the
    modes g_s lacks, so a sharp cutoff gives at most
    smooth(g, s).dropped_tail_mass here; a mode lost from both g_s and the
    tail shows as an excess.
    """

    def gap(g, g_s, n=64):
        axes = np.meshgrid(*(np.arange(n) / n,) * g.d, indexing="ij")
        theta = np.stack([a.ravel() for a in axes], axis=1)
        z = np.hstack([theta, np.zeros_like(theta)])
        values = HamiltonianVectorField(g - g_s).energy(z)
        return float(np.max(np.abs(values), initial=0.0))

    return gap
