"""Reference operators that the tests check lcsflow against.

The package never applies them, so they live here: the flat Hodge star
(for the adjointness and orientation checks of wedge, d and d*) and the
vertex gauge transform of a simplicial local system (for the gauge
invariance of the twisted Betti numbers).
"""

from fractions import Fraction
from math import comb

import numpy as np

from lcsflow.forms import DiffForm, product_table
from lcsflow.simplicial import LocalSystem


def hodge_star(a: DiffForm) -> DiffForm:
    """Hodge star for the flat metric: star(dx_s) = sign(s, s^c) dx_{s^c}."""
    grid = a.grid
    k = a.degree
    comps = np.zeros((comb(grid.n, grid.n - k),) + grid.shape)
    for ia, ib, _, sign in product_table(grid.n, k, grid.n - k):
        comps[ib] = sign * a.comps[ia]
    return DiffForm(grid, grid.n - k, comps)


def gauge_transform(system: LocalSystem, potential: dict[int, Fraction]) -> LocalSystem:
    """Rescale by a vertex potential: w'(a,b) = w(a,b) * p(b)/p(a)."""
    for v, p in potential.items():
        if p <= 0:
            raise ValueError(f"potential must be positive, got {p} at vertex {v}")
    new = {
        (a, b): w * potential.get(b, Fraction(1)) / potential.get(a, Fraction(1))
        for (a, b), w in system.weights.items()
    }
    return LocalSystem(system.complex, new)
