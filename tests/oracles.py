"""Reference operators that the tests check lcsflow against.

The package never applies them, so they live here: the flat Hodge star
(for the adjointness and orientation checks of wedge, d and d*), the
harmonic modes of a constant Lee form read off |mu(m)|^2 on the whole
grid (for the closed form the Hodge solver uses instead), the vertex
gauge transform of a simplicial local system (for the gauge invariance
of the twisted Betti numbers) and the pullback of a form family by an
axis permutation plus a roll by whole grid nodes (for the symmetry of
the Moser pipeline under the isometries of the grid torus).
"""

import dataclasses
from fractions import Fraction
from math import comb

import numpy as np

from lcsflow.families import FormFamily
from lcsflow.forms import DiffForm, GridSpec, index_sets, merge_sign, product_table
from lcsflow.simplicial import LocalSystem
from lcsflow.twisted import HARMONIC_SNAP, LcsForm, LeeForm


def hodge_star(a: DiffForm) -> DiffForm:
    """Hodge star for the flat metric: star(dx_s) = sign(s, s^c) dx_{s^c}."""
    grid = a.grid
    k = a.degree
    comps = np.zeros((comb(grid.n, grid.n - k),) + grid.shape)
    for ia, ib, _, sign in product_table(grid.n, k, grid.n - k):
        comps[ib] = sign * a.comps[ia]
    return DiffForm(grid, grid.n - k, comps)


def harmonic_mask(grid: GridSpec, c) -> np.ndarray:
    """The modes m with mu(m) = 2 pi i m - c = 0, as a grid of booleans.

    |mu(m)|^2 is summed over the true modes m (the Nyquist bucket counts as
    the nonzero mode -N/2), with |c_j| <= HARMONIC_SNAP read as 0.
    """
    c = np.asarray(c, dtype=float)
    c = np.where(np.abs(c) <= HARMONIC_SNAP, 0.0, c)
    mu2 = np.zeros(grid.shape)
    for j in range(grid.n):
        mu = 2j * np.pi * grid.mode_axis(j) - c[j]
        mu2 = mu2 + np.abs(np.broadcast_to(mu, grid.shape)) ** 2
    return mu2 == 0.0


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


class GridIsometry:
    """psi(y) = P(y + roll / N) with (P z)_{perm[i]} = z_i: an axis
    permutation after a roll by whole grid nodes, acting on forms by
    pullback.

    psi^* dx_{perm[i]} = dy_i, so a component dx_S goes to the sorted
    index set of the dy_i with perm[i] in S, with the sign of that
    sorting.  An odd permutation reverses the orientation, and on T^2 and
    T^4 it flips the sign of the Pfaffian.
    """

    def __init__(self, perm, roll):
        self.perm = tuple(perm)
        self.roll = tuple(roll)
        self.inv = tuple(int(i) for i in np.argsort(self.perm))

    def field(self, f: np.ndarray) -> np.ndarray:
        """f o psi on the grid nodes."""
        g = np.transpose(f, self.perm)
        return np.roll(g, [-r for r in self.roll], axis=tuple(range(g.ndim)))

    def form(self, a: DiffForm) -> DiffForm:
        n = a.grid.n
        sets = index_sets(n, a.degree)
        comps = np.empty_like(a.comps)
        for s, c in zip(sets, a.comps):
            sign, image = merge_sign(tuple(self.inv[j] for j in s), ())
            comps[sets.index(image)] = sign * self.field(c)
        return DiffForm(a.grid, a.degree, comps)

    def lee(self, lee: LeeForm) -> LeeForm:
        return LeeForm(lee.grid, lee.harmonic[list(self.perm)],
                       self.field(lee.potential))

    def family(self, F: FormFamily) -> FormFamily:
        """psi^* of every sampler: omega_t with its Lee data, d omega/dt,
        the harmonic Lee coefficients and the exact primitive data."""
        ed = F.exact_data
        if ed is not None:
            ed = dataclasses.replace(
                ed, alpha_at=lambda t: self.form(F.exact_data.alpha_at(t)),
                h_at=lambda t: self.field(F.exact_data.h_at(t)),
                alpha_dot_at=lambda t: self.form(F.exact_data.alpha_dot_at(t)))

        def omega_at(t):
            L = F.omega_at(t)
            return LcsForm(self.form(L.omega), self.lee(L.lee))

        theta_h = None if F.theta_h is None else F.theta_h[list(self.perm)]
        return dataclasses.replace(
            F, omega_at=omega_at, derivative_at=lambda t: self.form(F.derivative_at(t)),
            exact_data=ed, theta_h=theta_h)
