"""Reference operators that the tests check lcsflow against.

The package never applies them, so they live here: the flat Hodge star
(for the adjointness and orientation checks of wedge, d and d*), the
harmonic modes of a constant Lee form read off |mu(m)|^2 on the whole
grid (for the closed form the Hodge solver uses instead), the vertex
gauge transform of a simplicial local system (for the gauge invariance
of the twisted Betti numbers), the pullback of a form family by an
axis permutation plus a roll by whole grid nodes (for the symmetry of
the Moser pipeline under the isometries of the grid torus), the
closed-form isotopies of two built-in families (for the integrated flow
against its true value) and the stage interpolator built from full-grid
gradient channels (for the one StageData builds on its kept modes), and
the RK4 sweep written with all four stage outputs at once (for the
running sums integrate_isotopy forms, bit for bit).
"""

import dataclasses
from fractions import Fraction
from math import comb

import numpy as np

from lcsflow.families import FormFamily
from lcsflow.forms import (
    DiffForm,
    GridSpec,
    ModeInterpolator,
    index_sets,
    merge_sign,
    product_table,
    scalar_form,
)
from lcsflow.moser import INTERP_REL_TOL, FlowState
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


def contact_circle_flow(seeds: np.ndarray, t: float, s: float):
    """The theorem-path isotopy of contact_circle_family at time t.

    omega_t is omega_0 translated (u = 2 pi x1 + s t), and i_X omega for
    X = -(s / 2 pi) e1 is mean-free and d_theta-coclosed, so it is the
    Hodge primitive: phi_t(x) = x - (s t / 2 pi) e1, J = I, log factor 0.
    Returns (positions in [0, 1)^n, Jacobians, log factors) at the seeds.
    """
    pos = seeds.copy()
    pos[:, 0] -= s * t / (2.0 * np.pi)
    n = seeds.shape[1]
    jac = np.broadcast_to(np.eye(n), (len(seeds), n, n))
    return np.mod(pos, 1.0), jac, np.zeros(len(seeds))


def corollary_two_flow(seeds: np.ndarray, t: float, s: float, a: float):
    """The exact-path isotopy of corollary_two_family (c = 1) at time t.

    X = -(s / 2 pi) e1 - a sin(2 pi x2) e4 is constant along its own
    trajectories: phi_t(x) = x - (s t / 2 pi) e1 - t a sin(2 pi x2) e4,
    J = I - 2 pi t a cos(2 pi x2) e4 (x) e2, and the rate theta(X) + h =
    -a sin(2 pi x2) + a sin(2 pi x2) vanishes, so the log factor is 0.
    """
    pos, jac, logf = contact_circle_flow(seeds, t, s)
    x2 = seeds[:, 1]
    pos[:, 3] = np.mod(pos[:, 3] - t * a * np.sin(2.0 * np.pi * x2), 1.0)
    jac = jac.copy()
    jac[:, 3, 1] = -2.0 * np.pi * t * a * np.cos(2.0 * np.pi * x2)
    return pos, jac, logf


def full_grid_stage_interpolator(x_form: DiffForm, rate_values) -> ModeInterpolator:
    """The stage interpolator on n + n^2 + 1 full-grid channels.

    X, every product X^_i * derivative_multiplier(j) on the whole grid and
    the rate, stacked and handed to ModeInterpolator with no gradients of
    its own; the channel order is the one StageData.eval reads.
    """
    grid = x_form.grid
    n = grid.n
    xhat = x_form.spectra()
    grads = np.empty((n * n,) + grid.shape, dtype=complex)
    for i in range(n):
        for j in range(n):
            grads[i * n + j] = xhat[i] * grid.derivative_multiplier(j)
    rate = scalar_form(grid, rate_values).spectra()
    return ModeInterpolator(grid, np.concatenate((xhat, grads, rate)), INTERP_REL_TOL)


def four_output_isotopy(grid: GridSpec, fields, steps: int, record_times,
                        seeds: np.ndarray) -> FlowState:
    """The RK4 sweep of integrate_isotopy with its four stages held at once.

    k1 .. k4 of each step are all evaluated before (k1 + 2 k2 + 2 k3 + k4)
    is formed, so this is the closed sum that integrate_isotopy accumulates
    stage by stage; it has no CFL warning and no divergence check.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    rec_steps = {round(float(t) * steps) for t in record_times}
    pos = seeds.copy()
    jac = np.broadcast_to(np.eye(grid.n), (len(seeds), grid.n, grid.n)).copy()
    logf = np.zeros(len(seeds))
    h_int = np.zeros(grid.shape)
    dt = 1.0 / steps
    snapshots, max_speed = {}, 0.0
    if 0 in rec_steps:
        snapshots[0.0] = (np.mod(pos, 1.0), jac, logf, h_int)
    s3 = fields(0.0)
    for k in range(steps):
        s1 = s3
        s2 = fields((2 * k + 1) / (2.0 * steps))
        s3 = fields((k + 1) / steps)

        v1, d1, r1 = s1.eval(pos)
        max_speed = max(max_speed, float(np.max(np.abs(v1))), s1.max_speed)
        j1 = d1 @ jac

        v2, d2, r2 = s2.eval(pos + 0.5 * dt * v1)
        j2 = d2 @ (jac + 0.5 * dt * j1)

        v3, d3, r3 = s2.eval(pos + 0.5 * dt * v2)
        j3 = d3 @ (jac + 0.5 * dt * j2)

        v4, d4, r4 = s3.eval(pos + dt * v3)
        j4 = d4 @ (jac + dt * j3)

        pos = pos + (dt / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        jac = jac + (dt / 6.0) * (j1 + 2.0 * j2 + 2.0 * j3 + j4)
        logf = logf + (dt / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        h_int = h_int + (dt / 6.0) * (s1.h_values + 4.0 * s2.h_values + s3.h_values)
        if k + 1 in rec_steps:
            snapshots[(k + 1) / steps] = (np.mod(pos, 1.0), jac, logf, h_int)
    return FlowState(snapshots, max_speed)
