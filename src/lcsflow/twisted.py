"""Twisted exterior calculus and Hodge theory for locally conformally
symplectic (lcs) forms on flat tori.

Conventions.  The Lee form theta is a closed 1-form; the twisted
differential is

    d_theta b = d b - theta ^ b,

its formal L2 adjoint on the flat torus is d_theta* = d* - i_{theta#}, and
Delta_theta = d_theta d_theta* + d_theta* d_theta.  A nondegenerate 2-form
omega is lcs when d omega = theta ^ omega; rescaling omega -> f*omega moves
theta to theta + d ln f, which is the gauge freedom everything here is
organized around.  For constant theta the whole calculus diagonalizes over
Fourier modes m with multiplier mu_j(m) = 2*pi*i*m_j - c_j, and
Delta_theta acts as |mu(m)|^2 = sum_j (2 pi m_j)^2 + c_j^2, so the harmonic
forms are the constant ones (component_means) if c = 0, as snap_lee
decides, and there are none otherwise.
The metric is the flat one throughout; there is no metric parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .forms import (
    DegreeError,
    DiffForm,
    GridSpec,
    contract,
    contract_axes,
    ext_d,
    product_table,
    scalar_form,
    wedge,
    wedge_axes,
)


class DegenerateForm(ValueError):
    """2-form fails the pointwise nondegeneracy margin."""


class NotLcs(ValueError):
    """The pointwise Lee form is not closed."""


HARMONIC_SNAP = 1e-12  # |c_j| below this is treated as exactly zero
NONDEG_THRESHOLD = 1e-8  # least pointwise |Pfaffian| of a nondegenerate 2-form
LCS_TOL = 1e-8  # closedness gate ||d theta|| / max(||theta||, 1) of a Lee form


# -- Lee forms ------------------------------------------------------------


@dataclass
class LeeForm:
    """Closed 1-form split as harmonic constants + d(potential).

    harmonic: length-n array of constant coefficients (exact zeros are
    meaningful: they decide which Fourier modes are mu-harmonic).
    potential: mean-zero scalar grid field g with theta = harmonic + dg.
    """

    grid: GridSpec
    harmonic: np.ndarray
    potential: np.ndarray

    @classmethod
    def constant(cls, grid: GridSpec, coeffs) -> "LeeForm":
        c = np.zeros(grid.n)
        c[:] = np.asarray(coeffs, dtype=float)
        return cls(grid, c, np.zeros(grid.shape))

    @classmethod
    def zero(cls, grid: GridSpec) -> "LeeForm":
        return cls.constant(grid, np.zeros(grid.n))

    @property
    def is_constant(self) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.harmonic))))
        return float(np.max(np.abs(self.potential))) <= 1e-12 * scale

    def one_form(self) -> DiffForm:
        """theta = harmonic + d(potential) as a degree-1 form."""
        n = self.grid.n
        dg = ext_d(scalar_form(self.grid, self.potential))
        return DiffForm(self.grid, 1,
                        dg.comps + self.harmonic.reshape((n,) + (1,) * n))


def _as_theta(theta, grid: GridSpec):
    """Normalize a Lee-form argument to (constant_coeffs or None, 1-form)."""
    if isinstance(theta, LeeForm):
        if theta.grid != grid:
            raise ValueError("Lee form on a different grid")
        if theta.is_constant:
            return theta.harmonic, None
        return None, theta.one_form()
    if isinstance(theta, DiffForm):
        if theta.degree != 1:
            raise DegreeError("Lee form must have degree 1")
        return None, theta
    c = np.asarray(theta, dtype=float)
    if c.shape != (grid.n,):
        raise ValueError(f"constant Lee form needs {grid.n} coefficients")
    return c, None


# -- twisted differential and its adjoint --------------------------------


def d_theta(a: DiffForm, theta) -> DiffForm:
    """Twisted differential d_theta a = da - theta ^ a.

    A constant theta is applied exactly, pointwise; a field theta through
    the de-aliased wedge.
    """
    grid = a.grid
    c, one_form = _as_theta(theta, grid)
    da = ext_d(a)
    if one_form is None:
        return da - DiffForm(grid, a.degree + 1,
                             wedge_axes(c, a.comps, grid.n, a.degree))
    return da - wedge(one_form, a)


def codifferential(a: DiffForm) -> DiffForm:
    """Untwisted d*, spectral (exact adjoint of the discrete d)."""
    grid = a.grid
    if a.degree == 0:
        raise DegreeError("d* of a scalar field")
    mult = [np.conj(grid.derivative_multiplier(j)) for j in range(grid.n)]
    return DiffForm.from_spectra(grid, a.degree - 1,
                                 contract_axes(mult, a.spectra(), grid.n, a.degree))


def d_theta_star(a: DiffForm, theta) -> DiffForm:
    """Adjoint of d_theta: d_theta* = d* - i_{theta#}."""
    grid = a.grid
    c, one_form = _as_theta(theta, grid)
    da = codifferential(a)
    if one_form is None:
        return da - DiffForm(grid, a.degree - 1,
                             contract_axes(c, a.comps, grid.n, a.degree))
    return da - contract(one_form, a)


# -- splitting closed 1-forms --------------------------------------------


def component_means(a: DiffForm) -> np.ndarray:
    """Mean of each component: the harmonic projection of a when theta = 0."""
    return np.array([float(np.mean(comp)) for comp in a.comps])


def snap_lee(theta, grid: GridSpec) -> np.ndarray:
    """The n constant Lee coefficients, |c_j| <= HARMONIC_SNAP set to 0."""
    c = np.array(theta, dtype=float)
    if c.shape != (grid.n,):
        raise ValueError(f"need {grid.n} constant coefficients")
    c[np.abs(c) <= HARMONIC_SNAP] = 0.0
    return c


def _harmonic_and_potential(theta: DiffForm):
    """Snapped component means and the mean-zero g solving d*dg = d*theta."""
    grid = theta.grid
    c = snap_lee(component_means(theta), grid)
    mult = [grid.derivative_multiplier(j) for j in range(grid.n)]
    k2 = sum(np.abs(m) ** 2 for m in mult)
    g_spec = contract_axes([np.conj(m) for m in mult], theta.spectra(), grid.n, 1)
    g_spec[0][k2 > 0] /= k2[k2 > 0]
    g = DiffForm.from_spectra(grid, 0, g_spec).comps[0]
    return c, g - g.mean()


# -- Lee form extraction and lcs validation ------------------------------


def pfaffian_values(omega) -> np.ndarray:
    """Pointwise Pfaffian of a 2-form (n = 2 or 4).

    omega is a DiffForm or anything else with grid, degree and comps, such
    as a 2-form sampled at points.
    """
    grid = omega.grid
    if omega.degree != 2:
        raise DegreeError("Pfaffian of a non-2-form")
    if grid.n == 2:
        return omega.comps[0].copy()
    if grid.n == 4:
        c = omega.comps  # order: 01, 02, 03, 12, 13, 23
        return c[0] * c[5] - c[1] * c[4] + c[2] * c[3]
    raise DegenerateForm(f"no nondegenerate 2-forms on T^{grid.n} (odd dimension)")


def pfaffian_inverse(omega, nondeg_threshold: float):
    """Pointwise Omega^-1, Omega_ab = omega(e_a, e_b), as B / Pf.

    B is the dual antisymmetric matrix, Omega B = Pf * Id: the constant
    -dx_0 ^ dx_1 on T^2 and -*omega on T^4.  Returns the components
    (a < b) of Omega^-1, laid out like omega's, and the margin min |Pf|;
    raises DegenerateForm when the margin is below nondeg_threshold or NaN.
    """
    pf = pfaffian_values(omega)
    margin = float(np.min(np.abs(pf)))
    if not margin >= nondeg_threshold:
        raise DegenerateForm(
            f"Pfaffian margin {margin:.3e} below threshold {nondeg_threshold:.1e}"
        )
    if omega.grid.n == 2:
        return -1.0 / pf[None], margin
    inv = np.empty_like(omega.comps)
    for ia, ib, _, sign in product_table(4, 2, 2):
        inv[ib] = -sign * omega.comps[ia] / pf
    return inv, margin


def lee_form(omega: DiffForm, nondeg_threshold: float = NONDEG_THRESHOLD,
             lcs_tol: float = LCS_TOL):
    """Extract the Lee form of a nondegenerate 2-form.

    On T^4, theta ^ . : 1-forms -> 3-forms is invertible where Pf != 0
    (Lefschetz), so theta ^ omega = d omega has the pointwise solution
    theta_j = -1/2 sum_ab (Omega^-1)_ab (d omega)_abj, and the one lcs
    condition left is d theta = 0.  NotLcs is raised when ||d theta|| /
    max(||theta||, 1) exceeds lcs_tol: relative for a sizeable theta,
    absolute for the rounding-noise theta of a symplectic omega, which is
    why a theta with ||theta|| <= lcs_tol is returned as exactly zero.  On
    T^2 theta = 0 by convention.  Returns (LeeForm, diagnostics) with keys
    lcs_residual (the gated value) and nondeg_margin.  Raises
    DegenerateForm / NotLcs.
    """
    grid = omega.grid
    if omega.degree != 2:
        raise DegreeError("Lee form extraction expects a 2-form")
    inv, margin = pfaffian_inverse(omega, nondeg_threshold)
    theta = np.zeros((grid.n,) + grid.shape)
    if grid.n == 4:
        domega = ext_d(omega).comps
        for ab, j, abj, sign in product_table(4, 2, 1):
            theta[j] -= sign * inv[ab] * domega[abj]
    theta = DiffForm(grid, 1, theta)
    size = theta.norm()
    lcs_residual = ext_d(theta).norm() / max(size, 1.0)
    if lcs_residual > lcs_tol:
        raise NotLcs(
            f"d theta residual {lcs_residual:.3e} > {lcs_tol:.1e} at N = {grid.N}; "
            "an lcs form that is not band-limited at this N (such as e^g omega) "
            "fails too, so a finer grid may pass it"
        )
    diagnostics = {"lcs_residual": lcs_residual, "nondeg_margin": margin}
    if size <= lcs_tol:
        return LeeForm.zero(grid), diagnostics
    c, g = _harmonic_and_potential(theta)
    return LeeForm(grid, c, g), diagnostics


@dataclass
class LcsForm:
    """A validated lcs pair (omega, theta)."""

    omega: DiffForm
    lee: LeeForm

    @property
    def grid(self) -> GridSpec:
        return self.omega.grid


def validate_lcs(
    omega: DiffForm, nondeg_threshold: float = NONDEG_THRESHOLD,
    lcs_tol: float = LCS_TOL,
) -> LcsForm:
    """Extract and check the Lee form; package the certified pair."""
    lee, _ = lee_form(omega, nondeg_threshold=nondeg_threshold, lcs_tol=lcs_tol)
    return LcsForm(omega, lee)


# -- per-mode Hodge solver (constant Lee form) ---------------------------


class _ModeOps:
    """Per-mode multipliers mu(m) = 2*pi*i*m - c and 1 / |mu|^2, set to 0
    where mu(m) = 0: at m = 0 if c = 0 (then harmonic is True), else nowhere."""

    def __init__(self, grid: GridSpec, c: np.ndarray):
        # true modes here: the Nyquist bucket is a genuine nonzero mode for
        # the harmonic test mu(m) = 0, unlike in the (real-symmetric) d
        self.mu = [2j * np.pi * grid.mode_axis(j) - c[j] for j in range(grid.n)]
        self.mubar = [np.conj(m) for m in self.mu]
        self.harmonic = not c.any()
        mu2 = sum(np.abs(m) ** 2 for m in self.mu)
        if self.harmonic:
            mu2[(0,) * grid.n] = np.inf
        self.inv = 1.0 / mu2


def _spec_norm(spec: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(np.sum(np.abs(spec) ** 2))) / grid.num_nodes


@dataclass
class HodgeSolveResult:
    """Primitive alpha with d_theta alpha ~ target, plus residual data."""

    primitive: DiffForm
    residual: float
    harmonic_part_norm: float


def hodge_decompose(a: DiffForm, theta) -> tuple[DiffForm, DiffForm, DiffForm]:
    """Orthogonal splitting a = harmonic + d_theta(exact) + d_theta*(coexact).

    Constant Lee forms only; the three summands are returned as forms of
    the same degree as a (the middle one lies in im d_theta, the last in
    im d_theta*).
    """
    grid = a.grid
    ops = _ModeOps(grid, snap_lee(theta, grid))
    spec = a.spectra()
    n, k = grid.n, a.degree
    zero = (slice(None),) + (0,) * n
    harmonic = np.zeros_like(spec)
    harmonic[zero] = spec[zero] * ops.harmonic
    exact = coexact = np.zeros_like(spec)
    if k > 0:
        exact = wedge_axes(ops.mu, contract_axes(ops.mubar, spec, n, k) * ops.inv, n, k - 1)
    if k < n:
        coexact = contract_axes(ops.mubar, wedge_axes(ops.mu, spec, n, k) * ops.inv, n, k + 1)
    return (
        DiffForm.from_spectra(grid, k, harmonic),
        DiffForm.from_spectra(grid, k, exact),
        DiffForm.from_spectra(grid, k, coexact),
    )


def solve_primitive(target: DiffForm, theta) -> HodgeSolveResult:
    """Unique primitive alpha in im d_theta* with d_theta alpha = target.

    Per Fourier mode: alpha^(m) = i_{conj mu(m)} target^(m) / |mu(m)|^2,
    zero on harmonic modes.  residual is ||d_theta alpha - target|| /
    ||target|| and harmonic_part_norm is the (absolute) norm of the
    harmonic component, i.e. the obstruction to exactness.
    """
    grid = target.grid
    if target.degree == 0:
        raise DegreeError("a 0-form has no primitive")
    ops = _ModeOps(grid, snap_lee(theta, grid))
    k = target.degree
    t_spec = target.spectra()
    alpha_spec = contract_axes(ops.mubar, t_spec, grid.n, k) * ops.inv
    alpha = DiffForm.from_spectra(grid, k - 1, alpha_spec)
    recon = wedge_axes(ops.mu, alpha_spec, grid.n, k - 1)
    residual = _spec_norm(recon - t_spec, grid) / max(_spec_norm(t_spec, grid), 1e-300)
    harm = _spec_norm(t_spec[(slice(None),) + (0,) * grid.n], grid) * ops.harmonic
    return HodgeSolveResult(alpha, residual, harm)


def torus_twisted_betti(theta, grid: GridSpec) -> tuple[int, ...]:
    """Twisted Betti numbers of T^n for a constant Lee form.

    Per Fourier mode the twisted complex is a Koszul complex, acyclic
    unless mu(m) = 0, which happens only at m = 0 with theta = 0 (snapped):
    b_k = C(n, k) then, and any nonzero constant Lee form kills all of it.
    """
    h = int(not snap_lee(theta, grid).any())
    return tuple(comb(grid.n, k) * h for k in range(grid.n + 1))
