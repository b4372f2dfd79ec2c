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

from .errors import DomainError
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


class DegenerateForm(DomainError, ValueError):
    """2-form fails the pointwise nondegeneracy margin."""


class NotLcs(DomainError, ValueError):
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
    potential: mean-zero scalar grid field g with theta = harmonic + dg;
    all zeros exactly when theta is constant (lee_form snaps it).
    """

    grid: GridSpec
    harmonic: np.ndarray
    potential: np.ndarray

    @classmethod
    def constant(cls, grid: GridSpec, coeffs) -> "LeeForm":
        c = np.zeros(grid.n)
        c[:] = np.asarray(coeffs, dtype=float)
        # a read-only zero potential that holds no N^n array
        return cls(grid, c, np.broadcast_to(0.0, grid.shape))

    @classmethod
    def zero(cls, grid: GridSpec) -> "LeeForm":
        return cls.constant(grid, np.zeros(grid.n))

    def one_form(self) -> DiffForm:
        """theta = harmonic + d(potential) as a degree-1 form that owns its
        data: a later write to harmonic does not reach it."""
        n, shape = self.grid.n, self.grid.shape
        theta = np.broadcast_to(self.harmonic.reshape((n,) + (1,) * n).copy(), (n,) + shape)
        if self.potential.any():
            theta = theta + ext_d(scalar_form(self.grid, self.potential)).comps
        return DiffForm(self.grid, 1, theta)


def _as_theta(theta, grid: GridSpec):
    """Normalize a Lee-form argument to (constant_coeffs or None, 1-form)."""
    if isinstance(theta, LeeForm):
        if theta.grid != grid:
            raise ValueError("Lee form on a different grid")
        if not theta.potential.any():
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


def snap_lee(theta, n: int) -> np.ndarray:
    """The n constant Lee coefficients, |c_j| <= HARMONIC_SNAP set to 0.

    A non-finite coefficient is refused: it is neither zero nor a Lee form.
    """
    c = np.array(theta, dtype=float)
    if c.shape != (n,):
        raise ValueError(f"need {n} constant coefficients")
    if not np.isfinite(c).all():
        raise ValueError(f"non-finite constant Lee coefficients {c.tolist()}")
    c[np.abs(c) <= HARMONIC_SNAP] = 0.0
    return c


def _harmonic_and_potential(theta: DiffForm):
    """Snapped component means and the mean-zero g solving d*dg = d*theta."""
    grid = theta.grid
    c = snap_lee(component_means(theta), grid.n)
    mult = [grid.derivative_multiplier(j) for j in range(grid.n)]
    k2 = sum(np.abs(m) ** 2 for m in mult)
    g_spec = contract_axes([np.conj(m) for m in mult], theta.spectra(), grid.n, 1)
    g_spec[0][k2 > 0] /= k2[k2 > 0]
    g = DiffForm.from_spectra(grid, 0, g_spec).comps[0]
    return c, g - g.mean()


# -- Lee form extraction, the one lcs check ------------------------------


def pfaffian_values(comps: np.ndarray) -> np.ndarray:
    """Pointwise Pfaffian of a 2-form on T^2 or T^4 from its component stack.

    comps holds the index_sets(n, 2) components (1 on T^2, 6 on T^4), on
    a grid or at sample points; the caller checks the degree.
    """
    if len(comps) == 1:
        return comps[0].copy()
    if len(comps) == 6:
        # omega ^ omega = 2 Pf dx_0123: each pair a < b once
        return sum(s * comps[a] * comps[b] for a, b, _, s in product_table(4, 2, 2) if a < b)
    raise DegenerateForm(f"no Pfaffian of {len(comps)} 2-form components: "
                         "nondegenerate 2-forms live on T^2 and T^4 only")


def pfaffian_inverse(comps: np.ndarray) -> np.ndarray:
    """Pointwise Omega^-1, Omega_ab = omega(e_a, e_b), as B / Pf.

    comps is a 2-form's component stack, as for pfaffian_values.  B is the
    dual antisymmetric matrix, Omega B = Pf * Id: the constant
    -dx_0 ^ dx_1 on T^2 and -*omega on T^4.  Returns the components
    (a < b) of Omega^-1, laid out like comps; raises DegenerateForm when
    the margin min |Pf| is below NONDEG_THRESHOLD or NaN.
    """
    pf = pfaffian_values(comps)
    margin = float(np.min(np.abs(pf)))
    if not margin >= NONDEG_THRESHOLD:
        raise DegenerateForm(f"Pfaffian margin {margin:.3e} below threshold "
                             f"{NONDEG_THRESHOLD:.1e}")
    if len(comps) == 1:
        return -1.0 / pf[None]
    inv = np.empty_like(comps)
    for ia, ib, _, sign in product_table(4, 2, 2):
        inv[ib] = -sign * comps[ia] / pf
    return inv


def lee_form(omega: DiffForm) -> LeeForm:
    """Check that a nondegenerate 2-form is lcs and return its Lee form.

    On T^4, theta ^ . : 1-forms -> 3-forms is invertible where Pf != 0
    (Lefschetz), so theta ^ omega = d omega has the pointwise solution
    theta_j = -1/2 sum_ab (Omega^-1)_ab (d omega)_abj, and the one lcs
    condition left is d theta = 0.  NotLcs is raised when ||d theta|| /
    max(||theta||, 1) exceeds LCS_TOL: relative for a sizeable theta,
    absolute for the rounding-noise theta of a symplectic omega, which is
    why a theta with ||theta|| <= LCS_TOL is returned as exactly zero, as
    is a potential with max |g| <= HARMONIC_SNAP * max(1, max |c|).  On
    T^2 theta = 0 by convention.  Raises DegenerateForm (Pfaffian margin
    below NONDEG_THRESHOLD) / NotLcs.
    """
    grid = omega.grid
    if omega.degree != 2:
        raise DegreeError("Lee form extraction expects a 2-form")
    inv = pfaffian_inverse(omega.comps)
    if grid.n == 2:
        return LeeForm.zero(grid)
    theta = np.zeros((grid.n,) + grid.shape)
    domega = ext_d(omega).comps
    for ab, j, abj, sign in product_table(4, 2, 1):
        theta[j] -= sign * inv[ab] * domega[abj]
    theta = DiffForm(grid, 1, theta)
    size = theta.norm()
    lcs_residual = ext_d(theta).norm() / max(size, 1.0)
    if not lcs_residual <= LCS_TOL:
        raise NotLcs(
            f"d theta residual {lcs_residual:.3e} > {LCS_TOL:.1e} at N = {grid.N}; "
            "an lcs form that is not band-limited at this N (such as e^g omega) "
            "fails too, so a finer grid may pass it"
        )
    if size <= LCS_TOL:
        return LeeForm.zero(grid)
    c, g = _harmonic_and_potential(theta)
    if np.max(np.abs(g)) <= HARMONIC_SNAP * max(1.0, float(np.max(np.abs(c)))):
        g[:] = 0.0
    return LeeForm(grid, c, g)


@dataclass
class LcsForm:
    """An lcs pair (omega, theta)."""

    omega: DiffForm
    lee: LeeForm


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


def _spec_norm(spec: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(spec) ** 2)))


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
    ops = _ModeOps(grid, snap_lee(theta, grid.n))
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
    ops = _ModeOps(grid, snap_lee(theta, grid.n))
    k = target.degree
    t_spec = target.spectra()
    alpha_spec = contract_axes(ops.mubar, t_spec, grid.n, k) * ops.inv
    alpha = DiffForm.from_spectra(grid, k - 1, alpha_spec)
    recon = wedge_axes(ops.mu, alpha_spec, grid.n, k - 1)
    residual = _spec_norm(recon - t_spec) / max(_spec_norm(t_spec), 1e-300)
    harm = _spec_norm(t_spec[(slice(None),) + (0,) * grid.n]) * ops.harmonic
    return HodgeSolveResult(alpha, residual, harm)


def torus_twisted_betti(theta) -> tuple[int, ...]:
    """Twisted Betti numbers of T^n, n = len(theta) in 2..4, for a constant Lee form.

    Per Fourier mode the twisted complex is a Koszul complex, acyclic
    unless mu(m) = 0, which happens only at m = 0 with theta = 0 (snapped):
    b_k = C(n, k) then, and any nonzero constant Lee form kills all of it.
    """
    n = np.size(theta)
    if not 2 <= n <= 4:
        raise ValueError(f"need 2 to 4 constant Lee coefficients, got {n}")
    h = int(not snap_lee(theta, n).any())
    return tuple(comb(n, k) * h for k in range(n + 1))
