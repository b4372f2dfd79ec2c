"""Time-dependent lcs form families on flat tori.

A family is a pair of samplers on t in [0, 1]: omega_at(t) returning an
lcs pair, and derivative_at(t) returning the 2-form time derivative
(analytic for the built-in generators, high-order finite differences for
tabulated data, whose samples are validated once, when it is built).
Families built from a twisted primitive also carry that primitive so the
exact-family pipeline can skip the Hodge solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import DiffForm, GridSpec, form_from_components
from .twisted import LcsForm, LeeForm, lee_form

TWO_PI = 2.0 * np.pi


@dataclass
class ExactData:
    """Twisted primitive data: omega_t = d alpha_t - theta_t ^ alpha_t.

    h_at returns the scalar field with d/dt theta_t = d h_t and
    alpha_dot_at the form d/dt alpha_t.
    """

    alpha_at: Callable[[float], DiffForm]
    h_at: Callable[[float], np.ndarray]
    alpha_dot_at: Callable[[float], DiffForm]


@dataclass
class FormFamily:
    """Samplers for a one-parameter lcs family on a fixed grid.

    theta_h, the constant harmonic Lee covector, is set by
    moser.normalize_family only: it marks a normalized family.
    """

    grid: GridSpec
    omega_at: Callable[[float], LcsForm]
    derivative_at: Callable[[float], DiffForm]
    times: np.ndarray
    exact_data: ExactData | None = None
    theta_h: np.ndarray | None = None
    label: str = ""


# -- finite differences in t ---------------------------------------------

_CENTERED_5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FORWARD_5 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
# 4th-order d/dt weights at node k of a 5-node window, k = 0..4
_OFFSET_5 = [
    _FORWARD_5,
    np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0,
    _CENTERED_5,
    np.array([-1.0, 6.0, -18.0, 10.0, 3.0]) / 12.0,
    -_FORWARD_5[::-1],
]


def fd_weights(t: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """4th-order five-point stencil around t, one-sided near [0, 1] ends."""
    if t - 2 * h >= 0.0 and t + 2 * h <= 1.0:
        return t + h * np.arange(-2, 3), _CENTERED_5 / h
    if t + 4 * h <= 1.0:
        return t + h * np.arange(5), _FORWARD_5 / h
    return t - h * np.arange(5), -_FORWARD_5 / h


def fd_derivative(sampler: Callable[[float], DiffForm], t: float, h: float) -> DiffForm:
    nodes, w = fd_weights(t, h)
    out = None
    for tn, wn in zip(nodes, w):
        if wn == 0.0:
            continue
        term = sampler(float(tn)) * float(wn)
        out = term if out is None else out + term
    return out


# -- built-in generators --------------------------------------------------


def _coframe_form(grid: GridSpec, u: np.ndarray, c: float,
                  twist: np.ndarray | None = None) -> DiffForm:
    """d alpha - c dx4 ^ alpha for the coframe alpha = cos(u) dx2 + sin(u) dx3,
    u a function of x1, plus an optional dx2 ^ dx3 component twist.

    With du = 2 pi dx1 the Pfaffian is the constant -2 pi c.
    """
    cu, su = np.cos(u), np.sin(u)
    comps = {(0, 1): -TWO_PI * su, (0, 2): TWO_PI * cu,
             (1, 3): c * cu, (2, 3): c * su}
    if twist is not None:
        comps[(1, 2)] = twist
    return form_from_components(grid, 2, comps)


def _rotating_coframe_family(grid: GridSpec, s: float, c: float, a: float,
                             n_times: int, label: str) -> FormFamily:
    """omega_t = d alpha_t - theta_t ^ alpha_t with alpha_t the coframe at
    u = 2 pi x1 + s t and theta_t = c dx4 + t a d(sin 2 pi x2).

    a = 0 skips every a-term: the Lee form is then the constant c dx4.
    """
    if c == 0.0:
        raise ValueError("c = 0 degenerates the family")
    x1, x2 = grid.coordinates()[:2]
    harmonic = np.array([0.0, 0.0, 0.0, c])
    lee = LeeForm.constant(grid, harmonic)
    if a:
        sin2, cos2 = np.sin(TWO_PI * x2), np.cos(TWO_PI * x2)

    def lee_at(t: float) -> LeeForm:
        return LeeForm(grid, harmonic.copy(), t * a * sin2) if a else lee

    def h_at(t: float) -> np.ndarray:
        return a * sin2 if a else np.zeros(grid.shape)

    def omega_at(t: float) -> LcsForm:
        u = TWO_PI * x1 + s * t
        twist = -TWO_PI * a * t * cos2 * np.sin(u) if a else None
        return LcsForm(_coframe_form(grid, u, c, twist), lee_at(t))

    def derivative_at(t: float) -> DiffForm:
        u = TWO_PI * x1 + s * t
        cu, su = np.cos(u), np.sin(u)
        comps = {(0, 1): -TWO_PI * s * cu, (0, 2): -TWO_PI * s * su,
                 (1, 3): -c * s * su, (2, 3): c * s * cu}
        if a:
            comps[(1, 2)] = -TWO_PI * a * cos2 * (su + t * s * cu)
        return form_from_components(grid, 2, comps)

    def alpha_at(t: float) -> DiffForm:
        u = TWO_PI * x1 + s * t
        return form_from_components(grid, 1, {(1,): np.cos(u), (2,): np.sin(u)})

    def alpha_dot_at(t: float) -> DiffForm:
        u = TWO_PI * x1 + s * t
        return form_from_components(grid, 1, {(1,): -s * np.sin(u), (2,): s * np.cos(u)})

    return FormFamily(grid, omega_at, derivative_at, np.linspace(0, 1, n_times),
                      exact_data=ExactData(alpha_at, h_at, alpha_dot_at), label=label)


def contact_circle_family(
    grid: GridSpec,
    s: float = np.pi / 4.0,
    c: float = 1.0,
    n_times: int = 11,
) -> FormFamily:
    """Rotating contactization on T^4 with fixed constant Lee form c dx4.

    omega_t twists the plane of a rotating coframe: the primitive
    alpha_t = cos(u) dx2 + sin(u) dx3 with u = 2 pi x1 + s t satisfies
    omega_t = d alpha_t - theta ^ alpha_t, and the Pfaffian is the
    constant -2 pi c, so every sample is uniformly nondegenerate.
    """
    return _rotating_coframe_family(grid, s, c, 0.0, n_times, "contact_circle")


def corollary_two_family(
    grid: GridSpec,
    s: float = np.pi / 4.0,
    c: float = 1.0,
    a: float = 0.3,
    n_times: int = 11,
) -> FormFamily:
    """Contact-type family whose Lee form drifts by an exact term.

    theta_t = c dx4 + t a d(sin 2 pi x2), so d/dt theta_t = d h with
    h = a sin(2 pi x2); the harmonic part stays fixed while the primitive
    alpha_t is the same rotating coframe as contact_circle_family.
    """
    return _rotating_coframe_family(grid, s, c, a, n_times, "corollary_two")


def area_interpolation_family(
    grid: GridSpec,
    eps: float = 0.1,
    sigma: float = 0.0,
    n_times: int = 11,
) -> FormFamily:
    """Area-form interpolation on T^2 (the classical symplectic case).

    omega_t = (1 + sigma t)(1 + t eps bump) dx1 ^ dx2 with a mean-free
    product-of-sines bump, which keeps the t-derivative mean-free for
    sigma = 0; sigma != 0 additionally scales total area and is only
    certifiable through the spatially constant gauge family.
    """
    x1, x2 = grid.coordinates()
    bump = np.sin(TWO_PI * x1) * np.sin(TWO_PI * x2)
    bump = bump - float(np.mean(bump))
    if abs(eps) * np.max(np.abs(bump)) >= 1.0:
        raise ValueError("eps too large: interpolation leaves the positive cone")
    if sigma <= -1.0:
        raise ValueError("sigma <= -1 collapses the area")
    lee = LeeForm.zero(grid)

    def omega_at(t: float) -> LcsForm:
        vals = (1.0 + sigma * t) * (1.0 + t * eps * bump)
        w = form_from_components(grid, 2, {(0, 1): vals})
        return LcsForm(w, lee)

    def derivative_at(t: float) -> DiffForm:
        vals = sigma * (1.0 + t * eps * bump) + (1.0 + sigma * t) * eps * bump
        return form_from_components(grid, 2, {(0, 1): vals})

    return FormFamily(grid, omega_at, derivative_at, np.linspace(0, 1, n_times),
                      label="area_interpolation")


def gcs_rescale_family(
    grid: GridSpec,
    amp: float = 0.25,
    n_times: int = 11,
) -> FormFamily:
    """Globally conformal rescale of the standard T^2 area form.

    omega_t = exp(t amp sin(2 pi x1)) dx1 ^ dx2; the Lee form is the
    exact form d(t amp sin 2 pi x1), so gauge normalization recovers the
    constant symplectic form at every t.
    """
    x1 = grid.coordinates()[0]
    g_shape = amp * np.sin(TWO_PI * x1) * np.ones(grid.shape)

    def omega_at(t: float) -> LcsForm:
        w = form_from_components(grid, 2, {(0, 1): np.exp(t * g_shape)})
        lee = LeeForm(grid, np.zeros(grid.n), t * g_shape)
        return LcsForm(w, lee)

    def derivative_at(t: float) -> DiffForm:
        return form_from_components(grid, 2, {(0, 1): g_shape * np.exp(t * g_shape)})

    return FormFamily(grid, omega_at, derivative_at, np.linspace(0, 1, n_times),
                      label="gcs_rescale")


def lee_drift_family(
    grid: GridSpec,
    c0: float = 1.0,
    c1: float = 0.5,
    n_times: int = 11,
) -> FormFamily:
    """Family whose harmonic Lee coefficient drifts: theta_t = (c0 + c1 t) dx4.

    Valid lcs at every t, but the Lee class moves, so no conformal
    isotopy can connect the samples; used as the rejection fixture.
    """
    if c0 <= 0.0 or c0 + c1 <= 0.0:
        raise ValueError("Lee coefficient must stay nonzero on [0, 1]")
    x1 = grid.coordinates()[0]
    u = TWO_PI * x1

    def omega_at(t: float) -> LcsForm:
        ct = c0 + c1 * t
        return LcsForm(_coframe_form(grid, u, ct),
                       LeeForm.constant(grid, [0.0, 0.0, 0.0, ct]))

    def derivative_at(t: float) -> DiffForm:
        return form_from_components(grid, 2, {
            (1, 3): c1 * np.cos(u),
            (2, 3): c1 * np.sin(u),
        })

    return FormFamily(grid, omega_at, derivative_at, np.linspace(0, 1, n_times),
                      label="lee_drift")


# -- tabulated families ---------------------------------------------------


def _lagrange_window(times: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices and weights for cubic Lagrange interpolation on a uniform grid
    of at least 4 times."""
    m = len(times)
    dt = times[1] - times[0]
    j = int(np.clip(np.floor((t - times[0]) / dt), 1, m - 3))
    idx = np.arange(j - 1, j + 3)
    w = np.ones(4)
    for p in range(4):
        for q in range(4):
            if p != q:
                w[p] *= (t - times[idx[q]]) / (times[idx[p]] - times[idx[q]])
    return idx, w


def tabulated_family(
    grid: GridSpec,
    times: np.ndarray,
    samples: list[DiffForm],
) -> FormFamily:
    """Family from 2-form snapshots on a uniform time grid from 0 to 1.

    Values are interpolated in t with cubic Lagrange windows and the time
    derivative uses 4th-order finite differences on the table (one-sided
    at the ends), so both carry O(dt^4) truncation error.  Each sample is
    validated once, here, and omega_at interpolates the Lee data with the
    2-form's weights: exactly lcs when the Lee form is constant in t.
    """
    times = np.asarray(times, dtype=float)
    if len(times) != len(samples):
        raise ValueError("times and samples length mismatch")
    if len(times) < 5:
        raise ValueError("tabulated family needs at least 5 samples")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-12):
        raise ValueError("tabulated times must be uniform")
    # past the ends of the table _lagrange_window would extrapolate silently
    if not (steps[0] > 0 and abs(times[0]) <= 1e-12 and abs(times[-1] - 1.0) <= 1e-12):
        raise ValueError(f"tabulated times must increase from 0 to 1, "
                         f"got {times[0]:g} .. {times[-1]:g}")
    dt = float(steps[0])
    comps = np.stack([s.comps for s in samples])  # (M, C, *shape)
    lees = [lee_form(s) for s in samples]
    harmonic = np.stack([lee.harmonic for lee in lees])
    potential = np.stack([lee.potential for lee in lees])

    deriv_table = np.empty_like(comps)
    m = len(times)
    for i in range(m):
        lo = min(max(i - 2, 0), m - 5)
        sten = np.arange(lo, lo + 5)
        w = _OFFSET_5[i - lo] / dt
        # sum w = 0: differences to sample i leave equal samples an exact 0
        deriv_table[i] = np.tensordot(w, comps[sten] - comps[i], axes=1)

    def omega_at(t: float) -> LcsForm:
        idx, w = _lagrange_window(times, t)
        form = DiffForm(grid, 2, np.tensordot(w, comps[idx], axes=1))
        lee = LeeForm(grid, w @ harmonic[idx], np.tensordot(w, potential[idx], axes=1))
        return LcsForm(form, lee)

    def derivative_at(t: float) -> DiffForm:
        idx, w = _lagrange_window(times, t)
        return DiffForm(grid, 2, np.tensordot(w, deriv_table[idx], axes=1))

    return FormFamily(grid, omega_at, derivative_at, times, label="tabulated")
