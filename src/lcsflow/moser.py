"""Conformal stability engine for lcs families on flat tori.

Given a family omega_t whose Lee class stays fixed, this module
normalizes the family to a constant Lee form, certifies that the
(gauge-corrected) time derivative is twisted-exact, builds the
time-dependent vector field from the twisted primitive, integrates the
flow together with its Jacobian and conformal exponent, and verifies
pointwise that the pulled-back family stays conformally equivalent to
the initial form with the predicted factor.

One driver runs flow -> identity residuals -> checkpoint comparison ->
report for two primitive providers, each behind a public entry point:
  run_theorem_pipeline -- primitive found by per-mode Hodge solves;
  run_exact_family     -- a supplied primitive alpha_t with
                          d/dt theta_t = d h_t bypasses the Hodge solve.
The time integrals the residuals need are swept by the RK4 integrator
on its own stages; the absorption gauge c(t) has a closed form.

Errors never silently degrade into numbers: a drifting Lee class, a
surviving harmonic obstruction, a degenerate form, or a collapsing
pullback each raise a dedicated exception, and the report's verdict
distinguishes "certified" from "not certified in the canonical gauge"
(the search uses the harmonic-gauge representative plus a spatially
constant rescale only, not the full gauge orbit).
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .families import ExactData, FormFamily, fd_derivative
from .forms import (
    DiffForm,
    GridSpec,
    ModeInterpolator,
    contract,
    ext_d,
    index_sets,
    product_table,
    scalar_form,
)
from .twisted import (
    DegenerateForm,
    LcsForm,
    LeeForm,
    d_theta,
    pfaffian_values,
    solve_primitive,
    validate_lcs,
)


class LeeClassDrift(ValueError):
    """The harmonic Lee coefficients change with t: no isotopy can exist."""


class NotExact(ValueError):
    """Harmonic obstruction survives scalar absorption: not certified in
    the canonical gauge."""


class NotExactFamily(ValueError):
    """Supplied primitive does not reproduce omega_t."""


class InconsistentLeeDerivative(ValueError):
    """d/dt theta_t does not match d h_t."""


class IsotopyDiverged(ArithmeticError):
    """Flow state became non-finite or the pullback degenerated."""


class NoValidComponents(ValueError):
    """conformal_compare found a point where every reference component
    is below threshold."""


class StepCountTooSmall(UserWarning):
    """Heuristic CFL-style warning: max |X| * dt exceeds half a grid cell."""


@dataclass
class PipelineOptions:
    """Tolerances and discretization knobs shared by both pipelines."""

    steps: int = 200
    checkpoints: int = 11
    seed_stride: int = 1
    nondeg_margin: float = 1e-8
    lcs_tol: float = 1e-8
    tol_consistency: float = 1e-3
    tol_factor: float = 1e-3
    tol_eq1: float = 1e-6
    tol_exactness: float = 1e-9
    tol_lee_match: float = 1e-8
    tol_cor2: float = 1e-8
    backsub_tol: float = 1e-11
    allow_scalar_absorption: bool = True
    fd_step: float = 1e-3
    interp_rel_tol: float = 1e-14
    cfl_safety: float = 1.0
    residual_floor: float = 1e-9

    def checkpoint_times(self) -> list[float]:
        """Uniform checkpoint times snapped onto the step grid."""
        raw = np.linspace(0.0, 1.0, self.checkpoints)
        snapped = np.round(raw * self.steps) / self.steps
        out: list[float] = []
        for t in snapped:
            if not out or t > out[-1]:
                out.append(float(t))
        return out


# -- family normalization -------------------------------------------------


def normalize_family(F: FormFamily, opts: PipelineOptions | None = None) -> FormFamily:
    """Gauge every sample to its constant (harmonic) Lee representative.

    Validates the family samples, checks that the harmonic Lee
    coefficients are t-independent (LeeClassDrift otherwise), and
    returns a family whose samples have constant Lee form, with the
    applied log-gauge recorded.  Families that already carry a constant
    Lee form pass through untouched, keeping their analytic derivative.
    """
    opts = opts or PipelineOptions()
    grid = F.grid
    sample_lees = []
    need_gauge = False
    for t in F.times:
        L = F.omega_at(float(t))
        V = validate_lcs(L.omega, nondeg_threshold=opts.nondeg_margin,
                         lcs_tol=opts.lcs_tol)
        claimed = L.lee
        if grid.n > 2:
            dev = (V.lee.one_form() - claimed.one_form()).norm()
            scale = max(1.0, claimed.one_form().norm())
            if dev > 1e-6 * scale:
                raise ValueError(
                    f"family Lee data inconsistent with extraction at t={t}: "
                    f"deviation {dev:.3e}"
                )
        sample_lees.append(claimed)
        if not claimed.is_constant:
            need_gauge = True

    c0 = sample_lees[0].harmonic.copy()
    scale = max(1.0, float(np.max(np.abs(c0))))
    for t, lee in zip(F.times, sample_lees):
        drift = float(np.max(np.abs(lee.harmonic - c0)))
        if drift > opts.tol_lee_match * scale:
            raise LeeClassDrift(
                f"harmonic Lee coefficients move by {drift:.3e} at t={t}: "
                "the Lee class is not t-independent, so no conformal isotopy "
                "can connect the family"
            )

    if not need_gauge:
        return FormFamily(
            grid, F.omega_at, F.derivative_at, F.times,
            exact_data=F.exact_data,
            gauge_log_at=lambda t: np.zeros(grid.shape),
            theta_h=c0, label=F.label + "|normalized", meta=dict(F.meta),
        )

    lee_const = LeeForm.constant(grid, c0)

    def omega_n_at(t: float) -> LcsForm:
        L = F.omega_at(t)
        f = np.exp(-L.lee.potential)
        w = DiffForm(grid, 2, L.omega.comps * f[None])
        return LcsForm(w, lee_const, {"gauge": "harmonic", "t": t})

    def derivative_n_at(t: float) -> DiffForm:
        return fd_derivative(lambda u: omega_n_at(u).omega, t, opts.fd_step)

    def gauge_log_at(t: float) -> np.ndarray:
        return -F.omega_at(t).lee.potential

    return FormFamily(
        grid, omega_n_at, derivative_n_at, F.times,
        gauge_log_at=gauge_log_at, theta_h=c0,
        label=F.label + "|normalized", meta=dict(F.meta),
    )


# -- exactness certificate with scalar absorption ------------------------


def _harmonic_parts(a: DiffForm) -> np.ndarray:
    """Componentwise means: the harmonic projection when theta = 0."""
    return np.array([float(np.mean(c)) for c in a.comps])


def _absorption_rate(dom: DiffForm, om: DiffForm) -> float:
    """Least-squares coefficient a with H(dom) ~ a H(om)."""
    hd, ho = _harmonic_parts(dom), _harmonic_parts(om)
    denom = float(ho @ ho)
    if denom == 0.0:
        return 0.0
    return float(hd @ ho) / denom


def _hodge_primitive(om: DiffForm, dom: DiffForm, theta_h: np.ndarray,
                     absorb: bool, residual_floor: float):
    """Solve d_theta beta = d omega/dt - a omega by per-mode Hodge solves.

    Returns (a, solve result, residual, obstruction), the last two
    relative to max(||target||, residual_floor * ||omega||).
    """
    a = _absorption_rate(dom, om) if absorb else 0.0
    target = dom + om * (-a) if a != 0.0 else dom
    sol = solve_primitive(target, theta_h)
    den = max(target.norm(), residual_floor * om.norm())
    return a, sol, sol.residual * target.norm() / den, sol.harmonic_part_norm / den


@dataclass
class ExactnessCertificate:
    """Per-checkpoint twisted-exactness data for a normalized family.

    residuals/obstructions are relative to max(||target||,
    residual_floor * ||omega||).  Absorption certifies H(d omega/dt) =
    a(t) H(omega_t), so the constant gauge f -> e^{c(t)} f with
    dc/dt = -a(t) has the closed form c(t) = log(|H(omega_0)|^2 /
    H(omega_t).H(omega_0)), evaluated on the certified family.
    """

    times: list[float]
    residuals: list[float]
    obstructions: list[float]
    rates: list[float]
    used_absorption: bool
    theta_h: np.ndarray
    family: FormFamily
    harmonic0: np.ndarray | None
    primitives: list[DiffForm] = field(default_factory=list)

    def c_of(self, om: DiffForm) -> float:
        """c with e^c H(om) = H(omega_0), om a sample of the family."""
        if not self.used_absorption:
            return 0.0
        h0 = self.harmonic0
        return float(np.log((h0 @ h0) / (_harmonic_parts(om) @ h0)))

    def c_at(self, t: float) -> float:
        if not self.used_absorption:
            return 0.0
        return self.c_of(self.family.omega_at(t).omega)


def exactness_certificate(
    F: FormFamily,
    opts: PipelineOptions | None = None,
    times: list[float] | None = None,
) -> ExactnessCertificate:
    """Certify that the family derivative is d_theta-exact at every t.

    For theta_h = 0 a harmonic obstruction proportional to the harmonic
    part of omega is absorbed into the residual constant gauge e^{c(t)}
    with dc/dt = -a(t) (if allow_scalar_absorption); any obstruction
    surviving absorption raises NotExact.
    """
    opts = opts or PipelineOptions()
    if F.theta_h is None:
        raise ValueError("family is not normalized: run normalize_family first")
    theta_h = F.theta_h
    if times is None:
        times = opts.checkpoint_times()

    absorb = opts.allow_scalar_absorption and not theta_h.any()
    residuals, obstructions, rates, primitives = [], [], [], []
    for t in times:
        om = F.omega_at(float(t)).omega
        a, sol, res, obs = _hodge_primitive(om, F.derivative_at(float(t)), theta_h,
                                            absorb, opts.residual_floor)
        if obs > opts.tol_exactness:
            hint = ("scalar absorption disabled" if not opts.allow_scalar_absorption
                    and not theta_h.any() else "obstruction not proportional to "
                    "the harmonic part of omega")
            raise NotExact(
                f"harmonic obstruction {obs:.3e} at t={t} exceeds "
                f"{opts.tol_exactness:.1e} ({hint}); family not certified in "
                "the canonical gauge"
            )
        residuals.append(res)
        obstructions.append(obs)
        rates.append(a)
        primitives.append(sol.primitive)

    used = bool(absorb and any(abs(a) > 1e-13 for a in rates))
    return ExactnessCertificate(
        times=list(times), residuals=residuals, obstructions=obstructions,
        rates=rates, used_absorption=used, theta_h=theta_h.copy(), family=F,
        harmonic0=_harmonic_parts(F.omega_at(0.0).omega) if used else None,
        primitives=primitives,
    )


def absorbed_family(F: FormFamily, cert: ExactnessCertificate) -> FormFamily:
    """Apply the certificate's constant gauge e^{c(t)} to the family."""
    if not cert.used_absorption:
        return F
    grid = F.grid

    def omega_a_at(t: float) -> LcsForm:
        L = F.omega_at(t)
        s = np.exp(cert.c_of(L.omega))
        return LcsForm(DiffForm(grid, 2, L.omega.comps * s), L.lee,
                       {"gauge": "absorbed", "t": t})

    def derivative_a_at(t: float) -> DiffForm:
        om = F.omega_at(t).omega
        dom = F.derivative_at(t)
        a = _absorption_rate(dom, om)
        return (dom + om * (-a)) * float(np.exp(cert.c_of(om)))

    prev_gauge = F.gauge_log_at

    def gauge_log_at(t: float) -> np.ndarray:
        base = prev_gauge(t) if prev_gauge is not None else np.zeros(grid.shape)
        return base + cert.c_at(t)

    return FormFamily(
        grid, omega_a_at, derivative_a_at, F.times,
        gauge_log_at=gauge_log_at, theta_h=F.theta_h,
        label=F.label + "|absorbed", meta=dict(F.meta),
    )


# -- vector field construction -------------------------------------------


def _matrix_of(comps: np.ndarray, n: int) -> np.ndarray:
    """(P, n, n) matrices Omega_ij = omega(e_i, e_j) from 2-form components."""
    flat = comps.reshape(comps.shape[0], -1)
    mat = np.zeros((flat.shape[1], n, n))
    for i, j, out, sign in product_table(n, 1, 1):
        mat[:, i, j] = sign * flat[out]
    return mat


def moser_vector_field(
    L: LcsForm | DiffForm,
    alpha: DiffForm,
    nondeg_margin: float = 1e-8,
    backsub_tol: float = 1e-11,
) -> DiffForm:
    """Solve i_X omega = -alpha pointwise; X returned as a degree-1 form.

    In coefficients this is Omega X = alpha with Omega_ij = omega(e_i, e_j).
    Raises DegenerateForm if the Pfaffian margin is below nondeg_margin or
    the back-substitution residual exceeds backsub_tol relative to alpha.
    """
    om = L.omega if isinstance(L, LcsForm) else L
    grid = om.grid
    if alpha.degree != 1:
        raise ValueError("alpha must be a 1-form")
    margin = float(np.min(np.abs(pfaffian_values(om))))
    if margin < nondeg_margin:
        raise DegenerateForm(
            f"Pfaffian margin {margin:.3e} below {nondeg_margin:.1e}"
        )
    mat = _matrix_of(om.comps, grid.n)
    rhs = alpha.comps.reshape(grid.n, -1).T[:, :, None]
    x = np.linalg.solve(mat, rhs)
    resid = float(np.max(np.abs(mat @ x - rhs)))
    ref = max(float(np.max(np.abs(rhs))), 1e-300)
    if resid / ref > backsub_tol:
        raise DegenerateForm(
            f"back-substitution residual {resid / ref:.3e} above "
            f"{backsub_tol:.1e}: solve unreliable"
        )
    comps = x[:, :, 0].T.reshape((grid.n,) + grid.shape).copy()
    return DiffForm(grid, 1, comps)


# -- stage data and cached providers -------------------------------------


class StageData:
    """Velocity, velocity Jacobian and log-factor rate at one stage time.

    Point evaluation shares a single trigonometric interpolator holding
    n + n^2 + 1 channels (X, grad X, rate); rate_values / lee_rate_values
    are grid fields (lee_rate excludes the h-term of the exact path).
    """

    def __init__(self, t: float, x_form: DiffForm, rate_values: np.ndarray,
                 lee_rate_values: np.ndarray, rel_tol: float,
                 solve_residual: float = 0.0):
        grid = x_form.grid
        n = grid.n
        xhat = x_form.spectra()
        channels = [xhat]
        grads = np.empty((n * n,) + grid.shape, dtype=complex)
        for i in range(n):
            for j in range(n):
                grads[i * n + j] = xhat[i] * grid.derivative_multiplier(j)
        channels.append(grads)
        channels.append(np.fft.fftn(rate_values, axes=tuple(range(rate_values.ndim)))[None])
        self.t = t
        self.grid = grid
        self.n = n
        self.x_form = x_form
        self.rate_values = rate_values
        self.lee_rate_values = lee_rate_values
        self.solve_residual = solve_residual
        self.max_speed = float(x_form.max_abs())
        self._interp = ModeInterpolator(grid, np.concatenate(channels), rel_tol)

    def eval(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(velocity (P,n), velocity Jacobian (P,n,n), rate (P,))."""
        n = self.n
        out = self._interp(points)
        vel = out[:n].T
        jac = out[n:n + n * n].T.reshape(-1, n, n)
        return vel, jac, out[-1]


class StageCache:
    """Small LRU cache over stage times (RK4 revisits each boundary twice)."""

    def __init__(self, builder: Callable[[float], StageData], maxsize: int = 8):
        self._builder = builder
        self._cache: OrderedDict[float, StageData] = OrderedDict()
        self._maxsize = maxsize
        self.max_solve_residual = 0.0

    def __call__(self, t: float) -> StageData:
        key = round(float(t), 12)
        if key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key]
        data = self._builder(key)
        self.max_solve_residual = max(self.max_solve_residual, data.solve_residual)
        self._cache[key] = data
        if len(self._cache) > self._maxsize:
            self._cache.popitem(last=False)
        return data


def theorem_stage_builder(
    F: FormFamily, opts: PipelineOptions
) -> Callable[[float], StageData]:
    """Stages for the Hodge-solve path on a normalized (absorbed) family."""
    theta_h = F.theta_h
    absorb = opts.allow_scalar_absorption and not theta_h.any()

    def build(t: float) -> StageData:
        L = F.omega_at(t)
        _, sol, res, _ = _hodge_primitive(L.omega, F.derivative_at(t), theta_h,
                                          absorb, opts.residual_floor)
        x = moser_vector_field(L, sol.primitive, opts.nondeg_margin,
                               opts.backsub_tol)
        rate = np.tensordot(theta_h, x.comps, axes=1)
        return StageData(t, x, rate, rate, opts.interp_rel_tol,
                         solve_residual=res)

    return build


def _exact_beta(ed: ExactData, t: float, h: np.ndarray, fd_step: float) -> DiffForm:
    """beta_t = d alpha_t/dt - h_t alpha_t, the right side of the exact path."""
    al = ed.alpha_at(t)
    if ed.alpha_dot_at is not None:
        al_dot = ed.alpha_dot_at(t)
    else:
        al_dot = fd_derivative(ed.alpha_at, t, fd_step)
    return DiffForm(al.grid, 1, al_dot.comps - h[None] * al.comps)


def exact_stage_builder(
    F: FormFamily, opts: PipelineOptions
) -> Callable[[float], StageData]:
    """Stages for the supplied-primitive path: i_X omega = -(alpha' - h alpha)."""
    ed = F.exact_data
    if ed is None:
        raise ValueError("family has no exact primitive data")

    def build(t: float) -> StageData:
        L = F.omega_at(t)
        h = ed.h_at(t)
        x = moser_vector_field(L, _exact_beta(ed, t, h, opts.fd_step),
                               opts.nondeg_margin, opts.backsub_tol)
        theta_vals = L.lee.one_form().comps
        lee_rate = np.einsum("i...,i...->...", theta_vals, x.comps)
        return StageData(t, x, lee_rate + h, lee_rate, opts.interp_rel_tol)

    return build


# -- flow integration -----------------------------------------------------


@dataclass
class FlowState:
    """Snapshots of the isotopy: positions, Jacobians, conformal exponent.

    lee_integral / rate_integral hold the grid fields int_0^t lee_rate
    and int_0^t rate at each recorded time.
    """

    grid: GridSpec
    seeds: np.ndarray
    steps: int
    times: list[float]
    positions: list[np.ndarray]
    jacobians: list[np.ndarray]
    log_factor: list[np.ndarray]
    max_speed: float
    full_grid: bool
    lee_integral: list[np.ndarray] = field(default_factory=list)
    rate_integral: list[np.ndarray] = field(default_factory=list)

    def index(self, t: float) -> int:
        for i, ti in enumerate(self.times):
            if abs(ti - t) <= 1e-12:
                return i
        raise KeyError(f"time {t} was not recorded")

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        i = self.index(t)
        return self.positions[i], self.jacobians[i], self.log_factor[i]


def integrate_isotopy(
    family: FormFamily | GridSpec,
    fields: Callable[[float], StageData],
    steps: int,
    record_times: list[float] | None = None,
    seeds: np.ndarray | None = None,
    opts: PipelineOptions | None = None,
) -> FlowState:
    """Classic RK4 on (x, J, L): dx = X, dJ = DX J, dL = rate, t in [0, 1].

    Spatial evaluation is exact trigonometric interpolation, so the
    global error is O(steps^-4) for smooth stage data.  The grid fields
    rate_values and lee_rate_values are integrated in time alongside, by
    Simpson's rule on each step's own stages k/s, (2k+1)/2s, (k+1)/s.  Issues a
    StepCountTooSmall warning when max |X| dt exceeds half a grid cell
    times the safety factor; raises IsotopyDiverged on non-finite state.
    """
    opts = opts or PipelineOptions()
    grid = family.grid if isinstance(family, FormFamily) else family
    if steps < 1:
        raise ValueError("steps must be positive")
    if seeds is None:
        seeds = grid.nodes()
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    full = bool(seeds.shape[0] == grid.num_nodes
                and np.array_equal(seeds, grid.nodes()))
    rec = sorted({round(float(t) * steps) for t in (record_times or [0.0, 1.0])})
    rec_steps = [r for r in rec if 0 <= r <= steps]

    pos = seeds.copy()
    jac = np.broadcast_to(np.eye(grid.n), (len(seeds), grid.n, grid.n)).copy()
    logf = np.zeros(len(seeds))
    lee_int, rate_int = np.zeros(grid.shape), np.zeros(grid.shape)
    dt = 1.0 / steps

    times: list[float] = []
    positions, jacobians, logs, lee_ints, rate_ints = [], [], [], [], []

    def record(k: int):
        times.append(k / steps)
        positions.append(np.mod(pos, 1.0))
        jacobians.append(jac.copy())
        logs.append(logf.copy())
        lee_ints.append(lee_int)
        rate_ints.append(rate_int)

    if rec_steps and rec_steps[0] == 0:
        record(0)
        rec_steps = rec_steps[1:]

    max_speed = 0.0
    warned = False
    cfl_limit = 0.5 * opts.cfl_safety / grid.N
    for k in range(steps):
        s1 = fields(k / steps)
        s2 = fields((2 * k + 1) / (2.0 * steps))
        s3 = fields((k + 1) / steps)

        v1, d1, r1 = s1.eval(pos)
        speed = float(np.max(np.abs(v1)))
        max_speed = max(max_speed, speed, s1.max_speed)
        if not warned and max_speed * dt > cfl_limit:
            warnings.warn(
                f"step size {dt:.3e} moves up to {max_speed * dt:.3e} "
                f"(> {cfl_limit:.3e}, half a grid cell); increase steps",
                StepCountTooSmall,
                stacklevel=2,
            )
            warned = True
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

        for name, arr in (("positions", pos), ("Jacobians", jac), ("log factors", logf)):
            if not np.all(np.isfinite(arr)):
                raise IsotopyDiverged(f"non-finite {name} after step {k + 1}")
        lee_int = lee_int + (dt / 6.0) * (s1.lee_rate_values + 4.0 * s2.lee_rate_values
                                          + s3.lee_rate_values)
        rate_int = rate_int + (dt / 6.0) * (s1.rate_values + 4.0 * s2.rate_values
                                            + s3.rate_values)
        if rec_steps and rec_steps[0] == k + 1:
            record(k + 1)
            rec_steps = rec_steps[1:]

    return FlowState(grid, seeds, steps, times, positions, jacobians,
                     logs, max_speed, full, lee_ints, rate_ints)


# -- pullback and conformal comparison -----------------------------------


@dataclass
class SampledForm:
    """A k-form known by its components at a finite point set."""

    grid: GridSpec
    degree: int
    comps: np.ndarray  # (ncomp, P)
    points: np.ndarray
    full_grid: bool = False

    def as_diff_form(self) -> DiffForm:
        if not self.full_grid:
            raise ValueError("sample points are not the full grid")
        shape = (self.comps.shape[0],) + self.grid.shape
        return DiffForm(self.grid, self.degree, self.comps.reshape(shape).copy())


def pullback_form(
    omega: LcsForm | DiffForm,
    flow: FlowState,
    t: float,
    rel_tol: float = 0.0,
) -> SampledForm:
    """phi_t^* omega on the seed set: J^T Omega(phi_t(x)) J per point.

    Only the strictly upper triangle of the congruence is stored, so the
    result is antisymmetric by construction.
    """
    om = omega.omega if isinstance(omega, LcsForm) else omega
    grid = om.grid
    if om.degree != 2:
        raise ValueError("pullback_form expects a 2-form")
    pos, jac, _ = flow.at(t)
    vals = ModeInterpolator(grid, om.spectra(), rel_tol)(pos)
    mat = _matrix_of(vals, grid.n)
    back = np.einsum("pai,pab,pbj->pij", jac, mat, jac, optimize=True)
    comps = np.stack([back[:, i, j] for (i, j) in index_sets(grid.n, 2)])
    return SampledForm(grid, 2, comps, flow.seeds, flow.full_grid)


def _comp_matrix(a) -> np.ndarray:
    if isinstance(a, DiffForm):
        return a.comps.reshape(a.comps.shape[0], -1)
    if isinstance(a, SampledForm):
        return a.comps
    arr = np.asarray(a, dtype=float)
    return arr.reshape(arr.shape[0], -1)


@dataclass
class ConformalComparison:
    factor: np.ndarray
    consistency_error: float
    positive: bool


def conformal_compare(a, b, threshold_rel: float = 1e-6) -> ConformalComparison:
    """Extract the pointwise ratio a = factor * b and its spread.

    Componentwise ratios are averaged with weights |b_S|, using only
    components with |b_S| >= threshold_rel * max |b|; the consistency
    error is the largest pointwise ratio spread divided by the mean
    factor magnitude.  Raises NoValidComponents when some point has no
    usable reference component.
    """
    av, bv = _comp_matrix(a), _comp_matrix(b)
    if av.shape != bv.shape:
        raise ValueError("component shapes differ")
    bmax = float(np.max(np.abs(bv)))
    if bmax == 0.0:
        raise NoValidComponents("reference form vanishes")
    mask = np.abs(bv) >= threshold_rel * bmax
    if not mask.any(axis=0).all():
        bad = int(np.nonzero(~mask.any(axis=0))[0][0])
        raise NoValidComponents(
            f"all reference components below threshold at point {bad}"
        )
    weights = np.where(mask, np.abs(bv), 0.0)
    ratios = np.divide(av, bv, out=np.zeros_like(av), where=mask)
    factor = (weights * ratios).sum(axis=0) / weights.sum(axis=0)
    spread = (np.where(mask, ratios, -np.inf).max(axis=0)
              - np.where(mask, ratios, np.inf).min(axis=0))
    mean_f = max(float(np.abs(np.mean(factor))), 1e-300)
    return ConformalComparison(
        factor=factor,
        consistency_error=float(np.max(spread)) / mean_f,
        positive=bool(np.all(factor > 0.0)),
    )


# -- residual diagnostics -------------------------------------------------


@dataclass
class Eq1Record:
    t: float
    eq1_residual: float
    flow_identity_residual: float
    necessity_residual: float


def verify_eq1(
    F: FormFamily,
    fields: Callable[[float], StageData],
    flow: FlowState,
) -> list[Eq1Record]:
    """Spectral residuals of the infinitesimal stability identities.

    Evaluated at the times the flow recorded:
    eq1_residual:  || d/dt omega + d_theta(i_X omega) + theta(X) omega ||
    flow_identity: the same minus (rate) * omega, where rate is theta(X)
                   plus the h-term on the exact path -- this is the
                   quantity whose vanishing makes d/dt (phi^* omega) =
                   phi^*(rate * omega) hold, and the success verdict
                   gates on it.
    necessity:     || d/dt(f omega) + d_{theta + d ln f}(f i_X omega) ||
                   with f = exp(int_0^t theta(X) ds) from the flow's
                   lee_integral, the bookkeeping of the necessity direction.
    All residuals are relative to max(||d omega/dt||, ||omega||).
    """
    grid = F.grid
    out: list[Eq1Record] = []
    for t, u in zip(flow.times, flow.lee_integral):
        L = F.omega_at(t)
        om, dom = L.omega, F.derivative_at(t)
        st = fields(t)
        x = st.x_form
        ixw = contract(x, om)
        d_ixw = d_theta(ixw, L.lee)
        theta_vals = L.lee.one_form().comps
        theta_x = np.einsum("i...,i...->...", theta_vals, x.comps)
        mis = DiffForm(grid, 2,
                       dom.comps + d_ixw.comps + theta_x[None] * om.comps)
        den = max(dom.norm(), om.norm())
        eq1 = mis.norm() / den
        flow_mis = DiffForm(grid, 2,
                            mis.comps - st.rate_values[None] * om.comps)
        flow_res = flow_mis.norm() / den

        f = np.exp(u)
        lhs = DiffForm(grid, 2, f[None] * (theta_x[None] * om.comps + dom.comps))
        theta_prime = L.lee.one_form() + ext_d(scalar_form(grid, u))
        rhs = d_theta(DiffForm(grid, 1, f[None] * ixw.comps), theta_prime)
        nec = DiffForm(grid, 2, lhs.comps + rhs.comps).norm() / den
        out.append(Eq1Record(t, eq1, flow_res, nec))
    return out


# -- reports --------------------------------------------------------------


@dataclass
class CheckpointRecord:
    t: float
    exactness_residual: float
    harmonic_obstruction: float
    conformal_consistency_error: float
    factor_error: float
    eq1_residual: float
    flow_identity_residual: float
    necessity_residual: float
    factor_min: float
    factor_max: float
    cor2_identity_residual: float | None = None

    def as_dict(self) -> dict:
        d = asdict(self)
        if self.cor2_identity_residual is None:
            del d["cor2_identity_residual"]
        return d


@dataclass
class MoserReport:
    """Per-checkpoint residuals plus the aggregated verdict."""

    path: str
    label: str
    grid: tuple[int, int]
    steps: int
    records: list[CheckpointRecord]
    max_exactness: float
    max_obstruction: float
    max_consistency: float
    max_factor_error: float
    max_eq1: float
    max_flow_identity: float
    max_necessity: float
    max_cor2: float | None
    factor_positive: bool
    absorption_used: bool
    absorption_log_final: float
    max_speed: float
    stage_solve_residual_max: float
    success: bool
    verdict: str

    def as_dict(self) -> dict:
        d = dict(vars(self))
        d["grid"] = {"n": self.grid[0], "N": self.grid[1]}
        d["checkpoints"] = [r.as_dict() for r in d.pop("records")]
        return d


def _assemble_report(
    pv: _Provider,
    label: str,
    opts: PipelineOptions,
    records: list[CheckpointRecord],
    factor_positive: bool,
    max_speed: float,
    stage_res: float,
) -> MoserReport:
    max_ex = max(r.exactness_residual for r in records)
    max_ob = max(r.harmonic_obstruction for r in records)
    max_cc = max(r.conformal_consistency_error for r in records)
    max_fe = max(r.factor_error for r in records)
    max_e1 = max(r.eq1_residual for r in records)
    max_fl = max(r.flow_identity_residual for r in records)
    max_ne = max(r.necessity_residual for r in records)
    cor2s = [r.cor2_identity_residual for r in records
             if r.cor2_identity_residual is not None]
    max_c2 = max(cor2s) if cor2s else None
    ok = (
        max_ex <= opts.tol_exactness
        and max_ob <= opts.tol_exactness
        and max_cc <= opts.tol_consistency
        and max_fe <= opts.tol_factor
        and max_fl <= opts.tol_eq1
        and factor_positive
        and (max_c2 is None or max_c2 <= opts.tol_cor2)
    )
    grid = pv.family.grid
    return MoserReport(
        path=pv.path, label=label, grid=(grid.n, grid.N), steps=opts.steps,
        records=records, max_exactness=max_ex, max_obstruction=max_ob,
        max_consistency=max_cc, max_factor_error=max_fe, max_eq1=max_e1,
        max_flow_identity=max_fl, max_necessity=max_ne, max_cor2=max_c2,
        factor_positive=factor_positive, absorption_used=pv.absorption_used,
        absorption_log_final=pv.absorption_log_final, max_speed=max_speed,
        stage_solve_residual_max=stage_res, success=ok,
        verdict=("certified_conformally_equivalent" if ok
                 else "not_certified_in_canonical_gauge"),
    )


# -- pipelines ------------------------------------------------------------


def _base_values(om: DiffForm, seeds: np.ndarray, full: bool,
                 rel_tol: float = 0.0) -> SampledForm:
    grid = om.grid
    if full:
        comps = om.comps.reshape(om.comps.shape[0], -1)
    else:
        comps = ModeInterpolator(grid, om.spectra(), rel_tol)(seeds)
    return SampledForm(grid, 2, comps, seeds, full)


def _checkpoint_compare(
    om_t: DiffForm,
    base: SampledForm,
    flow: FlowState,
    t: float,
    opts: PipelineOptions,
) -> tuple[ConformalComparison, np.ndarray]:
    pos, jac, logf = flow.at(t)
    det = np.linalg.det(jac)
    if float(det.min()) <= 0.0:
        raise IsotopyDiverged(f"orientation lost at t={t}: min det J = {det.min():.3e}")
    pb = pullback_form(om_t, flow, t, rel_tol=opts.interp_rel_tol)
    pfv = pfaffian_values(pb)
    if float(np.min(np.abs(pfv))) < opts.nondeg_margin:
        raise IsotopyDiverged(f"pullback degenerated at t={t}")
    cc = conformal_compare(pb, base)
    predicted = np.exp(logf)
    return cc, predicted


@dataclass
class _Provider:
    """What a primitive provider hands the driver, before any integration.

    family is the family the flow runs on; exactness / obstructions are
    per checkpoint; cor2, when given, is the extra per-checkpoint gate
    cor2(t, omega_t, flow).
    """

    path: str
    family: FormFamily
    builder: Callable[[float], StageData]
    exactness: list[float]
    obstructions: list[float]
    absorption_used: bool = False
    absorption_log_final: float = 0.0
    cor2: Callable[[float, LcsForm, FlowState], float] | None = None


def _theorem_provider(F: FormFamily, opts: PipelineOptions,
                      times: list[float]) -> _Provider:
    """Hodge primitives on the normalized, scalar-absorbed family."""
    Fn = normalize_family(F, opts)
    cert = exactness_certificate(Fn, opts, times=times)
    Fa = absorbed_family(Fn, cert)
    for t in times:
        validate_lcs(Fa.omega_at(t).omega, nondeg_threshold=opts.nondeg_margin,
                     lcs_tol=opts.lcs_tol)
    return _Provider("theorem", Fa, theorem_stage_builder(Fa, opts),
                     cert.residuals, cert.obstructions,
                     cert.used_absorption, cert.c_at(1.0))


def _exact_provider(F: FormFamily, opts: PipelineOptions,
                    times: list[float]) -> _Provider:
    """A supplied primitive: checks its preconditions, then the cor2 gate."""
    ed = F.exact_data
    if ed is None:
        raise ValueError("family has no exact primitive data")
    grid = F.grid
    exact_res = []
    for t in times:
        L = F.omega_at(t)
        validate_lcs(L.omega, nondeg_threshold=opts.nondeg_margin,
                     lcs_tol=opts.lcs_tol)
        recon = d_theta(ed.alpha_at(t), L.lee)
        res = (recon - L.omega).norm() / max(L.omega.norm(), 1e-300)
        if res > opts.tol_lee_match:
            raise NotExactFamily(
                f"omega_t deviates from d_theta alpha_t by {res:.3e} at t={t}"
            )
        exact_res.append(res)
        theta_dot = fd_derivative(lambda u: F.omega_at(u).lee.one_form(),
                                  t, opts.fd_step)
        dh = ext_d(scalar_form(grid, ed.h_at(t)))
        dev = (theta_dot - dh).norm() / max(theta_dot.norm(), 1.0)
        if dev > opts.tol_lee_match:
            raise InconsistentLeeDerivative(
                f"d theta/dt differs from d h by {dev:.3e} at t={t}"
            )

    def cor2(t: float, L: LcsForm, flow: FlowState) -> float:
        """Corollary-style primitive identity for f = e^g, g = -int h."""
        i = flow.index(t)
        g = flow.lee_integral[i] - flow.rate_integral[i]
        h = ed.h_at(t)
        f = np.exp(g)
        dom = F.derivative_at(t)
        lhs = DiffForm(grid, 2, f[None] * (dom.comps - h[None] * L.omega.comps))
        beta = DiffForm(grid, 1, f[None] * _exact_beta(ed, t, h, opts.fd_step).comps)
        theta_prime = L.lee.one_form() + ext_d(scalar_form(grid, g))
        rhs = d_theta(beta, theta_prime)
        den = max(lhs.norm(), DiffForm(grid, 2, f[None] * L.omega.comps).norm())
        return (lhs - rhs).norm() / den

    return _Provider("exact_family", F, exact_stage_builder(F, opts),
                     exact_res, [0.0] * len(times), cor2=cor2)


def _run_moser(
    F: FormFamily,
    opts: PipelineOptions | None,
    provide: Callable[[FormFamily, PipelineOptions, list[float]], _Provider],
) -> MoserReport:
    """The one driver: flow, identity residuals, checkpoint comparison."""
    opts = opts or PipelineOptions()
    times = opts.checkpoint_times()
    pv = provide(F, opts, times)
    Fp = pv.family
    stages = StageCache(pv.builder)
    seeds = Fp.grid.nodes()[:: opts.seed_stride]
    flow = integrate_isotopy(Fp, stages, opts.steps, record_times=times,
                             seeds=seeds, opts=opts)
    eq1 = verify_eq1(Fp, stages, flow)
    base = _base_values(Fp.omega_at(0.0).omega, flow.seeds, flow.full_grid,
                        opts.interp_rel_tol)

    records = []
    positive = True
    for i, t in enumerate(times):
        L = Fp.omega_at(t)
        cc, predicted = _checkpoint_compare(L.omega, base, flow, t, opts)
        positive = positive and cc.positive
        records.append(CheckpointRecord(
            t=t,
            exactness_residual=pv.exactness[i],
            harmonic_obstruction=pv.obstructions[i],
            conformal_consistency_error=cc.consistency_error,
            factor_error=float(np.max(np.abs(cc.factor - predicted) / predicted)),
            eq1_residual=eq1[i].eq1_residual,
            flow_identity_residual=eq1[i].flow_identity_residual,
            necessity_residual=eq1[i].necessity_residual,
            factor_min=float(cc.factor.min()),
            factor_max=float(cc.factor.max()),
            cor2_identity_residual=pv.cor2(t, L, flow) if pv.cor2 else None,
        ))
    return _assemble_report(pv, F.label, opts, records, positive,
                            flow.max_speed, stages.max_solve_residual)


def run_theorem_pipeline(
    F: FormFamily, opts: PipelineOptions | None = None
) -> MoserReport:
    """Full certify-solve-integrate-verify cycle via Hodge primitives."""
    return _run_moser(F, opts, _theorem_provider)


def run_exact_family(
    F: FormFamily, opts: PipelineOptions | None = None
) -> MoserReport:
    """Certify and verify a family with a supplied twisted primitive.

    Checks omega_t = d alpha_t - theta_t ^ alpha_t (NotExactFamily) and
    d/dt theta_t = d h_t (InconsistentLeeDerivative), integrates the
    vector field of i_X omega = -(d alpha/dt - h alpha), and verifies the
    conformal-factor prediction exp(int (theta(X) + h)) together with the
    time-derivative identity for the gauge-corrected family e^{g} omega,
    g = -int h.
    """
    return _run_moser(F, opts, _exact_provider)
