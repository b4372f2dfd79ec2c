"""Conformal stability engine for lcs families on flat tori.

Given a family omega_t whose Lee class stays fixed, this module
normalizes the family to a constant Lee form, certifies that the
(gauge-corrected) time derivative is twisted-exact, builds the
time-dependent vector field from the twisted primitive, integrates the
flow together with its Jacobian and conformal exponent, and verifies
pointwise that the pulled-back family stays conformally equivalent to
the initial form with the predicted factor.

One driver runs flow -> identity residuals -> checkpoint comparison ->
report on the ExactnessCertificate that one of two primitive providers
hands it, each behind a public entry point:
  run_theorem_pipeline -- primitive found by per-mode Hodge solves, after
                          normalize_family, its one Lee extraction per time;
  run_exact_family     -- a supplied primitive alpha_t with
                          d/dt theta_t = d h_t bypasses the Hodge solve.
Each RK4 stage time is built once; a theorem-path stage is one Hodge solve
gated on its harmonic obstruction.  RK4 sweeps the time integral of h on
its own stages; the absorption gauge, decided at the checkpoints, has a
closed form.  The cor2 residual of the rescaled family e^g omega on the
exact path is the flow-identity misfit weighted pointwise by e^g: the
twisted differential is gauge covariant, d_{theta + dg}(e^g b) = e^g d_theta b.

Errors never silently degrade into numbers: a drifting Lee class, a
surviving harmonic obstruction, a degenerate form, or a collapsing
pullback each raise a dedicated exception, and the report's verdict
distinguishes "certified" from "not certified in the canonical gauge"
(the search uses the harmonic-gauge representative plus a spatially
constant rescale only, not the full gauge orbit).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .families import FormFamily, fd_derivative
from .forms import (
    DiffForm,
    GridSpec,
    ModeInterpolator,
    contract,
    contract_axes,
    ext_d,
    index_sets,
    product_table,
    scalar_form,
)
from .twisted import (
    LCS_TOL,
    NONDEG_THRESHOLD,
    DegenerateForm,
    LcsForm,
    LeeForm,
    component_means,
    d_theta,
    pfaffian_inverse,
    pfaffian_values,
    snap_lee,
    solve_primitive,
    validate_lcs,
)


class LeeClassDrift(ValueError):
    """The harmonic Lee coefficients change with t: no isotopy can exist."""


class NotExact(ValueError):
    """A stage's harmonic obstruction survives scalar absorption: not
    certified in the canonical gauge."""


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


# Fixed numerics of the pipeline
INTERP_REL_TOL = 1e-14  # interpolation drops modes below this times the largest
FD_STEP = 1e-3          # t-step of the finite differences in t
BACKSUB_TOL = 1e-11     # back-substitution gate of moser_vector_field
RESIDUAL_FLOOR = 1e-9   # exactness residuals are relative to at least this * ||omega||
RATE_FLOOR = 1e-13      # absorption rates at or below this count as zero
COMPARE_FLOOR = 1e-6    # conformal_compare skips components below this * max |b|


@dataclass
class PipelineOptions:
    """Tolerances and discretization knobs shared by both pipelines."""

    steps: int = 200
    checkpoints: int = 11
    seed_stride: int = 1
    nondeg_margin: float = NONDEG_THRESHOLD
    lcs_tol: float = LCS_TOL
    tol_consistency: float = 1e-3
    tol_factor: float = 1e-3
    tol_eq1: float = 1e-6
    tol_exactness: float = 1e-9
    tol_lee_match: float = 1e-8
    tol_cor2: float = 1e-8
    allow_scalar_absorption: bool = True

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

    The one Lee extraction of the theorem path.  Validates omega_t at each
    sample time and at each checkpoint time that is not one, checks there
    that the family's Lee data match the extracted ones and that the
    harmonic Lee coefficients are t-independent (LeeClassDrift otherwise),
    and returns a family whose samples have constant Lee form theta_h
    (snapped once, by snap_lee, for every reader).  Families
    that already carry a constant Lee form pass through untouched, keeping
    their analytic derivative; otherwise the gauged samples e^{-g} omega
    are validated at the checkpoints.
    """
    opts = opts or PipelineOptions()
    grid = F.grid
    checkpoints = opts.checkpoint_times()
    times = [float(t) for t in F.times]
    times += [t for t in checkpoints
              if all(abs(t - s) > 1e-12 for s in F.times)]
    sample_lees = []
    for t in times:
        L = F.omega_at(t)
        V = _validated(L.omega, opts)
        claimed = L.lee
        if grid.n > 2:
            gap = LeeForm(grid, V.lee.harmonic - claimed.harmonic,
                          V.lee.potential - claimed.potential)
            dev = gap.one_form().norm()
            scale = max(1.0, claimed.one_form().norm())
            if not dev <= 1e-6 * scale:
                raise ValueError(
                    f"family Lee data inconsistent with extraction at t={t}: "
                    f"deviation {dev:.3e}"
                )
        sample_lees.append(claimed)

    c0 = sample_lees[0].harmonic
    scale = max(1.0, float(np.max(np.abs(c0))))
    for t, lee in zip(times, sample_lees):
        drift = float(np.max(np.abs(lee.harmonic - c0)))
        if not drift <= opts.tol_lee_match * scale:
            raise LeeClassDrift(
                f"harmonic Lee coefficients move by {drift:.3e} at t={t}: "
                "the Lee class is not t-independent, so no conformal isotopy "
                "can connect the family"
            )

    theta_h = snap_lee(c0, grid)
    if all(lee.is_constant for lee in sample_lees):
        return FormFamily(grid, F.omega_at, F.derivative_at, F.times,
                          exact_data=F.exact_data, theta_h=theta_h)

    lee_const = LeeForm.constant(grid, theta_h)

    def omega_n_at(t: float) -> LcsForm:
        L = F.omega_at(t)
        f = np.exp(-L.lee.potential)
        w = DiffForm(grid, 2, L.omega.comps * f[None])
        return LcsForm(w, lee_const)

    def derivative_n_at(t: float) -> DiffForm:
        return fd_derivative(lambda u: omega_n_at(u).omega, t, FD_STEP)

    for t in checkpoints:
        _validated(omega_n_at(t).omega, opts)
    return FormFamily(grid, omega_n_at, derivative_n_at, F.times, theta_h=theta_h)


def _validated(om: DiffForm, opts: PipelineOptions) -> LcsForm:
    return validate_lcs(om, nondeg_threshold=opts.nondeg_margin, lcs_tol=opts.lcs_tol)


# -- exactness certificate with scalar absorption ------------------------


def _absorption_rate(dom: DiffForm, om: DiffForm) -> float:
    """Least-squares coefficient a with H(dom) ~ a H(om)."""
    hd, ho = component_means(dom), component_means(om)
    denom = float(ho @ ho)
    if denom == 0.0:
        return 0.0
    return float(hd @ ho) / denom


def _gauge_log(h0: np.ndarray, om: DiffForm, t: float) -> float:
    """c with e^c H(om) = h0 = H(omega_0); NotExact unless H(om).h0 > 0."""
    overlap = float(component_means(om) @ h0)
    if not overlap > 0.0:
        raise NotExact(
            f"harmonic part of omega at t={t} has overlap {overlap:.3e} with "
            "that of omega_0, so no constant gauge e^c maps one onto the "
            "other; family not certified in the canonical gauge")
    return float(np.log((h0 @ h0) / overlap))


@dataclass
class ExactnessCertificate:
    """What a primitive provider hands the driver, before any integration.

    family is the family the provider was given (normalized on the theorem
    path); certified is the family the flow runs on, the absorbed one when
    absorption is used.  builder builds its stage at any time, stages are
    its checkpoint stages, keyed by checkpoint time, and residuals are the
    exactness residuals per checkpoint.  Absorption certifies
    H(d omega/dt) = a(t) H(omega_t), so the constant gauge f -> e^{c(t)} f
    with dc/dt = -a(t) has the closed form c(t) = log(|H(omega_0)|^2 /
    H(omega_t).H(omega_0)), evaluated on the normalized family.
    """

    path: str
    family: FormFamily
    certified: FormFamily
    builder: Callable[[float], StageData]
    stages: dict[float, StageData]
    residuals: list[float]
    harmonic0: np.ndarray | None

    @property
    def used_absorption(self) -> bool:
        return self.harmonic0 is not None

    def c_at(self, t: float) -> float:
        if not self.used_absorption:
            return 0.0
        return _gauge_log(self.harmonic0, self.family.omega_at(t).omega, t)


def exactness_certificate(
    F: FormFamily, opts: PipelineOptions | None = None
) -> ExactnessCertificate:
    """Certify that the family derivative is d_theta-exact at every checkpoint.

    For theta_h = 0 (and allow_scalar_absorption) a nonzero absorption
    rate at some checkpoint puts the family in the constant gauge e^{c(t)}
    with dc/dt = -a(t), which takes the harmonic part proportional to
    omega out of the derivative.  The checkpoint stages of the resulting
    family are then built by theorem_stage_builder, which raises NotExact
    on any surviving obstruction.
    """
    opts = opts or PipelineOptions()
    if F.theta_h is None:
        raise ValueError("family is not normalized: run normalize_family first")
    times = opts.checkpoint_times()
    h0 = None
    if opts.allow_scalar_absorption and not F.theta_h.any():
        rates = [_absorption_rate(F.derivative_at(t), F.omega_at(t).omega)
                 for t in times]
        if any(abs(a) > RATE_FLOOR for a in rates):
            h0 = component_means(F.omega_at(0.0).omega)
    # an absorbed e^c omega keeps the Lee form normalize_family validated,
    # and moser_vector_field gates its Pfaffian margin in each stage build
    Fa = absorbed_family(F, h0)
    build = theorem_stage_builder(Fa, opts)
    stages = {t: build(t) for t in times}
    return ExactnessCertificate("theorem", F, Fa, build, stages,
                                [s.solve_residual for s in stages.values()], h0)


def absorbed_family(F: FormFamily, h0: np.ndarray | None) -> FormFamily:
    """The family in the constant gauge e^{c(t)}, e^c H(omega_t) = h0 (none
    if h0 is None); its derivative drops a(t) omega_t before the rescale."""
    if h0 is None:
        return F
    grid = F.grid

    def omega_a_at(t: float) -> LcsForm:
        L = F.omega_at(t)
        s = np.exp(_gauge_log(h0, L.omega, t))
        return LcsForm(DiffForm(grid, 2, L.omega.comps * s), L.lee)

    def derivative_a_at(t: float) -> DiffForm:
        om = F.omega_at(t).omega
        dom = F.derivative_at(t)
        a = _absorption_rate(dom, om)
        return (dom + om * (-a)) * float(np.exp(_gauge_log(h0, om, t)))

    return FormFamily(grid, omega_a_at, derivative_a_at, F.times, theta_h=F.theta_h)


# -- vector field construction -------------------------------------------


def _matrix_of(comps: np.ndarray, n: int) -> np.ndarray:
    """(P, n, n) matrices Omega_ij = omega(e_i, e_j) from 2-form components."""
    flat = comps.reshape(comps.shape[0], -1)
    mat = np.zeros((flat.shape[1], n, n))
    for i, j, out, sign in product_table(n, 1, 1):
        mat[:, i, j] = sign * flat[out]
    return mat


def moser_vector_field(
    om: DiffForm,
    alpha: DiffForm,
    nondeg_margin: float = NONDEG_THRESHOLD,
) -> DiffForm:
    """Solve i_X omega = -alpha pointwise; X returned as a degree-1 form.

    In coefficients this is Omega X = alpha with Omega_ij = omega(e_i, e_j),
    solved in closed form as X = B alpha / Pf (twisted.pfaffian_inverse).
    Raises DegenerateForm if the Pfaffian margin is below nondeg_margin or
    the back-substitution residual exceeds BACKSUB_TOL relative to alpha.
    """
    grid = om.grid
    if alpha.degree != 1:
        raise ValueError("alpha must be a 1-form")
    inv, _ = pfaffian_inverse(om, nondeg_margin)
    # Omega^-1 alpha = -i_alpha Omega^-1, and i_X omega + alpha = alpha - Omega X
    x = -contract_axes(alpha.comps, inv, grid.n, 2)
    resid = float(np.max(np.abs(contract_axes(x, om.comps, grid.n, 2) + alpha.comps)))
    ref = max(float(np.max(np.abs(alpha.comps))), 1e-300)
    if resid / ref > BACKSUB_TOL:
        raise DegenerateForm(
            f"back-substitution residual {resid / ref:.3e} above "
            f"{BACKSUB_TOL:.1e}: solve unreliable"
        )
    return DiffForm(grid, 1, x)


# -- stage data and cached providers -------------------------------------


class StageData:
    """Velocity, velocity Jacobian and log-factor rate at one stage time.

    Point evaluation shares a single trigonometric interpolator holding
    n + n^2 + 1 channels (X, grad X, rate); rate_values = theta(X) + h is a
    grid field, and h_values is the h-term of the exact path (0 on the
    theorem path).
    solve_residual / obstruction are the Hodge solve's relative residual
    and harmonic obstruction (zero on the exact path, which solves nothing).
    """

    def __init__(self, x_form: DiffForm, rate_values: np.ndarray,
                 h_values: np.ndarray | float, solve_residual: float = 0.0,
                 obstruction: float = 0.0):
        grid = x_form.grid
        n = grid.n
        xhat = x_form.spectra()
        channels = [xhat]
        grads = np.empty((n * n,) + grid.shape, dtype=complex)
        for i in range(n):
            for j in range(n):
                grads[i * n + j] = xhat[i] * grid.derivative_multiplier(j)
        channels.append(grads)
        channels.append(scalar_form(grid, rate_values).spectra())
        self.n = n
        self.x_form = x_form
        self.h_values = h_values
        self.solve_residual = solve_residual
        self.obstruction = obstruction
        self.max_speed = float(x_form.max_abs())
        self._interp = ModeInterpolator(grid, np.concatenate(channels), INTERP_REL_TOL)

    def eval(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(velocity (P,n), velocity Jacobian (P,n,n), rate (P,))."""
        n = self.n
        out = self._interp(points)
        vel = out[:n].T
        jac = out[n:n + n * n].T.reshape(-1, n, n)
        return vel, jac, out[-1]


class StageCache:
    """Stages by time: a kept stage if there is one, else a fresh build.

    The providers build the checkpoint stages before integration and hand
    them in as kept; integrate_isotopy asks for every other stage time
    once, so nothing else is stored.  verify_eq1 reads the kept stages.
    """

    def __init__(self, builder: Callable[[float], StageData],
                 kept: dict[float, StageData]):
        self._builder = builder
        self._kept = kept
        self.max_solve_residual = max(
            (st.solve_residual for st in kept.values()), default=0.0)

    def __call__(self, t: float) -> StageData:
        if t in self._kept:
            return self._kept[t]
        data = self._builder(t)
        self.max_solve_residual = max(self.max_solve_residual, data.solve_residual)
        return data


def theorem_stage_builder(
    F: FormFamily, opts: PipelineOptions
) -> Callable[[float], StageData]:
    """Stages for the Hodge-solve path: d_theta beta = d omega/dt on F.

    F is a normalized family, already absorbed when absorption is used.
    Residual and obstruction are relative to max(||d omega/dt||,
    RESIDUAL_FLOOR * ||omega||); an obstruction above tol_exactness raises
    NotExact before the vector field is built.
    """
    theta_h = F.theta_h

    def build(t: float) -> StageData:
        om, dom = F.omega_at(t).omega, F.derivative_at(t)
        sol = solve_primitive(dom, theta_h)
        den = max(dom.norm(), RESIDUAL_FLOOR * om.norm())
        obstruction = sol.harmonic_part_norm / den
        if not obstruction <= opts.tol_exactness:
            raise NotExact(
                f"harmonic obstruction {obstruction:.3e} at t={t} exceeds "
                f"{opts.tol_exactness:.1e} ({_obstruction_hint(om, dom, theta_h, opts)}); "
                "family not certified in the canonical gauge")
        x = moser_vector_field(om, sol.primitive, opts.nondeg_margin)
        rate = np.tensordot(theta_h, x.comps, axes=1)
        return StageData(x, rate, 0.0, solve_residual=sol.residual * dom.norm() / den,
                         obstruction=obstruction)

    return build


def _obstruction_hint(om: DiffForm, dom: DiffForm, theta_h: np.ndarray,
                      opts: PipelineOptions) -> str:
    """Why scalar absorption did not remove a harmonic obstruction."""
    a = 0.0 if theta_h.any() else _absorption_rate(dom, om)
    if abs(a) <= RATE_FLOOR:
        return "obstruction not proportional to the harmonic part of omega"
    if not opts.allow_scalar_absorption:
        return "scalar absorption disabled"
    # an absorbed family has no absorption rate left at any t
    return (f"absorption rate {a:.3e} here, but it vanished at every "
            "checkpoint, so no scalar absorption was applied")


def exact_stage_builder(
    F: FormFamily, opts: PipelineOptions
) -> Callable[[float], StageData]:
    """Stages for the supplied-primitive path: i_X omega = -beta, beta =
    d alpha/dt - h alpha."""
    ed = F.exact_data
    if ed is None:
        raise ValueError("family has no exact primitive data")

    def build(t: float) -> StageData:
        L, h, al = F.omega_at(t), ed.h_at(t), ed.alpha_at(t)
        beta = DiffForm(F.grid, 1, ed.alpha_dot_at(t).comps - h * al.comps)
        x = moser_vector_field(L.omega, beta, opts.nondeg_margin)
        theta_x = np.einsum("i...,i...->...", L.lee.one_form().comps, x.comps)
        return StageData(x, theta_x + h, h)

    return build


# -- flow integration -----------------------------------------------------


@dataclass
class FlowState:
    """Snapshots of the isotopy: positions, Jacobians, conformal exponent.

    h_integral holds the grid field int_0^t h at each recorded time.
    """

    times: list[float]
    positions: list[np.ndarray]
    jacobians: list[np.ndarray]
    log_factor: list[np.ndarray]
    max_speed: float
    h_integral: list[np.ndarray]

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        for i, ti in enumerate(self.times):
            if abs(ti - t) <= 1e-12:
                return self.positions[i], self.jacobians[i], self.log_factor[i]
        raise KeyError(f"time {t} was not recorded")


def integrate_isotopy(
    grid: GridSpec,
    fields: Callable[[float], StageData],
    steps: int,
    record_times: list[float],
    seeds: np.ndarray,
) -> FlowState:
    """Classic RK4 on (x, J, L): dx = X, dJ = DX J, dL = rate, t in [0, 1].

    Spatial evaluation is exact trigonometric interpolation, so the
    global error is O(steps^-4) for smooth stage data.  fields is asked
    once for each of the 2 steps + 1 stage times: a step's end stage starts
    the next step.  The grid field h_values is integrated in time alongside,
    by Simpson's rule on each step's own stages k/s, (2k+1)/2s, (k+1)/s.
    Issues a StepCountTooSmall warning when max |X| dt exceeds half a grid
    cell; raises IsotopyDiverged on non-finite state.  The state of the
    seed points is recorded at record_times rounded to the step grid.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    rec_steps = {round(float(t) * steps) for t in record_times}

    pos = seeds.copy()
    jac = np.broadcast_to(np.eye(grid.n), (len(seeds), grid.n, grid.n)).copy()
    logf = np.zeros(len(seeds))
    h_int = np.zeros(grid.shape)
    dt = 1.0 / steps

    times: list[float] = []
    positions, jacobians, logs, h_ints = [], [], [], []

    def record(k: int):
        times.append(k / steps)
        positions.append(np.mod(pos, 1.0))
        jacobians.append(jac.copy())
        logs.append(logf.copy())
        h_ints.append(h_int)

    if 0 in rec_steps:
        record(0)

    max_speed = 0.0
    warned = False
    cfl_limit = 0.5 / grid.N
    s3 = fields(0.0)
    for k in range(steps):
        s1 = s3
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
        h_int = h_int + (dt / 6.0) * (s1.h_values + 4.0 * s2.h_values + s3.h_values)
        if k + 1 in rec_steps:
            record(k + 1)

    return FlowState(times, positions, jacobians, logs, max_speed, h_ints)


# -- pullback and conformal comparison -----------------------------------


@dataclass
class SampledForm:
    """A k-form known by its components at a finite point set."""

    grid: GridSpec
    degree: int
    comps: np.ndarray  # (ncomp, P)


def pullback_form(
    om: DiffForm,
    flow: FlowState,
    t: float,
) -> SampledForm:
    """phi_t^* omega on the seed set: J^T Omega(phi_t(x)) J per point.

    omega is read at phi_t(x) by the interpolator of the flow stages (modes
    below INTERP_REL_TOL of the largest dropped).  Only the strictly upper
    triangle of the congruence is stored, so the result is antisymmetric by
    construction.
    """
    grid = om.grid
    if om.degree != 2:
        raise ValueError("pullback_form expects a 2-form")
    pos, jac, _ = flow.at(t)
    vals = ModeInterpolator(grid, om.spectra(), INTERP_REL_TOL)(pos)
    mat = _matrix_of(vals, grid.n)
    back = np.einsum("pai,pab,pbj->pij", jac, mat, jac, optimize=True)
    comps = np.stack([back[:, i, j] for (i, j) in index_sets(grid.n, 2)])
    return SampledForm(grid, 2, comps)


@dataclass
class ConformalComparison:
    factor: np.ndarray
    consistency_error: float
    positive: bool


def conformal_compare(av: np.ndarray, bv: np.ndarray) -> ConformalComparison:
    """Extract the pointwise ratio a = factor * b and its spread.

    av and bv are (ncomp, P) component arrays at P points.  Componentwise
    ratios are averaged with weights |b_S|, using only components with
    |b_S| >= COMPARE_FLOOR * max |b|; the consistency error is the largest
    pointwise ratio spread divided by the mean factor magnitude.  Raises
    NoValidComponents when some point has no usable reference component.
    """
    if av.shape != bv.shape:
        raise ValueError("component shapes differ")
    bmax = float(np.max(np.abs(bv)))
    if bmax == 0.0:
        raise NoValidComponents("reference form vanishes")
    mask = np.abs(bv) >= COMPARE_FLOOR * bmax
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
    flow_identity_residual: float
    cor2_identity_residual: float | None


def verify_eq1(
    F: FormFamily,
    fields: Callable[[float], StageData],
    flow: FlowState,
) -> list[Eq1Record]:
    """Spectral residuals of the infinitesimal stability identities.

    At each time the flow recorded, flow_mis = d/dt omega + d_theta(i_X omega)
    - h omega (h is the h-term of the exact path, 0 on the theorem path);
    flow_mis = 0 makes d/dt (phi^* omega) = phi^*(rate * omega) hold, with
    rate = theta(X) + h, and the success verdict gates on it.
    flow_identity = ||flow_mis|| relative to max(||d omega/dt||, ||omega||);
    cor2 = ||e^g flow_mis||, g = -int_0^t h (the flow's h_integral), relative
    to max(||e^g (d omega/dt - h omega)||, ||e^g omega||), is the identity of
    the rescaled family e^g omega: d_{theta + dg}(e^g b) = e^g d_theta b
    makes its weight pointwise.  cor2 is formed only where h is a grid
    field (the exact path) and is None where h is the scalar 0.
    """
    grid = F.grid

    def norm(comps: np.ndarray) -> float:
        return DiffForm(grid, 2, comps).norm()

    out: list[Eq1Record] = []
    for t, h_int in zip(flow.times, flow.h_integral):
        L, st = F.omega_at(t), fields(t)
        om, dom, h = L.omega.comps, F.derivative_at(t).comps, st.h_values
        flow_mis = dom + d_theta(contract(st.x_form, L.omega), L.lee).comps - h * om
        cor2 = None
        if isinstance(h, np.ndarray):
            eg = np.exp(-h_int)
            cor2 = norm(eg * flow_mis) / max(norm(eg * (dom - h * om)), norm(eg * om))
        out.append(Eq1Record(norm(flow_mis) / max(norm(dom), norm(om)), cor2))
    return out


# -- reports --------------------------------------------------------------


@dataclass
class CheckpointRecord:
    t: float
    exactness_residual: float
    harmonic_obstruction: float
    conformal_consistency_error: float
    factor_error: float
    flow_identity_residual: float
    factor_min: float
    factor_max: float
    cor2_identity_residual: float | None

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
    max_flow_identity: float
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
    cert: ExactnessCertificate,
    label: str,
    opts: PipelineOptions,
    records: list[CheckpointRecord],
    factor_positive: bool,
    max_speed: float,
    stage_res: float,
) -> MoserReport:
    # np.max, unlike max(), keeps a NaN record, so every gate below fails on it
    max_ex, max_ob, max_cc, max_fe, max_fl = np.max(
        [(r.exactness_residual, r.harmonic_obstruction, r.conformal_consistency_error,
          r.factor_error, r.flow_identity_residual) for r in records], axis=0).tolist()
    cor2s = [r.cor2_identity_residual for r in records
             if r.cor2_identity_residual is not None]
    max_c2 = float(np.max(cor2s)) if cor2s else None
    ok = (
        max_ex <= opts.tol_exactness
        and max_ob <= opts.tol_exactness
        and max_cc <= opts.tol_consistency
        and max_fe <= opts.tol_factor
        and max_fl <= opts.tol_eq1
        and factor_positive
        and (max_c2 is None or max_c2 <= opts.tol_cor2)
    )
    grid = cert.family.grid
    return MoserReport(
        path=cert.path, label=label, grid=(grid.n, grid.N), steps=opts.steps,
        records=records, max_exactness=max_ex, max_obstruction=max_ob,
        max_consistency=max_cc, max_factor_error=max_fe,
        max_flow_identity=max_fl, max_cor2=max_c2,
        factor_positive=factor_positive, absorption_used=cert.used_absorption,
        absorption_log_final=cert.c_at(1.0), max_speed=max_speed,
        stage_solve_residual_max=stage_res, success=ok,
        verdict=("certified_conformally_equivalent" if ok
                 else "not_certified_in_canonical_gauge"),
    )


# -- pipelines ------------------------------------------------------------


def _checkpoint_compare(
    om_t: DiffForm,
    base: np.ndarray,
    flow: FlowState,
    t: float,
    opts: PipelineOptions,
) -> tuple[ConformalComparison, np.ndarray]:
    pos, jac, logf = flow.at(t)
    det = np.linalg.det(jac)
    if not float(det.min()) > 0.0:
        raise IsotopyDiverged(f"orientation lost at t={t}: min det J = {det.min():.3e}")
    pb = pullback_form(om_t, flow, t)
    if not float(np.min(np.abs(pfaffian_values(pb)))) >= opts.nondeg_margin:
        raise IsotopyDiverged(f"pullback degenerated at t={t}")
    return conformal_compare(pb.comps, base), np.exp(logf)


def _exact_provider(F: FormFamily, opts: PipelineOptions) -> ExactnessCertificate:
    """A supplied primitive, after checking its preconditions."""
    build = exact_stage_builder(F, opts)
    ed, grid = F.exact_data, F.grid
    times = opts.checkpoint_times()
    exact_res = []
    for t in times:
        L = F.omega_at(t)
        _validated(L.omega, opts)
        recon = d_theta(ed.alpha_at(t), L.lee)
        res = (recon - L.omega).norm() / max(L.omega.norm(), 1e-300)
        if not res <= opts.tol_lee_match:
            raise NotExactFamily(
                f"omega_t deviates from d_theta alpha_t by {res:.3e} at t={t}"
            )
        exact_res.append(res)
        theta_dot = fd_derivative(lambda u: F.omega_at(u).lee.one_form(),
                                  t, FD_STEP)
        dh = ext_d(scalar_form(grid, ed.h_at(t)))
        dev = (theta_dot - dh).norm() / max(theta_dot.norm(), 1.0)
        if not dev <= opts.tol_lee_match:
            raise InconsistentLeeDerivative(
                f"d theta/dt differs from d h by {dev:.3e} at t={t}"
            )

    return ExactnessCertificate("exact_family", F, F, build,
                                {t: build(t) for t in times}, exact_res, None)


def _run_moser(
    F: FormFamily,
    opts: PipelineOptions | None,
    provide: Callable[[FormFamily, PipelineOptions], ExactnessCertificate],
) -> MoserReport:
    """The one driver: flow, identity residuals, checkpoint comparison."""
    opts = opts or PipelineOptions()
    times = opts.checkpoint_times()
    cert = provide(F, opts)
    Fp = cert.certified
    stages = StageCache(cert.builder, cert.stages)
    seeds = Fp.grid.nodes()[:: opts.seed_stride]
    flow = integrate_isotopy(Fp.grid, stages, opts.steps, record_times=times,
                             seeds=seeds)
    eq1 = verify_eq1(Fp, stages, flow)
    # the seeds are grid nodes, so omega_0 is read off its node values
    om0 = Fp.omega_at(0.0).omega
    base = om0.comps.reshape(len(om0.comps), -1)[:, ::opts.seed_stride]

    records = []
    positive = True
    for i, t in enumerate(times):
        cc, predicted = _checkpoint_compare(Fp.omega_at(t).omega, base, flow, t, opts)
        positive = positive and cc.positive
        records.append(CheckpointRecord(
            t=t,
            exactness_residual=cert.residuals[i],
            harmonic_obstruction=cert.stages[t].obstruction,
            conformal_consistency_error=cc.consistency_error,
            factor_error=float(np.max(np.abs(cc.factor - predicted) / predicted)),
            flow_identity_residual=eq1[i].flow_identity_residual,
            factor_min=float(cc.factor.min()),
            factor_max=float(cc.factor.max()),
            cor2_identity_residual=eq1[i].cor2_identity_residual,
        ))
    return _assemble_report(cert, F.label, opts, records, positive,
                            flow.max_speed, stages.max_solve_residual)


def run_theorem_pipeline(
    F: FormFamily, opts: PipelineOptions | None = None
) -> MoserReport:
    """Full certify-solve-integrate-verify cycle via Hodge primitives."""
    return _run_moser(
        F, opts, lambda G, o: exactness_certificate(normalize_family(G, o), o))


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
