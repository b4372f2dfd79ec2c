"""Conformal stability engine for lcs families on flat tori.

Given a family omega_t whose Lee class stays fixed, this module
normalizes the family to a constant Lee form, certifies that the
(gauge-corrected) time derivative is twisted-exact, builds the
time-dependent vector field from the twisted primitive, integrates the
flow together with its Jacobian and conformal exponent, and verifies
pointwise that the pulled-back family stays conformally equivalent to
the initial form with the predicted factor.

One driver runs the flow, then per checkpoint the identity residuals and
the pullback comparison, then the report, on the ExactnessCertificate that
one of two primitive providers hands it, each behind a public entry point:
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
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import DomainError
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
    NONDEG_THRESHOLD,
    DegenerateForm,
    LcsForm,
    LeeForm,
    component_means,
    d_theta,
    lee_form,
    pfaffian_inverse,
    pfaffian_values,
    snap_lee,
    solve_primitive,
)


class LeeClassDrift(DomainError, ValueError):
    """The harmonic Lee coefficients change with t: no isotopy can exist."""


class NotExact(DomainError, ValueError):
    """A stage's harmonic obstruction survives scalar absorption: not
    certified in the canonical gauge."""


class NotExactFamily(DomainError, ValueError):
    """Supplied primitive does not reproduce omega_t."""


class InconsistentLeeDerivative(DomainError, ValueError):
    """d/dt theta_t does not match d h_t."""


class InconsistentLeeData(DomainError, ValueError):
    """A family's Lee data miss the Lee form extracted from its 2-form."""


class IsotopyDiverged(DomainError, ArithmeticError):
    """Flow state became non-finite or the pullback degenerated."""


class NoValidComponents(DomainError, ValueError):
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
LEE_DATA_TOL = 1e-6     # family Lee data may miss their extraction by this * max(1, |theta|)

# gate tolerances, keyed as the runner's report echoes them; lee_match bounds
# Lee-class drift and the exact path's primitive and Lee-derivative checks
TOLERANCES = {"consistency": 1e-3, "factor": 1e-3, "eq1": 1e-6,
              "exactness": 1e-9, "lee_match": 1e-8, "cor2": 1e-8}

# the report's gates: (report maximum, CheckpointRecord field, TOLERANCES key);
# the cor2 field is None on the theorem path, which has no h-term
GATES = (
    ("max_exactness", "exactness_residual", "exactness"),
    ("max_obstruction", "harmonic_obstruction", "exactness"),
    ("max_consistency", "conformal_consistency_error", "consistency"),
    ("max_factor_error", "factor_error", "factor"),
    ("max_flow_identity", "flow_identity_residual", "eq1"),
    ("max_cor2", "cor2_identity_residual", "cor2"),
)


@dataclass(frozen=True)
class PipelineOptions:
    """The run shape shared by both pipelines; gate thresholds are the
    constants TOLERANCES, twisted.NONDEG_THRESHOLD and twisted.LCS_TOL.

    Checked when built (ValueError), and frozen after: steps, checkpoints
    and seed_stride are integers, steps >= 1, seed_stride >= 1 and
    2 <= checkpoints <= steps + 1.
    """

    steps: int = 200
    checkpoints: int = 11
    seed_stride: int = 1
    allow_scalar_absorption: bool = True

    def __post_init__(self):
        for key, least in (("steps", 1), ("checkpoints", 2), ("seed_stride", 1)):
            v = getattr(self, key)
            if not (type(v) is int and v >= least):  # bools fail
                raise ValueError(f"{key} must be an integer >= {least}, got {v!r}")
        # a checkpoint is a step time, and there are steps + 1 of them
        if self.checkpoints > self.steps + 1:
            raise ValueError(f"checkpoints must be at most steps + 1 = {self.steps + 1} "
                             f"with steps = {self.steps}, got {self.checkpoints}")

    def checkpoint_times(self) -> list[float]:
        """Uniform checkpoint times snapped onto the step grid; no two
        coincide, since at most steps + 1 are asked for."""
        raw = np.linspace(0.0, 1.0, self.checkpoints)
        return (np.round(raw * self.steps) / self.steps).tolist()


# -- family normalization -------------------------------------------------


def normalize_family(F: FormFamily, opts: PipelineOptions | None = None) -> FormFamily:
    """Gauge every sample to its constant (harmonic) Lee representative.

    The one Lee extraction of the theorem path.  Validates omega_t at each
    sample time and at each checkpoint time that is not one, checks there
    that the family's Lee data match the extracted ones and that the
    harmonic Lee coefficients are t-independent (LeeClassDrift otherwise),
    and returns a family whose samples have constant Lee form theta_h
    (snapped once, by snap_lee, for every reader).  Families
    that already carry a constant Lee form keep their 2-forms and their
    analytic derivative, with theta_h as the samples' Lee form; otherwise
    the gauged samples e^{-g} omega are validated at the checkpoints.
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
        lee = lee_form(L.omega)
        claimed = L.lee
        if grid.n > 2:
            gap = LeeForm(grid, lee.harmonic - claimed.harmonic,
                          lee.potential - claimed.potential)
            dev = gap.one_form().norm()
            scale = max(1.0, claimed.one_form().norm())
            if not dev <= LEE_DATA_TOL * scale:
                raise InconsistentLeeData(
                    f"family Lee data inconsistent with extraction at t={t}: "
                    f"deviation {dev:.3e}"
                )
        sample_lees.append(claimed)

    c0 = sample_lees[0].harmonic
    scale = max(1.0, float(np.max(np.abs(c0))))
    for t, lee in zip(times, sample_lees):
        drift = float(np.max(np.abs(lee.harmonic - c0)))
        if not drift <= TOLERANCES["lee_match"] * scale:
            raise LeeClassDrift(
                f"harmonic Lee coefficients move by {drift:.3e} at t={t}: "
                "the Lee class is not t-independent, so no conformal isotopy "
                "can connect the family"
            )

    theta_h = snap_lee(c0, grid.n)
    lee_const = LeeForm.constant(grid, theta_h)
    if not any(lee.potential.any() for lee in sample_lees):
        return FormFamily(grid, lambda t: LcsForm(F.omega_at(t).omega, lee_const),
                          F.derivative_at, F.times, theta_h=theta_h)

    def omega_n_at(t: float) -> LcsForm:
        L = F.omega_at(t)
        f = np.exp(-L.lee.potential)
        w = DiffForm(grid, 2, L.omega.comps * f[None])
        return LcsForm(w, lee_const)

    def derivative_n_at(t: float) -> DiffForm:
        return fd_derivative(lambda u: omega_n_at(u).omega, t, FD_STEP)

    for t in checkpoints:
        lee_form(omega_n_at(t).omega)
    return FormFamily(grid, omega_n_at, derivative_n_at, F.times, theta_h=theta_h)


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

    certified is the family the flow runs on, the absorbed one when
    absorption is used.  stages builds the stage at any time and keeps the
    checkpoint stages, which the provider built; residuals are the
    exactness residuals per checkpoint.  gauge is the absorption gauge
    c(t), None without absorption.  Absorption certifies H(d omega/dt) =
    a(t) H(omega_t), so the constant gauge f -> e^{c(t)} f with dc/dt =
    -a(t) has the closed form c(t) = log(|H(omega_0)|^2 /
    H(omega_t).H(omega_0)), evaluated on the normalized family.
    """

    path: str
    certified: FormFamily
    stages: StageCache
    residuals: list[float]
    gauge: Callable[[float], float] | None

    @property
    def used_absorption(self) -> bool:
        return self.gauge is not None

    def c_at(self, t: float) -> float:
        return 0.0 if self.gauge is None else self.gauge(t)


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
    h0 = gauge = None
    if opts.allow_scalar_absorption and not F.theta_h.any():
        rates = [_absorption_rate(F.derivative_at(t), F.omega_at(t).omega)
                 for t in times]
        if any(abs(a) > RATE_FLOOR for a in rates):
            h0 = component_means(F.omega_at(0.0).omega)

            def gauge(t: float) -> float:
                return _gauge_log(h0, F.omega_at(t).omega, t)
    # an absorbed e^c omega keeps the Lee form normalize_family validated,
    # and moser_vector_field gates its Pfaffian margin in each stage build
    Fa = absorbed_family(F, h0)
    build = theorem_stage_builder(Fa, opts)
    kept = {t: build(t) for t in times}
    return ExactnessCertificate("theorem", Fa, StageCache(build, kept),
                                [s.solve_residual for s in kept.values()], gauge)


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


def moser_vector_field(om: DiffForm, alpha: DiffForm) -> DiffForm:
    """Solve i_X omega = -alpha pointwise; X returned as a degree-1 form.

    In coefficients this is Omega X = alpha with Omega_ij = omega(e_i, e_j),
    solved in closed form as X = B alpha / Pf (twisted.pfaffian_inverse).
    Raises DegenerateForm if the Pfaffian margin is below NONDEG_THRESHOLD
    or the back-substitution residual exceeds BACKSUB_TOL relative to alpha.
    """
    grid = om.grid
    if om.degree != 2 or alpha.degree != 1:
        raise ValueError("need a 2-form omega and a 1-form alpha")
    inv = pfaffian_inverse(om.comps, NONDEG_THRESHOLD)
    # Omega^-1 alpha = -i_alpha Omega^-1, and i_X omega + alpha = alpha - Omega X
    x = -contract_axes(alpha.comps, inv, grid.n, 2)
    resid = float(np.max(np.abs(contract_axes(x, om.comps, grid.n, 2) + alpha.comps)))
    ref = max(float(np.max(np.abs(alpha.comps))), 1e-300)
    if not resid / ref <= BACKSUB_TOL:
        raise DegenerateForm(
            f"back-substitution residual {resid / ref:.3e} above "
            f"{BACKSUB_TOL:.1e}: solve unreliable"
        )
    return DiffForm(grid, 1, x)


# -- stage data and cached providers -------------------------------------


class StageData:
    """Velocity, velocity Jacobian and log-factor rate at one stage time.

    Point evaluation shares a single trigonometric interpolator built from
    the spectra of X and of rate_values = theta(X) + h, a grid field; it
    forms the n^2 gradient coefficients of X on its kept modes only, so
    eval returns X, grad X and the rate.  h_values is the h-term of the
    exact path (0 on the theorem path).
    solve_residual / obstruction are the Hodge solve's relative residual
    and harmonic obstruction (zero on the exact path, which solves nothing).
    """

    def __init__(self, x_form: DiffForm, rate_values: np.ndarray,
                 h_values: np.ndarray | float, solve_residual: float = 0.0,
                 obstruction: float = 0.0):
        grid = x_form.grid
        n = grid.n
        rate = scalar_form(grid, rate_values).spectra()
        self.n = n
        self.x_form = x_form
        self.h_values = h_values
        self.solve_residual = solve_residual
        self.obstruction = obstruction
        self.max_speed = float(x_form.max_abs())
        self._interp = ModeInterpolator(grid, np.concatenate((x_form.spectra(), rate)),
                                        INTERP_REL_TOL, gradients=n)

    def eval(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(velocity (P,n), velocity Jacobian (P,n,n), rate (P,))."""
        n = self.n
        out = self._interp(points)
        vel = out[:n].T
        jac = out[n:n + n * n].T.reshape(-1, n, n)
        return vel, jac, out[-1]


class StageCache:
    """Stages by time: a kept stage if there is one, else a fresh build.

    The providers build the checkpoint stages before integration and keep
    them here, in their certificate; integrate_isotopy asks for every other
    stage time once, so nothing else is stored.  _run_moser reads the kept
    stages again at the checkpoints.
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
    RESIDUAL_FLOOR * ||omega||); an obstruction above TOLERANCES["exactness"]
    raises NotExact before the vector field is built.
    """
    theta_h = F.theta_h
    tol = TOLERANCES["exactness"]

    def build(t: float) -> StageData:
        om, dom = F.omega_at(t).omega, F.derivative_at(t)
        sol = solve_primitive(dom, theta_h)
        dom_norm = dom.norm()
        den = max(dom_norm, RESIDUAL_FLOOR * om.norm())
        obstruction = sol.harmonic_part_norm / den
        if not obstruction <= tol:
            raise NotExact(
                f"harmonic obstruction {obstruction:.3e} at t={t} exceeds "
                f"{tol:.1e} ({_obstruction_hint(om, dom, theta_h, opts)}); "
                "family not certified in the canonical gauge")
        x = moser_vector_field(om, sol.primitive)
        rate = np.tensordot(theta_h, x.comps, axes=1)
        return StageData(x, rate, 0.0, solve_residual=sol.residual * dom_norm / den,
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
    d alpha/dt - h alpha.  opts is unread: it keeps the signature of
    theorem_stage_builder."""
    ed = F.exact_data
    if ed is None:
        raise ValueError("family has no exact primitive data")

    def build(t: float) -> StageData:
        L, h, al = F.omega_at(t), ed.h_at(t), ed.alpha_at(t)
        beta = DiffForm(F.grid, 1, ed.alpha_dot_at(t).comps - h * al.comps)
        x = moser_vector_field(L.omega, beta)
        theta_x = np.einsum("i...,i...->...", L.lee.one_form().comps, x.comps)
        return StageData(x, theta_x + h, h)

    return build


# -- flow integration -----------------------------------------------------


@dataclass
class FlowState:
    """Snapshots of the isotopy and the largest speed the sweep met.

    snapshots[t] = (positions, Jacobians, log factor, int_0^t h) of the
    seed points, the last a grid field, keyed by t = k / steps: the same
    floats PipelineOptions.checkpoint_times yields.
    """

    snapshots: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    max_speed: float


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
    The sweep holds one stage output at a time, besides the running RK4
    sums, J and the snapshots: nothing from one step is alive while the
    next step builds its stages.
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
    snapshots = {}

    def record(k: int):
        # every update below rebinds jac, logf and h_int, so no copies
        snapshots[k / steps] = (np.mod(pos, 1.0), jac, logf, h_int)

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

        vel, d, rate = s1.eval(pos)
        speed = float(np.max(np.abs(vel)))
        max_speed = max(max_speed, speed, s1.max_speed)
        if not warned and max_speed * dt > cfl_limit:
            warnings.warn(
                f"step size {dt:.3e} moves up to {max_speed * dt:.3e} "
                f"(> {cfl_limit:.3e}, half a grid cell); increase steps",
                StepCountTooSmall,
                stacklevel=2,
            )
            warned = True
        # Running sums of k1 + 2 k2 + 2 k3 + k4, each stage added as it lands,
        # left to right: the same float operations as the closed sum.  A
        # stage's output is dropped once the next stage's input is formed;
        # the sums are contiguous (velocity in the interpolator's (n, P) rows).
        jk = d @ jac
        sum_v, sum_j, sum_r = vel.T.copy(), jk, rate.copy()
        j_in = np.empty_like(jac)
        for stage, c, w in ((s2, 0.5, 2.0), (s2, 0.5, 2.0), (s3, 1.0, 1.0)):
            x_in = pos + c * dt * vel
            np.add(jac, np.multiply(c * dt, jk, out=j_in), out=j_in)
            del vel, d, rate, jk
            vel, d, rate = stage.eval(x_in)
            jk = d @ j_in
            sum_v += w * vel.T
            sum_j += np.multiply(w, jk, out=j_in)
            sum_r += w * rate

        pos = pos + (dt / 6.0) * sum_v.T
        jac = np.add(jac, np.multiply(dt / 6.0, sum_j, out=sum_j), out=sum_j)
        logf = logf + (dt / 6.0) * sum_r
        del vel, d, rate, jk, j_in, x_in, sum_v, sum_j, sum_r

        for name, arr in (("positions", pos), ("Jacobians", jac), ("log factors", logf)):
            if not np.all(np.isfinite(arr)):
                raise IsotopyDiverged(f"non-finite {name} after step {k + 1}")
        h_int = h_int + (dt / 6.0) * (s1.h_values + 4.0 * s2.h_values + s3.h_values)
        if k + 1 in rec_steps:
            record(k + 1)

    return FlowState(snapshots, max_speed)


# -- pullback and conformal comparison -----------------------------------


def pullback_form(om: DiffForm, positions: np.ndarray,
                  jacobians: np.ndarray) -> np.ndarray:
    """The (ncomp, P) components of phi_t^* omega at the seeds, from the
    flow's positions phi_t(x) (P, n) and Jacobians J (P, n, n) there:
    J^T Omega(phi_t(x)) J per point.

    omega is read at phi_t(x) by the interpolator of the flow stages (modes
    below INTERP_REL_TOL of the largest dropped).  Only the strictly upper
    triangle of the congruence is stored, so the result is antisymmetric by
    construction.
    """
    grid = om.grid
    if om.degree != 2:
        raise ValueError("pullback_form expects a 2-form")
    vals = ModeInterpolator(grid, om.spectra(), INTERP_REL_TOL)(positions)
    mat = _matrix_of(vals, grid.n)
    back = np.einsum("pai,pab,pbj->pij", jacobians, mat, jacobians, optimize=True)
    return np.stack([back[:, i, j] for (i, j) in index_sets(grid.n, 2)])


@dataclass
class ConformalComparison:
    factor: np.ndarray
    consistency_error: float


def conformal_compare(av: np.ndarray, bv: np.ndarray) -> ConformalComparison:
    """Extract the pointwise ratio a = factor * b and how far a is from it.

    av and bv are (ncomp, P) component arrays at P points.  Componentwise
    ratios are averaged with weights |b_S|, using only components with
    |b_S| >= COMPARE_FLOOR * max |b|.  The consistency error is the larger
    of the largest pointwise ratio spread divided by the mean factor
    magnitude and the all-component residual max_x |a ^ b| / |<a, b>|,
    |a ^ b|^2 = sum_{S<T} (a_S b_T - a_T b_S)^2 (Lagrange's identity), which
    also reads the components where b vanishes; a NaN in either makes it
    NaN.  Raises NoValidComponents when some point has no usable reference
    component.
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
    wedge2 = np.zeros(av.shape[1])
    for s, t in combinations(range(len(av)), 2):
        wedge2 += (av[s] * bv[t] - av[t] * bv[s]) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = np.sqrt(wedge2) / np.abs((av * bv).sum(axis=0))
    # np.max, unlike max(), keeps a NaN of either measure
    return ConformalComparison(
        factor=factor,
        consistency_error=float(np.max([float(np.max(spread)) / mean_f,
                                        float(np.max(residual))])),
    )


# -- residual diagnostics -------------------------------------------------


def verify_eq1(L: LcsForm, dom: DiffForm, stage: StageData,
               h_int: np.ndarray) -> tuple[float, float | None]:
    """Spectral residuals of the infinitesimal stability identities at one time.

    With L = (omega, theta) and dom = d omega/dt at t, and the stage at t,
    flow_mis = d/dt omega + d_theta(i_X omega) - h omega (h is the h-term of
    the exact path, 0 on the theorem path); flow_mis = 0 makes d/dt
    (phi^* omega) = phi^*(rate * omega) hold, with rate = theta(X) + h, and
    the success verdict gates on it.  Returns (flow_identity, cor2):
    flow_identity = ||flow_mis|| relative to max(||d omega/dt||, ||omega||);
    cor2 = ||e^g flow_mis||, g = -int_0^t h (h_int, the flow's snapshot),
    relative to max(||e^g (d omega/dt - h omega)||, ||e^g omega||), is the
    identity of the rescaled family e^g omega: d_{theta + dg}(e^g b) = e^g
    d_theta b makes its weight pointwise.  cor2 is formed only where h is a
    grid field (the exact path) and is None where h is the scalar 0.
    """
    grid = dom.grid

    def norm(comps: np.ndarray) -> float:
        return DiffForm(grid, 2, comps).norm()

    om, dom, h = L.omega.comps, dom.comps, stage.h_values
    flow_mis = dom + d_theta(contract(stage.x_form, L.omega), L.lee).comps - h * om
    cor2 = None
    if isinstance(h, np.ndarray):
        eg = np.exp(-h_int)
        cor2 = norm(eg * flow_mis) / max(norm(eg * (dom - h * om)), norm(eg * om))
    return norm(flow_mis) / max(norm(dom), norm(om)), cor2


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
    max_speed: float,
) -> MoserReport:
    # a NaN fails the sign test, and its gate through np.max (max() may skip it)
    factor_positive = all(r.factor_min > 0.0 for r in records)
    maxima, ok = {}, factor_positive
    for name, field, key in GATES:
        values = [v for r in records if (v := getattr(r, field)) is not None]
        maxima[name] = float(np.max(values)) if values else None
        ok = ok and (not values or maxima[name] <= TOLERANCES[key])
    grid = cert.certified.grid
    return MoserReport(
        path=cert.path, label=label, grid=(grid.n, grid.N), steps=opts.steps,
        records=records, **maxima, factor_positive=factor_positive,
        absorption_used=cert.used_absorption, absorption_log_final=cert.c_at(1.0),
        max_speed=max_speed, stage_solve_residual_max=cert.stages.max_solve_residual,
        success=ok,
        verdict=("certified_conformally_equivalent" if ok
                 else "not_certified_in_canonical_gauge"),
    )


# -- pipelines ------------------------------------------------------------


def _exact_provider(F: FormFamily, opts: PipelineOptions) -> ExactnessCertificate:
    """A supplied primitive, after checking its preconditions."""
    build = exact_stage_builder(F, opts)
    ed, grid = F.exact_data, F.grid
    times = opts.checkpoint_times()
    exact_res = []
    for t in times:
        L = F.omega_at(t)
        lee_form(L.omega)
        recon = d_theta(ed.alpha_at(t), L.lee)
        res = (recon - L.omega).norm() / max(L.omega.norm(), 1e-300)
        if not res <= TOLERANCES["lee_match"]:
            raise NotExactFamily(
                f"omega_t deviates from d_theta alpha_t by {res:.3e} at t={t}"
            )
        exact_res.append(res)
        theta_dot = fd_derivative(lambda u: F.omega_at(u).lee.one_form(),
                                  t, FD_STEP)
        dh = ext_d(scalar_form(grid, ed.h_at(t)))
        dev = (theta_dot - dh).norm() / max(theta_dot.norm(), 1.0)
        if not dev <= TOLERANCES["lee_match"]:
            raise InconsistentLeeDerivative(
                f"d theta/dt differs from d h by {dev:.3e} at t={t}"
            )

    return ExactnessCertificate("exact_family", F,
                                StageCache(build, {t: build(t) for t in times}),
                                exact_res, None)


def _run_moser(
    F: FormFamily,
    opts: PipelineOptions | None,
    provide: Callable[[FormFamily, PipelineOptions], ExactnessCertificate],
) -> MoserReport:
    """The one driver: flow, then per checkpoint the identity residuals and
    the pullback comparison, from one read of omega_t."""
    opts = opts or PipelineOptions()
    times = opts.checkpoint_times()
    cert = provide(F, opts)
    Fp, stages = cert.certified, cert.stages
    seeds = Fp.grid.nodes()[:: opts.seed_stride]
    flow = integrate_isotopy(Fp.grid, stages, opts.steps, record_times=times,
                             seeds=seeds)

    records, base = [], None
    for t, residual in zip(times, cert.residuals):
        L, stage = Fp.omega_at(t), stages(t)
        pos, jac, logf, h_int = flow.snapshots[t]
        flow_identity, cor2 = verify_eq1(L, Fp.derivative_at(t), stage, h_int)
        det = np.linalg.det(jac)
        if not float(det.min()) > 0.0:
            raise IsotopyDiverged(f"orientation lost at t={t}: min det J = {det.min():.3e}")
        pb = pullback_form(L.omega, pos, jac)
        if not float(np.min(np.abs(pfaffian_values(pb)))) >= NONDEG_THRESHOLD:
            raise IsotopyDiverged(f"pullback degenerated at t={t}")
        # t = 0 comes first; the seeds are grid nodes, so omega_0 is its node values
        if base is None:
            base = L.omega.comps.reshape(len(L.omega.comps), -1)[:, ::opts.seed_stride]
        cc = conformal_compare(pb, base)
        predicted = np.exp(logf)
        records.append(CheckpointRecord(
            t=t,
            exactness_residual=residual,
            harmonic_obstruction=stage.obstruction,
            conformal_consistency_error=cc.consistency_error,
            factor_error=float(np.max(np.abs(cc.factor - predicted) / predicted)),
            flow_identity_residual=flow_identity,
            factor_min=float(cc.factor.min()),
            factor_max=float(cc.factor.max()),
            cor2_identity_residual=cor2,
        ))
    return _assemble_report(cert, F.label, opts, records, flow.max_speed)


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
