"""End-to-end runs of both certification pipelines on small grids."""

import dataclasses
import warnings

import numpy as np
import pytest

from lcsflow.families import (
    ExactData,
    FormFamily,
    area_interpolation_family,
    contact_circle_family,
    corollary_two_family,
    gcs_rescale_family,
    lee_drift_family,
)
from lcsflow import moser, twisted
from lcsflow.forms import DiffForm, GridSpec, form_from_components, random_band_limited
from lcsflow.moser import (
    InconsistentLeeDerivative,
    IsotopyDiverged,
    LeeClassDrift,
    NotExact,
    NotExactFamily,
    PipelineOptions,
    run_exact_family,
    run_theorem_pipeline,
)
from lcsflow.twisted import LcsForm, LeeForm, pfaffian_values
from oracles import GridIsometry

T2 = GridSpec(2, 32)
T4 = GridSpec(4, 8)


def test_area_interpolation_is_certified():
    fam = area_interpolation_family(T2, eps=0.4)
    opts = PipelineOptions(steps=40, checkpoints=5, seed_stride=2)
    rep = run_theorem_pipeline(fam, opts)
    assert rep.success
    assert rep.verdict == "certified_conformally_equivalent"
    assert not rep.absorption_used
    assert rep.max_factor_error < 1e-6
    assert rep.max_flow_identity < 1e-10
    # classical symplectic case: the factor is exactly 1
    for r in rep.records:
        assert abs(r.factor_min - 1.0) < 1e-5
        assert abs(r.factor_max - 1.0) < 1e-5


def test_area_growth_is_absorbed_into_the_gauge():
    sigma = 0.5
    fam = area_interpolation_family(T2, eps=0.3, sigma=sigma)
    opts = PipelineOptions(steps=40, checkpoints=5, seed_stride=2)
    rep = run_theorem_pipeline(fam, opts)
    assert rep.success
    assert rep.absorption_used
    assert abs(rep.absorption_log_final + np.log1p(sigma)) < 1e-8
    assert rep.max_factor_error < 1e-6


def test_absorption_disabled_raises_not_exact():
    fam = area_interpolation_family(T2, eps=0.3, sigma=0.5)
    opts = PipelineOptions(steps=10, checkpoints=3,
                           allow_scalar_absorption=False)
    with pytest.raises(NotExact):
        run_theorem_pipeline(fam, opts)


def test_global_rescale_needs_no_motion():
    fam = gcs_rescale_family(T2, amp=0.25)
    opts = PipelineOptions(steps=20, checkpoints=3, seed_stride=2)
    rep = run_theorem_pipeline(fam, opts)
    assert rep.success
    # after gauge normalization the family is constant: X ~ 0
    assert rep.max_speed < 1e-10
    assert rep.max_factor_error < 1e-10


def test_lee_class_drift_is_rejected():
    fam = lee_drift_family(GridSpec(4, 8))
    with pytest.raises(LeeClassDrift):
        run_theorem_pipeline(fam, PipelineOptions(steps=10, checkpoints=3))


def test_contact_family_through_the_theorem_path():
    fam = contact_circle_family(T4)
    opts = PipelineOptions(steps=20, checkpoints=3, seed_stride=4)
    rep = run_theorem_pipeline(fam, opts)
    assert rep.success
    assert rep.path == "theorem"
    # X = (-s / 2 pi, 0, 0, 0) for the rotating coframe
    assert abs(rep.max_speed - 0.125) < 1e-10
    assert rep.max_flow_identity < 1e-9
    assert rep.max_cor2 is None
    for r in rep.records:
        assert abs(r.factor_min - 1.0) < 1e-6


def test_contact_family_through_the_exact_path():
    fam = contact_circle_family(T4)
    opts = PipelineOptions(steps=20, checkpoints=3, seed_stride=4)
    rep = run_exact_family(fam, opts)
    assert rep.success
    assert rep.path == "exact_family"
    assert rep.max_cor2 is not None
    assert rep.max_cor2 < 1e-10
    assert rep.max_exactness < 1e-10
    assert abs(rep.max_speed - 0.125) < 1e-10


def test_both_paths_agree_on_the_contact_family():
    fam = contact_circle_family(T4)
    opts = PipelineOptions(steps=16, checkpoints=3, seed_stride=4)
    a = run_theorem_pipeline(fam, opts)
    b = run_exact_family(fam, opts)
    assert a.success and b.success
    assert abs(a.max_speed - b.max_speed) < 1e-11
    # both see the same trivial conformal factor
    assert a.max_factor_error < 1e-8 and b.max_factor_error < 1e-8


def test_drifting_exact_lee_family():
    fam = corollary_two_family(GridSpec(4, 16), a=0.3)
    opts = PipelineOptions(steps=12, checkpoints=3, seed_stride=8)
    rep = run_exact_family(fam, opts)
    assert rep.success
    # gauge-weighted misfits: rounding level, not the truncation of e^g
    assert rep.max_cor2 < 1e-13
    assert rep.max_flow_identity < 1e-13
    # theta(X) + h = 0 pointwise: factor prediction stays 1
    for r in rep.records:
        assert abs(r.factor_min - 1.0) < 1e-6
        assert abs(r.factor_max - 1.0) < 1e-6


@pytest.mark.filterwarnings("ignore::lcsflow.moser.StepCountTooSmall")
def test_exact_path_builds_stages_only_at_rk4_stage_times(monkeypatch):
    # theta(X) is nonzero on this family, yet the h integral behind the
    # cor2 residual comes from the RK4 sweep: every stage is built at some
    # k / (2 steps)
    built = []
    make = moser.exact_stage_builder

    def recording(F, opts):
        build = make(F, opts)

        def traced(t):
            built.append(t)
            return build(t)
        return traced

    monkeypatch.setattr(moser, "exact_stage_builder", recording)
    steps = 4
    fam = corollary_two_family(GridSpec(4, 16), a=0.3, n_times=3)
    rep = run_exact_family(fam, PipelineOptions(steps=steps, checkpoints=3,
                                                seed_stride=8))
    assert rep.max_cor2 < 1e-8
    assert all(abs(2 * steps * t - round(2 * steps * t)) < 1e-9 for t in built)
    assert len(set(built)) == 2 * steps + 1


def test_theorem_path_builds_each_stage_time_once(monkeypatch):
    # the certificate builds the checkpoint stages, the sweep builds the
    # rest, verify_eq1 reads the checkpoint stages again: 2 steps + 1 = 11
    # stage times, each built and Hodge-solved once
    built = []
    make = moser.theorem_stage_builder
    solves = []
    solve = moser.solve_primitive

    def recording(F, opts):
        build = make(F, opts)

        def traced(t):
            built.append(t)
            return build(t)
        return traced

    def counting_solve(target, theta):
        solves.append(target)
        return solve(target, theta)

    monkeypatch.setattr(moser, "theorem_stage_builder", recording)
    monkeypatch.setattr(moser, "solve_primitive", counting_solve)
    steps = 5
    rep = run_theorem_pipeline(contact_circle_family(T4), PipelineOptions(
        steps=steps, checkpoints=6, seed_stride=8))
    assert rep.success
    assert len(built) == len(set(built)) == 2 * steps + 1
    assert len(solves) == 2 * steps + 1


@pytest.mark.parametrize("make, steps, checkpoints, calls", [
    (lambda: contact_circle_family(T4, n_times=3), 4, 3, 3),
    (lambda: contact_circle_family(T4, n_times=3), 4, 5, 5),
    (lambda: gcs_rescale_family(T2, amp=0.25), 20, 3, 14),
])
def test_theorem_path_extracts_each_lee_form_once(monkeypatch, make, steps,
                                                  checkpoints, calls):
    # normalize_family validates each sample time and each checkpoint time
    # that is not a sample time once; a pointwise-gauged family also
    # validates its gauged samples e^{-g} omega at the checkpoints
    count = []
    lee_form = twisted.lee_form

    def counting(*args, **kwargs):
        count.append(1)
        return lee_form(*args, **kwargs)

    monkeypatch.setattr(twisted, "lee_form", counting)
    fam = make()
    rep = run_theorem_pipeline(fam, PipelineOptions(
        steps=steps, checkpoints=checkpoints, seed_stride=8))
    assert rep.success
    assert len(count) == calls


def _sign_flip_family(grid):
    """Constant-coefficient T^4 symplectic family whose harmonic part is a
    negative multiple of H(omega_0) at t = 1/4 and 3/4, but a positive one
    at the checkpoints 0, 1/2 and 1:

        omega_t = (1 + t) cos(4 pi t) (dx12 + dx34)
                  + sin^2(4 pi t) (dx13 - dx24) + 0.2 pi t cos(2 pi x1) dx12.
    """
    x1 = grid.coordinates()[0]
    bump = 0.2 * np.pi * np.cos(2.0 * np.pi * x1) * np.ones(grid.shape)
    lee = LeeForm.zero(grid)

    def parts(a, b, c):
        one = np.ones(grid.shape)
        return {(0, 1): a * one + c * bump, (2, 3): a * one,
                (0, 2): b * one, (1, 3): -b * one}

    def omega_at(t):
        a = (1.0 + t) * np.cos(4.0 * np.pi * t)
        return LcsForm(form_from_components(grid, 2, parts(
            a, np.sin(4.0 * np.pi * t) ** 2, t)), lee)

    def derivative_at(t):
        a = np.cos(4.0 * np.pi * t) - 4.0 * np.pi * (1.0 + t) * np.sin(4.0 * np.pi * t)
        return form_from_components(grid, 2, parts(
            a, 4.0 * np.pi * np.sin(8.0 * np.pi * t), 1.0))

    return FormFamily(grid, omega_at, derivative_at, np.linspace(0.0, 1.0, 3),
                      theta_h=np.zeros(4), label="sign_flip")


def test_undefined_absorption_gauge_raises_not_exact():
    # the checkpoint rates ask for absorption, but e^c H(omega_t) = H(omega_0)
    # has no solution at t = 1/4: the gate names that stage time instead of
    # passing a NaN obstruction and a zero velocity
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotExact, match=r"at t=0\.25 "):
            run_theorem_pipeline(_sign_flip_family(T4), PipelineOptions(
                steps=2, checkpoints=3))


def _sinusoidal_area_family(grid):
    """T^2 area family whose total area moves at a rate ~ sin 2 pi t.

    omega_t = (1 + amp (1 - cos 2 pi t)) (1 + t eps bump) dx1 ^ dx2 with a
    mean-free bump: the absorption rate is 0 at t = 0, 1/2 and 1 only.
    """
    amp, eps = 0.05, 0.1
    x1, x2 = grid.coordinates()
    bump = np.sin(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2)
    bump = bump - np.mean(bump)
    lee = LeeForm.zero(grid)

    def area(t):
        return 1.0 + amp * (1.0 - np.cos(2.0 * np.pi * t))

    def omega_at(t):
        vals = area(t) * (1.0 + t * eps * bump)
        return LcsForm(form_from_components(grid, 2, {(0, 1): vals}), lee)

    def derivative_at(t):
        rate = amp * 2.0 * np.pi * np.sin(2.0 * np.pi * t)
        vals = rate * (1.0 + t * eps * bump) + area(t) * eps * bump
        return form_from_components(grid, 2, {(0, 1): vals})

    return FormFamily(grid, omega_at, derivative_at, np.linspace(0.0, 1.0, 3),
                      theta_h=np.zeros(2), label="sinusoidal_area")


@pytest.mark.parametrize("absorb, hint", [
    (True, "vanished at every checkpoint"),
    (False, "scalar absorption disabled"),
])
def test_obstruction_between_checkpoints_raises_not_exact(absorb, hint):
    # every checkpoint is exact and absorbs nothing, the first mid-step
    # stage is not: the gate sits at every stage time
    fam = _sinusoidal_area_family(GridSpec(2, 16))
    opts = PipelineOptions(steps=8, checkpoints=3,
                           allow_scalar_absorption=absorb)
    with pytest.raises(NotExact, match=r"at t=0\.0625 .*" + hint):
        run_theorem_pipeline(fam, opts)


def test_corrupted_primitive_is_rejected():
    fam = contact_circle_family(T4)
    bad = FormFamily(
        fam.grid, fam.omega_at, fam.derivative_at, fam.times,
        exact_data=ExactData(
            lambda t: fam.exact_data.alpha_at(t) * 1.01,
            fam.exact_data.h_at,
            lambda t: fam.exact_data.alpha_dot_at(t) * 1.01,
        ),
        theta_h=fam.theta_h, label="bad_alpha",
    )
    with pytest.raises(NotExactFamily):
        run_exact_family(bad, PipelineOptions(steps=8, checkpoints=3))


def test_wrong_lee_rate_is_rejected():
    fam = contact_circle_family(T4)
    x1 = fam.grid.coordinates()[0]
    bad = FormFamily(
        fam.grid, fam.omega_at, fam.derivative_at, fam.times,
        exact_data=ExactData(
            fam.exact_data.alpha_at,
            lambda t: 0.1 * np.sin(2.0 * np.pi * x1) * np.ones(fam.grid.shape),
            fam.exact_data.alpha_dot_at,
        ),
        theta_h=fam.theta_h, label="bad_h",
    )
    with pytest.raises(InconsistentLeeDerivative):
        run_exact_family(bad, PipelineOptions(steps=8, checkpoints=3))


def test_factor_error_converges_at_fourth_order():
    fam = area_interpolation_family(T2, eps=0.6)
    errs = []
    for steps in (5, 10, 20):
        opts = PipelineOptions(steps=steps, checkpoints=3, seed_stride=2)
        errs.append(run_theorem_pipeline(fam, opts).max_factor_error)
    # halving the step cuts the error ~16x until the spatial floor
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] > 8.0 or errs[1] < 1e-9
    assert errs[1] / errs[2] > 8.0 or errs[2] < 1e-9


def _report_floats(a, b, where="report"):
    """Every (where, float, float) pair of two report trees, after checking
    that they agree everywhere else."""
    if isinstance(a, dict):
        assert set(a) == set(b), where
        return [p for k in a for p in _report_floats(a[k], b[k], f"{where}.{k}")]
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _report_floats(x, y, f"{where}[{i}]")]
    if isinstance(a, float):
        return [(where, a, b)]
    assert a == b, where
    return []


_SYMMETRY_CASES = {
    "contact_t4": (run_theorem_pipeline, lambda: contact_circle_family(T4, n_times=3),
                   PipelineOptions(steps=4, checkpoints=3)),
    "corollary_t4": (run_exact_family, lambda: corollary_two_family(T4, a=0.3, n_times=3),
                     PipelineOptions(steps=2, checkpoints=2)),
    # pointwise-gauged on the theorem path: e^{-g} omega is not band-limited
    # at N = 8, so the verdict is "not certified", yet X moves and its
    # Jacobian is not zero
    "corollary_t4_gauged": (run_theorem_pipeline,
                            lambda: corollary_two_family(T4, a=0.3, n_times=3),
                            PipelineOptions(steps=4, checkpoints=3)),
    "area_t2": (run_theorem_pipeline,
                lambda: area_interpolation_family(GridSpec(2, 16), eps=0.3, sigma=0.3),
                PipelineOptions(steps=20, checkpoints=3)),
}


@pytest.fixture(scope="module")
def symmetry_reports():
    """The report of each unmapped symmetry case, run once per module."""
    return {name: run(make(), opts).as_dict()
            for name, (run, make, opts) in _SYMMETRY_CASES.items()}


@pytest.mark.filterwarnings("ignore::lcsflow.moser.StepCountTooSmall")
@pytest.mark.parametrize("case, perm, roll", [
    ("contact_t4", (0, 1, 2, 3), (3, 0, 0, 0)),
    ("contact_t4", (1, 0, 2, 3), (0, 2, 0, 5)),
    ("contact_t4", (3, 2, 1, 0), (0, 0, 0, 0)),
    ("corollary_t4", (2, 0, 3, 1), (7, 0, 0, 0)),
    ("corollary_t4_gauged", (0, 3, 1, 2), (0, 6, 0, 1)),
    ("area_t2", (1, 0), (5, 11)),
])
def test_pipeline_reports_are_invariant_under_grid_isometries(symmetry_reports, case,
                                                              perm, roll):
    # psi^* omega_t is certified by the conjugated isotopy psi^-1 phi_t psi,
    # and with seed stride 1 psi maps the seed set onto itself, so every
    # report float is the same up to rounding
    run, make, opts = _SYMMETRY_CASES[case]
    psi = GridIsometry(perm, roll)
    fam = make()
    mapped = psi.family(fam)
    om0 = fam.omega_at(0.0).omega
    odd = np.linalg.det(np.eye(len(perm))[list(perm)]) < 0
    np.testing.assert_allclose(pfaffian_values(mapped.omega_at(0.0).omega),
                               (-1.0 if odd else 1.0) * psi.field(pfaffian_values(om0)),
                               rtol=0.0, atol=1e-13)
    floats = _report_floats(symmetry_reports[case], run(mapped, opts).as_dict())
    assert len(floats) > 10
    for where, a, b in floats:
        assert abs(a - b) <= 1e-13, f"{where}: {a!r} vs {b!r}"


def _max_float_gap(a, b):
    return max(abs(x - y) for _, x, y in _report_floats(a, b))


def test_a_lee_covector_below_the_snap_is_zero_everywhere():
    # normalize_family snaps theta_h once, so absorption, the obstruction
    # hint, the stage rate and the solver all read c = 0 here
    grid = GridSpec(2, 16)
    fam = area_interpolation_family(grid, eps=0.1, sigma=0.3)
    lee = LeeForm.constant(grid, [1e-13, 0.0])
    tiny = dataclasses.replace(
        fam, omega_at=lambda t: LcsForm(fam.omega_at(t).omega, lee))
    opts = PipelineOptions(steps=10, checkpoints=3, seed_stride=4)
    rep = run_theorem_pipeline(tiny, opts)
    assert rep.success and rep.absorption_used
    assert _max_float_gap(run_theorem_pipeline(fam, opts).as_dict(),
                          rep.as_dict()) <= 1e-12


def _with_nan_h(fam, bad_t):
    ed = fam.exact_data
    h_at = lambda t: np.full(fam.grid.shape, np.nan) if t == bad_t else ed.h_at(t)
    return dataclasses.replace(fam, exact_data=dataclasses.replace(ed, h_at=h_at))


@pytest.mark.filterwarnings("ignore::lcsflow.moser.StepCountTooSmall")
@pytest.mark.parametrize("bad_t, error, match", [
    (0.5, InconsistentLeeDerivative, r"by nan at t=0\.5"),
    (0.25, IsotopyDiverged, "non-finite positions after step 1"),
], ids=["checkpoint", "stage"])
def test_a_nan_h_on_the_exact_path_raises(bad_t, error, match):
    # at a checkpoint the d theta/dt = d h gate names it; at a stage time
    # between checkpoints the NaN velocity is kept and the flow diverges
    fam = _with_nan_h(contact_circle_family(T4), bad_t)
    with pytest.raises(error, match=match):
        run_exact_family(fam, PipelineOptions(steps=4, checkpoints=3))


def _constant_gauge(fam, f):
    """e^f omega_t with Lee data (c, g_t + f) and derivative e^f d omega/dt."""
    ef = np.exp(f)

    def omega_at(t):
        L = fam.omega_at(t)
        return LcsForm(DiffForm(fam.grid, 2, L.omega.comps * ef),
                       LeeForm(fam.grid, L.lee.harmonic, L.lee.potential + f))

    return FormFamily(fam.grid, omega_at, lambda t: fam.derivative_at(t) * ef,
                      fam.times, label=fam.label)


@pytest.mark.filterwarnings("ignore::lcsflow.moser.StepCountTooSmall")
@pytest.mark.parametrize("make, opts", [
    # e^f omega is lcs to LCS_TOL only at N = 16 on T^4
    (lambda: contact_circle_family(GridSpec(4, 16), n_times=3),
     PipelineOptions(steps=4, checkpoints=3, seed_stride=256)),
    (lambda: area_interpolation_family(T2, eps=0.1, sigma=0.3),
     PipelineOptions(steps=10, checkpoints=3, seed_stride=4)),
], ids=["contact_t4", "area_t2"])
def test_a_constant_in_t_gauge_leaves_the_report_unchanged(make, opts):
    # normalize_family divides e^f out again; the gauged family's derivative
    # is a finite difference in t, so the floats move by up to 8.2e-13
    fam = make()
    f = random_band_limited(fam.grid, 0, 1, np.random.default_rng(5), 0.05).comps[0]
    rep = run_theorem_pipeline(fam, opts)
    gauged = run_theorem_pipeline(_constant_gauge(fam, f - f.mean()), opts)
    assert (gauged.verdict, gauged.absorption_used) == (rep.verdict, rep.absorption_used)
    assert _max_float_gap(rep.as_dict(), gauged.as_dict()) <= 5e-12
