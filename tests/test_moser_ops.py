"""Building blocks of the flow construction: solve, integrate, pull back."""

import warnings

import numpy as np
import pytest

from lcsflow.families import FormFamily, area_interpolation_family, contact_circle_family
from lcsflow.forms import DiffForm, GridSpec, form_from_components, index_sets
from lcsflow.moser import (
    CheckpointRecord,
    DegenerateForm,
    ExactnessCertificate,
    IsotopyDiverged,
    NoValidComponents,
    PipelineOptions,
    StageData,
    StepCountTooSmall,
    conformal_compare,
    exactness_certificate,
    integrate_isotopy,
    moser_vector_field,
    NotExact,
    _assemble_report,
    pullback_form,
)
from lcsflow.twisted import pfaffian_values

TWO_PI = 2.0 * np.pi


def test_vector_field_on_constant_symplectic_form():
    g = GridSpec(4, 8)
    om = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0})
    alpha = form_from_components(g, 1, {(1,): 1.0})
    x = moser_vector_field(om, alpha)
    # i_X om = -dx2 needs X = (-1, 0, 0, 0)
    assert np.max(np.abs(x.comps[0] + 1.0)) < 1e-13
    assert np.max(np.abs(x.comps[1:])) < 1e-13


def test_vector_field_contraction_identity_on_random_data():
    rng = np.random.default_rng(60)
    g = GridSpec(4, 8)
    from lcsflow.forms import random_band_limited
    om = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0}) \
        + random_band_limited(g, 2, 2, rng, amplitude=0.15)
    assert float(np.min(np.abs(pfaffian_values(om)))) > 0.1
    alpha = random_band_limited(g, 1, 2, rng)
    x = moser_vector_field(om, alpha)
    # check i_X omega + alpha = 0 pointwise from the definition
    pairs = index_sets(g.n, 2)
    contraction = np.zeros_like(alpha.comps)
    for idx, (i, j) in enumerate(pairs):
        contraction[j] += om.comps[idx] * x.comps[i]
        contraction[i] -= om.comps[idx] * x.comps[j]
    assert np.max(np.abs(contraction + alpha.comps)) < 1e-12


def test_vector_field_degenerate_rejection():
    g = GridSpec(2, 16)
    x1 = g.coordinates()[0]
    om = form_from_components(g, 2, {(0, 1): np.sin(TWO_PI * x1)})  # vanishes
    with pytest.raises(DegenerateForm):
        moser_vector_field(om, form_from_components(g, 1, {(0,): 1.0}))


def _shear_stage(g: GridSpec, a: float) -> StageData:
    x2 = g.coordinates()[1]
    x = form_from_components(g, 1, {(0,): a * np.sin(TWO_PI * x2) * np.ones(g.shape)})
    return StageData(x, np.zeros(g.shape), 0.0)


def test_integrator_is_exact_on_a_shear_flow():
    # X = (a sin(2 pi x2), 0): x2 frozen, J nilpotent, so RK4 has no error
    g = GridSpec(2, 16)
    a = 0.2
    stage = _shear_stage(g, a)
    seeds = np.array([[0.1, 0.3], [0.7, 0.05], [0.25, 0.8]])
    flow = integrate_isotopy(g, lambda t: stage, steps=7,
                             record_times=[0.0, 0.5 + 1 / 14, 1.0], seeds=seeds)
    for t in flow.times:
        pos, jac, logf = flow.at(t)
        s2 = np.sin(TWO_PI * seeds[:, 1])
        c2 = np.cos(TWO_PI * seeds[:, 1])
        assert np.max(np.abs(pos[:, 0] - ((seeds[:, 0] + t * a * s2) % 1.0))) < 1e-13
        assert np.max(np.abs(pos[:, 1] - seeds[:, 1])) < 1e-15
        assert np.max(np.abs(jac[:, 0, 1] - t * a * TWO_PI * c2)) < 1e-12
        assert np.max(np.abs(jac[:, 0, 0] - 1.0)) < 1e-14
        assert np.max(np.abs(jac[:, 1, 1] - 1.0)) < 1e-14
        assert np.max(np.abs(logf)) == 0.0
    assert flow.max_speed == pytest.approx(a, abs=1e-12)


def test_integrator_accumulates_the_rate_channel():
    # constant rate r: log factor is exactly r t (RK4 integrates it exactly)
    g = GridSpec(2, 8)
    x = DiffForm(g, 1)
    stage = StageData(x, 0.7 * np.ones(g.shape), 0.0)
    flow = integrate_isotopy(g, lambda t: stage, steps=4, record_times=[0.0, 0.5, 1.0],
                             seeds=g.nodes())
    assert np.max(np.abs(flow.at(0.5)[2] - 0.35)) < 1e-14
    assert np.max(np.abs(flow.at(1.0)[2] - 0.7)) < 1e-14


def test_integrator_sweeps_the_rate_integrals_by_simpson():
    # h = sin(2 pi t) phi; Simpson on the RK4 stages (node spacing dt / 2)
    # errs by at most t (dt / 2)^4 max |f^(4)| / 180, so the bound falls
    # as steps^-4
    g = GridSpec(2, 8)
    x1, x2 = g.coordinates()
    phi = 1.0 + 0.5 * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2)
    x = DiffForm(g, 1)

    def stage(t):
        return StageData(x, np.cos(TWO_PI * t) * phi,
                         np.sin(TWO_PI * t) * phi)

    for steps in (4, 8, 16):
        flow = integrate_isotopy(g, stage, steps=steps,
                                 record_times=[0.0, 0.25, 0.5, 1.0], seeds=g.nodes())
        assert flow.times == [0.0, 0.25, 0.5, 1.0]
        bound = TWO_PI**4 * np.max(phi) / (180.0 * 16.0 * steps**4)
        for t, h_int in zip(flow.times, flow.h_integral):
            h_exact = (1.0 - np.cos(TWO_PI * t)) / TWO_PI * phi
            assert np.max(np.abs(h_int - h_exact)) <= t * bound + 1e-15


def test_integrator_asks_for_each_stage_time_once():
    # RK4 stage times k / (2 steps): a step's end stage starts the next step
    g = GridSpec(2, 8)
    stage = _shear_stage(g, 0.1)
    asked = []

    def fields(t):
        asked.append(t)
        return stage

    steps = 6
    integrate_isotopy(g, fields, steps=steps, record_times=[1.0], seeds=g.nodes())
    assert sorted(asked) == [k / (2 * steps) for k in range(2 * steps + 1)]


def test_pullback_at_time_zero_is_the_identity():
    g = GridSpec(2, 16)
    fam = area_interpolation_family(g, eps=0.3)
    om = fam.omega_at(0.0).omega
    stage = _shear_stage(g, 0.1)
    flow = integrate_isotopy(g, lambda t: stage, steps=8, record_times=[0.0],
                             seeds=g.nodes())
    pb = pullback_form(om, flow, 0.0)
    assert np.max(np.abs(pb.comps - om.comps.reshape(len(om.comps), -1))) < 1e-12


def test_pullback_shear_changes_nothing_on_translation_invariant_form():
    # constant area form is invariant under the measure-preserving shear
    g = GridSpec(2, 16)
    om = form_from_components(g, 2, {(0, 1): 1.0})
    stage = _shear_stage(g, 0.15)
    flow = integrate_isotopy(g, lambda t: stage, steps=5, record_times=[0.0, 1.0],
                             seeds=g.nodes())
    pb = pullback_form(om, flow, 1.0)
    assert np.max(np.abs(pb.comps - om.comps.reshape(len(om.comps), -1))) < 1e-12


def test_conformal_compare_recovers_exact_factor():
    g = GridSpec(2, 16)
    rng = np.random.default_rng(61)
    from lcsflow.forms import random_band_limited
    b = form_from_components(g, 2, {(0, 1): 1.0}) \
        + random_band_limited(g, 2, 3, rng, amplitude=0.2)
    bv = b.comps.reshape(1, -1)
    cmp = conformal_compare(bv * 3.0, bv)
    assert cmp.consistency_error < 1e-13
    assert cmp.positive
    assert np.max(np.abs(cmp.factor - 3.0)) < 1e-13


def test_conformal_compare_guards():
    z = np.zeros((1, 64))
    with pytest.raises(NoValidComponents):
        conformal_compare(z, z)
    # reference with one point where every component is ~0
    b = np.ones((2, 5))
    b[:, 3] = 1e-9
    with pytest.raises(NoValidComponents):
        conformal_compare(np.ones((2, 5)), b)
    with pytest.raises(ValueError):
        conformal_compare(np.ones((2, 4)), np.ones((3, 4)))


def test_conformal_compare_threshold_masks_noisy_components():
    # second component of the reference is tiny noise; only the first counts
    b = np.vstack([np.full(6, 2.0), np.full(6, 1e-10)])
    a = np.vstack([np.full(6, 5.0), np.full(6, 123.0)])
    cmp = conformal_compare(a, b)
    assert np.max(np.abs(cmp.factor - 2.5)) < 1e-12
    assert cmp.consistency_error < 1e-12


def test_absorption_certificate_matches_closed_form():
    # total area grows by (1 + sigma t): the gauge constant must be
    # c(t) = -log(1 + sigma t)
    sigma = 0.5
    fam = area_interpolation_family(GridSpec(2, 32), eps=0.1, sigma=sigma)
    cert = exactness_certificate(fam, PipelineOptions())
    assert cert.used_absorption
    for t in (0.25, 0.5, 1.0):
        assert abs(cert.c_at(t) + np.log1p(sigma * t)) < 1e-10
        # c(t) is evaluated in closed form, not by quadrature
        assert abs(cert.c_at(t) + np.log1p(sigma * t)) < 1e-13
    assert max(cert.residuals) < 1e-9
    # mean-free interpolation needs no absorption at all
    cert0 = exactness_certificate(area_interpolation_family(GridSpec(2, 32), eps=0.1))
    assert not cert0.used_absorption
    assert abs(cert0.c_at(1.0)) < 1e-12


def test_absorption_disabled_rejects_area_growth():
    fam = area_interpolation_family(GridSpec(2, 32), eps=0.1, sigma=0.5)
    opts = PipelineOptions(allow_scalar_absorption=False)
    with pytest.raises(NotExact):
        exactness_certificate(fam, opts)


def test_cfl_warning_on_coarse_stepping():
    g = GridSpec(2, 16)
    x = form_from_components(g, 1, {(0,): 3.0 * np.ones(g.shape)})
    stage = StageData(x, np.zeros(g.shape), 0.0)
    with pytest.warns(StepCountTooSmall):
        integrate_isotopy(g, lambda t: stage, steps=2, record_times=[1.0], seeds=g.nodes())


def test_divergence_detection():
    # velocity so violent the Jacobian overflows to inf within a step
    g = GridSpec(2, 8)
    x1 = g.coordinates()[0]
    x = form_from_components(g, 1, {(0,): 1e80 * np.sin(TWO_PI * x1) * np.ones(g.shape)})
    stage = StageData(x, np.zeros(g.shape), 0.0)
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(IsotopyDiverged):
            integrate_isotopy(g, lambda t: stage, steps=4, record_times=[1.0],
                              seeds=g.nodes())


class _StageWithNaN:
    """Stage stub whose velocity, Jacobian or rate output is NaN."""

    max_speed = 0.0

    def __init__(self, which: int):
        self.which = which

    def eval(self, points):
        p, n = points.shape
        out = [np.zeros((p, n)), np.zeros((p, n, n)), np.zeros(p)]
        out[self.which][...] = np.nan
        return tuple(out)


@pytest.mark.parametrize("which, name", [(0, "positions"), (1, "Jacobians"),
                                         (2, "log factors")])
def test_non_finite_state_raises_at_the_first_step(which, name):
    g = GridSpec(2, 8)
    stage = _StageWithNaN(which)
    with pytest.raises(IsotopyDiverged, match=f"non-finite {name} after step 1$"):
        integrate_isotopy(g, lambda t: stage, steps=50, record_times=[1.0],
                          seeds=g.nodes())


def test_checkpoint_times_snap_to_step_grid():
    opts = PipelineOptions(steps=7, checkpoints=5)
    times = opts.checkpoint_times()
    assert times[0] == 0.0 and times[-1] == 1.0
    assert all(abs(round(t * 7) - t * 7) < 1e-12 for t in times)
    assert times == sorted(set(times))


def test_constant_family_certificate_is_trivial():
    base = contact_circle_family(GridSpec(4, 8)).omega_at(0.0)
    g = base.grid
    fam = FormFamily(g, lambda t: base, lambda t: DiffForm(g, 2), np.linspace(0, 1, 11),
                     theta_h=base.lee.harmonic.copy())
    cert = exactness_certificate(fam, PipelineOptions())
    assert max(cert.residuals) == 0.0
    assert not cert.used_absorption


@pytest.mark.parametrize("field", [
    "exactness_residual", "harmonic_obstruction", "conformal_consistency_error",
    "factor_error", "flow_identity_residual", "cor2_identity_residual"])
def test_a_nan_in_a_middle_record_fails_the_report(field):
    fam = contact_circle_family(GridSpec(4, 8))
    cert = ExactnessCertificate("exact_family", fam, fam, None, {}, [], None)
    records = [CheckpointRecord(t, 1e-16, 0.0, 1e-14, 1e-14, 1e-16, 1.0, 1.0, 1e-16)
               for t in (0.0, 0.5, 1.0)]
    setattr(records[1], field, float("nan"))
    rep = _assemble_report(cert, "nan", PipelineOptions(), records, True, 1.0, 0.0)
    assert not rep.success
    assert rep.verdict == "not_certified_in_canonical_gauge"
    assert any(np.isnan(v) for v in vars(rep).values() if isinstance(v, float))
