"""End-to-end runs of both certification pipelines on small grids."""

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
from lcsflow import moser
from lcsflow.forms import GridSpec
from lcsflow.moser import (
    InconsistentLeeDerivative,
    LeeClassDrift,
    NotExact,
    NotExactFamily,
    PipelineOptions,
    run_exact_family,
    run_theorem_pipeline,
)

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
    assert rep.max_necessity < 1e-10
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
    assert rep.max_cor2 < 1e-8
    assert rep.max_necessity < 1e-8
    # theta(X) + h = 0 pointwise: factor prediction stays 1
    for r in rep.records:
        assert abs(r.factor_min - 1.0) < 1e-6
        assert abs(r.factor_max - 1.0) < 1e-6


@pytest.mark.filterwarnings("ignore::lcsflow.moser.StepCountTooSmall")
def test_exact_path_builds_stages_only_at_rk4_stage_times(monkeypatch):
    # theta(X) is nonzero on this family, yet the integrals behind the
    # necessity and cor2 residuals come from the RK4 sweep: every stage is
    # built at some k / (2 steps)
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


def test_corrupted_primitive_is_rejected():
    fam = contact_circle_family(T4)
    bad = FormFamily(
        fam.grid, fam.omega_at, fam.derivative_at, fam.times,
        exact_data=ExactData(
            lambda t: fam.exact_data.alpha_at(t) * 1.01,
            fam.exact_data.h_at,
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
