"""Building blocks of the flow construction: solve, integrate, pull back."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsflow.families import (
    FormFamily,
    area_interpolation_family,
    contact_circle_family,
    corollary_two_family,
    gcs_rescale_family,
)
from lcsflow.forms import (
    DiffForm,
    GridSpec,
    form_from_components,
    index_sets,
    random_band_limited,
)
from lcsflow.moser import (
    CheckpointRecord,
    DegenerateForm,
    ExactnessCertificate,
    IsotopyDiverged,
    NoValidComponents,
    PipelineOptions,
    StageCache,
    StageData,
    StepCountTooSmall,
    TOLERANCES,
    conformal_compare,
    exact_stage_builder,
    exactness_certificate,
    integrate_isotopy,
    moser_vector_field,
    normalize_family,
    NotExact,
    _assemble_report,
    pullback_form,
)
from lcsflow.twisted import pfaffian_values
from oracles import (
    contact_circle_flow,
    corollary_two_flow,
    four_output_isotopy,
    full_grid_stage_interpolator,
)

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
    assert float(np.min(np.abs(pfaffian_values(om.comps)))) > 0.1
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
    # the Pfaffian reads a component stack, so the degree is checked here
    one_form = form_from_components(g, 1, {(0,): 1.0, (1,): 2.0})
    with pytest.raises(ValueError, match="2-form omega"):
        moser_vector_field(one_form, one_form)


def test_vector_field_rejects_a_nan_primitive():
    om = contact_circle_family(GridSpec(4, 8)).omega_at(0.0).omega
    alpha = np.ones((4,) + om.grid.shape)
    alpha[0, 1, 2, 3, 4] = np.nan
    with pytest.raises(DegenerateForm, match="nan"):
        moser_vector_field(om, DiffForm(om.grid, 1, alpha))


def _shear_stage(g: GridSpec, a: float) -> StageData:
    x2 = g.coordinates()[1]
    x = form_from_components(g, 1, {(0,): a * np.sin(TWO_PI * x2) * np.ones(g.shape)})
    return StageData(x, np.zeros(g.shape), 0.0)


def _stage_inputs(g: GridSpec, kind: str, rng: np.random.Generator):
    """X and a rate field: band-limited theta(X), dense noise, or all zero."""
    if kind == "band":
        x = random_band_limited(g, 1, 2, rng)
        return x, np.tensordot(rng.standard_normal(g.n), x.comps, axes=1)
    if kind == "dense":
        # white noise on the nodes fills every bucket, the Nyquist ones too
        return (DiffForm(g, 1, rng.standard_normal((g.n,) + g.shape)),
                rng.standard_normal(g.shape))
    return DiffForm(g, 1), np.zeros(g.shape)


@pytest.mark.parametrize("kind", ["band", "dense", "zero"])
@pytest.mark.parametrize("n, N", [(2, 8), (2, 16), (4, 8), (4, 16)])
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_stage_interpolator_matches_the_full_grid_channels(n, N, kind, seed):
    # gradient coefficients formed on the kept modes only give the very
    # interpolator that 21 (T^4) full-grid channels give: same kept modes,
    # bitwise the same weights, the same values anywhere
    rng = np.random.default_rng(seed)
    g = GridSpec(n, N)
    x, rate = _stage_inputs(g, kind, rng)
    stage = StageData(x, rate, 0.0)
    ref = full_grid_stage_interpolator(x, rate)
    got = stage._interp
    assert got.nf == ref.nf == n + n * n + 1
    np.testing.assert_array_equal(got.modes, ref.modes)
    assert got._weights.shape == ref._weights.shape
    assert got._weights.tobytes() == ref._weights.tobytes()
    points = 3.0 * rng.random((40, n)) - 1.0
    want = ref(points)
    vel, jac, rate_at = stage.eval(points)
    np.testing.assert_array_equal(vel, want[:n].T)
    np.testing.assert_array_equal(jac, want[n:n + n * n].T.reshape(-1, n, n))
    np.testing.assert_array_equal(rate_at, want[-1])


def test_a_t4_stage_build_holds_no_full_grid_gradient_channels():
    # X^ of a T^4 N = 16 grid is 4 MiB; 21 full-grid channels and their
    # stacked copy peak near 54 MB, the kept-mode build stays below 8 X^
    g = GridSpec(4, 16)
    rng = np.random.default_rng(25)
    x, rate = _stage_inputs(g, "band", rng)
    x = DiffForm(g, 1, x.comps)     # spectra not yet cached
    tracemalloc.start()
    try:
        StageData(x, rate, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * x.spectra().nbytes      # 32 MiB


def test_integrator_is_exact_on_a_shear_flow():
    # X = (a sin(2 pi x2), 0): x2 frozen, J nilpotent, so RK4 has no error
    g = GridSpec(2, 16)
    a = 0.2
    stage = _shear_stage(g, a)
    seeds = np.array([[0.1, 0.3], [0.7, 0.05], [0.25, 0.8]])
    flow = integrate_isotopy(g, lambda t: stage, steps=7,
                             record_times=[0.0, 0.5 + 1 / 14, 1.0], seeds=seeds)
    for t, (pos, jac, logf, _) in flow.snapshots.items():
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
    assert np.max(np.abs(flow.snapshots[0.5][2] - 0.35)) < 1e-14
    assert np.max(np.abs(flow.snapshots[1.0][2] - 0.7)) < 1e-14


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
        assert list(flow.snapshots) == [0.0, 0.25, 0.5, 1.0]
        bound = TWO_PI**4 * np.max(phi) / (180.0 * 16.0 * steps**4)
        for t, (*_, h_int) in flow.snapshots.items():
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


# Largest errors measured against the closed forms over these cases:
# positions 6.7e-16 (wrapped), J 5.0e-15, log factor 2.0e-16.  Both fields
# are constant along their trajectories, so RK4 is exact at any step count
# and the bounds are ten times those values.
KNOWN_ANSWER_BOUNDS = {"positions": 7e-15, "jacobians": 5e-14, "log_factor": 2e-15}


@pytest.mark.parametrize("path, N, steps, stride", [
    ("theorem", 8, 4, 1), ("theorem", 8, 20, 7), ("theorem", 16, 4, 7),
    ("exact", 8, 4, 1), ("exact", 8, 12, 7)])
def test_flow_matches_the_closed_form_isotopy(path, N, steps, stride):
    # contact_circle on the theorem path and corollary_two on the exact
    # path have closed-form isotopies (tests/oracles.py); every snapshot,
    # one per step, is compared with them
    g, s, a = GridSpec(4, N), np.pi / 4.0, 0.3
    opts = PipelineOptions(steps=steps, checkpoints=3, seed_stride=stride)
    if path == "theorem":
        fam = contact_circle_family(g, s=s, n_times=3)
        fields = exactness_certificate(normalize_family(fam, opts), opts).stages
    else:
        fam = corollary_two_family(g, s=s, a=a, n_times=3)
        fields = exact_stage_builder(fam, opts)
    seeds = g.nodes()[::stride]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepCountTooSmall)
        flow = integrate_isotopy(g, fields, steps, [k / steps for k in range(steps + 1)],
                                 seeds)
    assert list(flow.snapshots) == [k / steps for k in range(steps + 1)]
    for t, (pos, jac, logf, _) in flow.snapshots.items():
        want = (contact_circle_flow(seeds, t, s) if path == "theorem"
                else corollary_two_flow(seeds, t, s, a))
        errors = {"positions": np.abs((pos - want[0] + 0.5) % 1.0 - 0.5),
                  "jacobians": np.abs(jac - want[1]),
                  "log_factor": np.abs(logf - want[2])}
        for name, err in errors.items():
            assert float(np.max(err)) <= KNOWN_ANSWER_BOUNDS[name], (name, t)


def _theorem_stages(fam: FormFamily, steps: int):
    opts = PipelineOptions(steps=steps, checkpoints=3)
    return exactness_certificate(normalize_family(fam, opts), opts).stages


def _prebuilt(fields, steps: int) -> dict:
    """Every RK4 stage time k / (2 steps) of a sweep, built once."""
    return {k / (2 * steps): fields(k / (2 * steps)) for k in range(2 * steps + 1)}


def _rate_stages(g: GridSpec, rng: np.random.Generator):
    # a band-limited X with a nonzero rate and h-term, all scaled in t, so
    # every snapshot array carries rounding of its own
    x, rate = _stage_inputs(g, "band", rng)
    h = rng.standard_normal(g.shape)

    def build(t):
        s = 1.0 + t * t
        return StageData(DiffForm(g, 1, 0.1 * s * x.comps), s * rate, s * h)

    return build


@pytest.mark.parametrize("case, steps", [("area_t2", 6), ("contact_t4", 4), ("rates_t2", 5)])
def test_running_rk4_sums_match_the_four_output_sweep_bit_for_bit(case, steps):
    # integrate_isotopy adds each stage into its running sums as it lands;
    # the closed sum k1 + 2 k2 + 2 k3 + k4 over four held outputs
    # (tests/oracles.py) is the same float operations in the same order
    if case == "area_t2":
        g = GridSpec(2, 16)
        fields = _theorem_stages(area_interpolation_family(g, eps=0.3, n_times=3), steps)
    elif case == "contact_t4":
        g = GridSpec(4, 8)
        fields = _theorem_stages(contact_circle_family(g, n_times=3), steps)
    else:
        g = GridSpec(2, 16)
        fields = _rate_stages(g, np.random.default_rng(26))
    stages = _prebuilt(fields, steps)
    times = [k / steps for k in range(steps + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepCountTooSmall)
        got = integrate_isotopy(g, stages.__getitem__, steps, times, g.nodes())
    want = four_output_isotopy(g, stages.__getitem__, steps, times, g.nodes())
    assert list(got.snapshots) == list(want.snapshots) == times
    for t in times:
        for name, a, b in zip(("positions", "J", "log factor", "h integral"),
                              got.snapshots[t], want.snapshots[t]):
            assert np.array_equal(a, b), (name, t)
    assert got.max_speed == want.max_speed


def test_the_sweep_holds_one_stage_output_at_a_time():
    # prebuilt T^4 N = 8 stages (4,096 seeds), so nothing is built inside
    # the flow: above what the sweep keeps as snapshots, its peak is one
    # stage output, four (P, n, n) arrays (J, its running sum, the next
    # stage's input and the stage's product) and the interpolator's 2 MiB
    # chunk: 4.9 MB in all.  The closed sum, which holds a step's four stage
    # outputs and products into the next step, peaks at 6.5 MB here.
    g, steps = GridSpec(4, 8), 4
    stages = _prebuilt(_theorem_stages(contact_circle_family(g, n_times=3), steps), steps)
    seeds = g.nodes()
    p, n = seeds.shape
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepCountTooSmall)
            flow = integrate_isotopy(g, stages.__getitem__, steps, [0.0, 0.5, 1.0], seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = {id(a): a.nbytes for snap in flow.snapshots.values() for a in snap}
    stage_output = (n + n * n + 1) * p * 8
    assert peak - entry - sum(held.values()) <= stage_output + 4 * (p * n * n * 8) + 2**21


def test_pullback_at_time_zero_is_the_identity():
    g = GridSpec(2, 16)
    fam = area_interpolation_family(g, eps=0.3)
    om = fam.omega_at(0.0).omega
    stage = _shear_stage(g, 0.1)
    flow = integrate_isotopy(g, lambda t: stage, steps=8, record_times=[0.0],
                             seeds=g.nodes())
    pb = pullback_form(om, *flow.snapshots[0.0][:2])
    assert np.max(np.abs(pb - om.comps.reshape(len(om.comps), -1))) < 1e-12


def test_pullback_shear_changes_nothing_on_translation_invariant_form():
    # constant area form is invariant under the measure-preserving shear
    g = GridSpec(2, 16)
    om = form_from_components(g, 2, {(0, 1): 1.0})
    stage = _shear_stage(g, 0.15)
    flow = integrate_isotopy(g, lambda t: stage, steps=5, record_times=[0.0, 1.0],
                             seeds=g.nodes())
    pb = pullback_form(om, *flow.snapshots[1.0][:2])
    assert np.max(np.abs(pb - om.comps.reshape(len(om.comps), -1))) < 1e-12


def test_conformal_compare_recovers_exact_factor():
    g = GridSpec(2, 16)
    rng = np.random.default_rng(61)
    from lcsflow.forms import random_band_limited
    b = form_from_components(g, 2, {(0, 1): 1.0}) \
        + random_band_limited(g, 2, 3, rng, amplitude=0.2)
    bv = b.comps.reshape(1, -1)
    cmp = conformal_compare(bv * 3.0, bv)
    assert cmp.consistency_error < 1e-13
    assert cmp.factor.min() > 0
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
    # second component of the reference is tiny noise: only the first
    # counts for the factor, but the all-component residual reads both
    b = np.vstack([np.full(6, 2.0), np.full(6, 1e-10)])
    noisy = conformal_compare(np.vstack([np.full(6, 5.0), np.full(6, 2.5e-10)]), b)
    assert np.max(np.abs(noisy.factor - 2.5)) < 1e-12
    assert noisy.consistency_error < 1e-12
    # a = (5, 123) is no multiple of b, though the ratio spread skips its
    # second component
    cmp = conformal_compare(np.vstack([np.full(6, 5.0), np.full(6, 123.0)]), b)
    assert np.max(np.abs(cmp.factor - 2.5)) < 1e-12
    assert cmp.consistency_error > TOLERANCES["consistency"]


def test_conformal_compare_sees_a_component_where_the_reference_vanishes():
    # contact_circle's omega_0 has zero (0,3) and (1,2) components, which
    # the ratio spread never reads
    om = contact_circle_family(GridSpec(4, 8)).omega_at(0.0).omega
    b = om.comps.reshape(6, -1)
    off = index_sets(4, 2).index((1, 2))
    assert not b[off].any()
    a = 1.7 * b
    a[off] += 50.0
    cmp = conformal_compare(a, b)
    assert np.max(np.abs(cmp.factor - 1.7)) < 1e-12
    assert cmp.consistency_error > TOLERANCES["consistency"]
    # a NaN there fails closed
    a = 1.7 * b
    a[off, 5] = np.nan
    assert np.isnan(conformal_compare(a, b).consistency_error)


def test_absorption_certificate_matches_closed_form():
    # total area grows by (1 + sigma t): the gauge constant must be
    # c(t) = -log(1 + sigma t)
    sigma = 0.5
    opts = PipelineOptions()
    fam = area_interpolation_family(GridSpec(2, 32), eps=0.1, sigma=sigma)
    cert = exactness_certificate(normalize_family(fam, opts), opts)
    assert cert.used_absorption
    for t in (0.25, 0.5, 1.0):
        assert abs(cert.c_at(t) + np.log1p(sigma * t)) < 1e-10
        # c(t) is evaluated in closed form, not by quadrature
        assert abs(cert.c_at(t) + np.log1p(sigma * t)) < 1e-13
    assert max(cert.residuals) < 1e-9
    # mean-free interpolation needs no absorption at all
    fam0 = area_interpolation_family(GridSpec(2, 32), eps=0.1)
    cert0 = exactness_certificate(normalize_family(fam0, opts), opts)
    assert not cert0.used_absorption
    assert abs(cert0.c_at(1.0)) < 1e-12


def test_a_raw_generator_family_is_not_certified():
    # only normalize_family sets theta_h, so the certificate refuses the
    # un-gauged family instead of certifying it
    with pytest.raises(ValueError, match="not normalized"):
        exactness_certificate(gcs_rescale_family(GridSpec(2, 16)))


def test_absorption_disabled_rejects_area_growth():
    fam = area_interpolation_family(GridSpec(2, 32), eps=0.1, sigma=0.5)
    opts = PipelineOptions(allow_scalar_absorption=False)
    with pytest.raises(NotExact):
        exactness_certificate(normalize_family(fam, opts), opts)


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


def test_a_nan_stage_rate_is_kept_and_the_flow_diverges():
    # the interpolator keeps non-finite modes rather than cutting them
    g = GridSpec(2, 8)
    rate = np.zeros(g.shape)
    rate[3, 5] = np.nan
    stage = StageData(form_from_components(g, 1, {(0,): 0.1}), rate, 0.0)
    with pytest.raises(IsotopyDiverged, match="non-finite log factors after step 1$"):
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
    g = base.omega.grid
    fam = FormFamily(g, lambda t: base, lambda t: DiffForm(g, 2), np.linspace(0, 1, 11),
                     theta_h=base.lee.harmonic.copy())
    cert = exactness_certificate(fam, PipelineOptions())
    assert max(cert.residuals) == 0.0
    assert not cert.used_absorption


@pytest.mark.parametrize("field, value", [
    *(pytest.param(f, float("nan"), id=f) for f in (
        "exactness_residual", "harmonic_obstruction", "conformal_consistency_error",
        "factor_error", "flow_identity_residual", "cor2_identity_residual")),
    pytest.param("factor_min", float("nan"), id="factor_min-nan"),
    pytest.param("factor_min", 0.0, id="factor_min-0.0")])
def test_a_nan_in_a_middle_record_fails_the_report(field, value):
    fam = contact_circle_family(GridSpec(4, 8))
    cert = ExactnessCertificate("exact_family", fam, StageCache(None, {}), [], None)
    records = [CheckpointRecord(t, 1e-16, 0.0, 1e-14, 1e-14, 1e-16, 1.0, 1.0, 1e-16)
               for t in (0.0, 0.5, 1.0)]
    setattr(records[1], field, value)
    rep = _assemble_report(cert, "nan", PipelineOptions(), records, 1.0)
    assert not rep.success
    assert rep.verdict == "not_certified_in_canonical_gauge"
    if field == "factor_min":
        # an ungated field: the report reads the sign of the factor off it
        assert not rep.factor_positive
    else:
        assert any(np.isnan(v) for v in vars(rep).values() if isinstance(v, float))
