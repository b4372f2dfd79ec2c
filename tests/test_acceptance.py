"""Acceptance suite: one test per advertised guarantee, desk-scale grids.

Run with -s to see the one-line verdicts; each line is also the assertion
message, so failures carry the same text.  Every runner fixture runs once
per module (runner_fixtures); criterion 04 reads its case from the
contact_circle fixture's report, criterion 10 checks them all.
"""

import json

import numpy as np
import pytest

from lcsflow.families import (
    area_interpolation_family,
    contact_circle_family,
    corollary_two_family,
    lee_drift_family,
)
from lcsflow.forms import (
    GridSpec,
    ext_d,
    form_from_components,
    l2_inner,
    random_band_limited,
    scalar_form,
)
from lcsflow.moser import (
    LeeClassDrift,
    NotExact,
    PipelineOptions,
    run_exact_family,
    run_theorem_pipeline,
)
from lcsflow.runner import emit_fixture, fixture_names, run, validate_config
from lcsflow.runner import _scenario_identities
from lcsflow.simplicial import (
    FIXTURE_BUILDERS,
    circle_complex,
    coboundary_matrix,
    local_system,
    random_local_system,
    twisted_betti,
)
from lcsflow.mapping_torus import (
    example_inequality_check,
    hyperbolic_example,
    mapping_torus_betti,
    toral_product_example,
)
from lcsflow.twisted import (
    DegenerateForm,
    d_theta,
    hodge_decompose,
    lee_form,
    solve_primitive,
    torus_twisted_betti,
)

from golden_reports import deterministic
from oracles import gauge_transform

T4 = GridSpec(4, 16)
T2 = GridSpec(2, 32)
TWO_PI = 2.0 * np.pi


def _verdict(num: int, name: str, ok: bool, detail: str):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def runner_fixtures(tmp_path_factory):
    """Every runner fixture, run once: name -> (exit code, config, report)."""
    out = {}
    for name in fixture_names():
        fdir = tmp_path_factory.mktemp(name)
        cfg = json.loads(emit_fixture(name, str(fdir)).read_text())
        code = run(cfg, out_dir=str(fdir), quiet=True)
        out_name = validate_config(cfg)["output"]["json"]
        out[name] = (code, cfg, json.loads((fdir / out_name).read_text()))
    return out


def test_criterion_01_operator_identities():
    cfg = validate_config({
        "scenario": "identities",
        "grid": {"n": 4, "N": 16},
        "sweep": {"count": 100, "bandwidth": 2},
        "seed": 20260823,
    })
    res, ok = _scenario_identities(cfg)
    detail = (f"d_theta^2 {res['max_d_theta_squared']:.2e} <= 1e-9, "
              f"chain map {res['max_chain_map']:.2e} <= 1e-9, "
              f"adjoint {res['max_adjointness']:.2e} <= 1e-10, 100 forms")
    _verdict(1, "operator identities", ok, detail)


def test_criterion_02_hodge_suite():
    rng = np.random.default_rng(2)
    worst_orth = worst_recon = worst_round = 0.0
    for theta in (np.zeros(4), np.array([0.4, 0.0, -1.1, 0.25])):
        for k in (1, 2, 3):
            a = random_band_limited(T4, k, 2, rng)
            h, ex, co = hodge_decompose(a, theta)
            nrm = a.norm()
            for u, v in ((h, ex), (h, co), (ex, co)):
                if u.norm() > 0 and v.norm() > 0:
                    worst_orth = max(
                        worst_orth,
                        abs(l2_inner(u, v)) / (u.norm() * v.norm()),
                    )
            worst_recon = max(worst_recon, (h + ex + co - a).norm() / nrm)
        alpha = random_band_limited(T4, 1, 2, rng)
        target = d_theta(alpha, theta)
        sol = solve_primitive(target, theta)
        worst_round = max(
            worst_round,
            (d_theta(sol.primitive, theta) - target).norm() / target.norm(),
        )
    betti0 = torus_twisted_betti(np.zeros(4))
    betti1 = torus_twisted_betti(np.array([0.0, 0.0, 0.0, 1.0]))
    ok = (worst_orth <= 1e-9 and worst_recon <= 1e-10 and worst_round <= 1e-9
          and betti0 == (1, 4, 6, 4, 1) and betti1 == (0, 0, 0, 0, 0))
    _verdict(2, "hodge suite", ok,
             f"orthogonality {worst_orth:.2e} <= 1e-9, "
             f"reconstruction {worst_recon:.2e} <= 1e-10, "
             f"round trip {worst_round:.2e} <= 1e-9, "
             f"betti {betti0} / {betti1}")


def test_criterion_03_lee_extraction():
    # contact x circle sample: theta = c dx4
    c = 1.0
    lee = lee_form(contact_circle_family(T4, c=c).omega_at(0.3).omega)
    target = np.array([0.0, 0.0, 0.0, c])
    err_contact = (lee.one_form()
                   - form_from_components(
                       T4, 1, {(3,): c * np.ones(T4.shape)})).norm()

    # conformally rescaled symplectic form: theta = d(log f)
    x1, x2 = T4.coordinates()[:2]
    g = 0.05 * (np.sin(TWO_PI * x1) + np.cos(TWO_PI * x2)) * np.ones(T4.shape)
    om = form_from_components(T4, 2, {(0, 1): np.exp(g), (2, 3): np.exp(g)})
    lee2 = lee_form(om)
    dg = ext_d(scalar_form(T4, g))
    err_gcs = (lee2.one_form() - dg).norm()

    # degenerate input must be refused
    x1a = T4.coordinates()[0]
    bad = form_from_components(T4, 2, {
        (0, 1): np.sin(TWO_PI * x1a) * np.ones(T4.shape),
        (2, 3): np.sin(TWO_PI * x1a) * np.ones(T4.shape),
    })
    with pytest.raises(DegenerateForm):
        lee_form(bad)

    ok = (err_contact <= 1e-9 and err_gcs <= 1e-9
          and np.max(np.abs(lee.harmonic - target)) <= 1e-9)
    _verdict(3, "lee extraction", ok,
             f"contact {err_contact:.2e} <= 1e-9, rescale {err_gcs:.2e} <= 1e-9, "
             "degenerate raises DegenerateForm")


def test_criterion_04_moser_pipeline_contact(runner_fixtures, golden):
    # the contact_circle runner fixture is run_theorem_pipeline(
    # contact_circle_family(T4), steps=200, checkpoints=11, seed_stride=1)
    _, raw, report = runner_fixtures["contact_circle"]
    cfg = validate_config(raw)
    assert (cfg["generator"], cfg["params"], cfg["grid"], cfg["path"]) == (
        "contact_circle", {"s": np.pi / 4.0, "c": 1.0}, {"n": 4, "N": 16}, "theorem")
    opts = PipelineOptions(
        **{k: cfg[k] for k in ("steps", "checkpoints", "seed_stride",
                               "allow_scalar_absorption")})
    assert opts == PipelineOptions(steps=200, checkpoints=11, seed_stride=1)
    rep = report["result"]
    per_checkpoint_flow = max(r["flow_identity_residual"] for r in rep["checkpoints"])

    # step-halving study where the error is integrator-dominated
    conv_fam = area_interpolation_family(T2, eps=0.6)
    conv = [run_theorem_pipeline(conv_fam, PipelineOptions(
        steps=steps, checkpoints=3, seed_stride=2)) for steps in (5, 10, 20)]
    errs = [r.max_factor_error for r in conv]
    fourth_order = all(
        errs[i] / errs[i + 1] > 8.0 or errs[i + 1] < 1e-9 for i in range(2)
    )

    ok = (rep["success"]
          and rep["max_consistency"] <= 1e-3
          and rep["max_factor_error"] <= 1e-3
          and rep["factor_positive"]
          and per_checkpoint_flow <= 1e-6
          and fourth_order)
    _verdict(4, "moser pipeline", ok,
             f"consistency {rep['max_consistency']:.2e} <= 1e-3, "
             f"factor {rep['max_factor_error']:.2e} <= 1e-3, positive, "
             f"flow identity {per_checkpoint_flow:.2e} <= 1e-6, "
             f"step halving errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}")
    golden("criterion_04", {"contact_circle": rep,
                            "area_step_halving": [r.as_dict() for r in conv]})


def test_criterion_05_classical_limit(golden):
    fam = area_interpolation_family(T2, eps=0.1, sigma=0.3)
    rep = run_theorem_pipeline(fam, PipelineOptions(steps=100, checkpoints=11,
                                                    seed_stride=1))
    factor_dev = max(
        max(abs(r.factor_min - 1.0), abs(r.factor_max - 1.0))
        for r in rep.records
    )
    try:
        run_theorem_pipeline(
            fam, PipelineOptions(steps=10, checkpoints=3,
                                 allow_scalar_absorption=False))
        rejected = False
    except NotExact:
        rejected = True
    ok = rep.success and rep.absorption_used and factor_dev <= 1e-4 and rejected
    _verdict(5, "classical limit", ok,
             f"absorbed, factor-1 {factor_dev:.2e} <= 1e-4, "
             "absorption-off run raises NotExact")
    golden("criterion_05", rep.as_dict())


def test_criterion_06_corollary_paths(golden):
    opts = PipelineOptions(steps=50, checkpoints=6, seed_stride=4)
    rep1 = run_exact_family(contact_circle_family(T4), opts)
    rep2 = run_exact_family(corollary_two_family(T4, a=0.3), opts)
    ok = (rep1.success and rep2.success
          and rep1.max_consistency <= 1e-3
          and rep2.max_consistency <= 1e-3
          and rep2.max_cor2 is not None and rep2.max_cor2 <= 1e-8)
    _verdict(6, "corollary paths", ok,
             f"fixed-lee consistency {rep1.max_consistency:.2e} <= 1e-3, "
             f"varying-lee consistency {rep2.max_consistency:.2e} <= 1e-3, "
             f"primitive identity {rep2.max_cor2:.2e} <= 1e-8")
    golden("criterion_06", {"contact_circle": rep1.as_dict(),
                            "corollary_two": rep2.as_dict()})


def test_criterion_07_lee_class_drift_rejection():
    fam = lee_drift_family(T4)
    try:
        run_theorem_pipeline(fam, PipelineOptions(steps=6, checkpoints=3))
        raised = False
    except LeeClassDrift:
        raised = True
    _verdict(7, "rejection correctness", raised,
             "drifting Lee class raises LeeClassDrift")


def test_criterion_08_twisted_cohomology_exact():
    rng = np.random.default_rng(8)
    fixtures = list(FIXTURE_BUILDERS)
    euler_failures = 0
    total = 0
    for name in fixtures:
        fx = FIXTURE_BUILDERS[name]()
        # d^2 = 0 exactly on one random system per fixture
        sys0 = random_local_system(fx, rng)
        if fx.complex.dim >= 2:
            d0 = coboundary_matrix(sys0, 0)
            d1 = coboundary_matrix(sys0, 1)
            prod_ok = all(
                sum(d1[i][k] * d0[k][j] for k in range(len(d0))) == 0
                for i in range(len(d1)) for j in range(len(d0[0]))
            )
            assert prod_ok, name
        # exact gauge invariance on one system per fixture
        from fractions import Fraction
        pot = {v: Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
               for v in fx.complex.vertices}
        assert (twisted_betti(gauge_transform(sys0, pot)).dims
                == twisted_betti(sys0).dims), name
        for _ in range(50):
            res = twisted_betti(random_local_system(fx, rng))
            total += 1
            if res.euler_alternating_sum != res.chi:
                euler_failures += 1
        # the trivial system reproduces the classical Betti numbers
        trivial = twisted_betti(local_system(fx.complex, []))
        assert trivial.trivial_system, name

    circle = circle_complex()
    from fractions import Fraction
    twisted_circle = twisted_betti(
        local_system(circle.complex, [((0, 5), Fraction(2))]))
    classical = {
        "circle": (1, 1), "disk": (1, 0, 0), "sphere": (1, 0, 1),
        "torus": (1, 2, 1), "cylinder": (1, 1, 0), "projective_plane": (1, 0, 0),
    }
    classical_ok = all(
        twisted_betti(local_system(FIXTURE_BUILDERS[n]().complex, [])).dims == b
        for n, b in classical.items()
    )
    ok = (euler_failures == 0 and total == 300
          and twisted_circle.dims == (0, 0) and classical_ok)
    _verdict(8, "twisted cohomology", ok,
             f"euler exact on {total} random systems over {len(fixtures)} "
             f"fixtures, holonomy circle -> (0, 0), trivial = classical")


def test_criterion_09_example_reproduction():
    a1, t1 = hyperbolic_example()
    r1 = mapping_torus_betti(a1, t1)
    v1 = example_inequality_check(r1)
    a2, t2 = toral_product_example()
    r2 = mapping_torus_betti(a2, t2)
    v2 = example_inequality_check(r2)
    ok = (r1.dims[0] == 0 and r1.dims[4] == 0
          and r1.euler_alternating_sum == 0 and v1.identity_holds
          and r2.dims[0] == 0 and r2.dims[4] == 0
          and r2.euler_alternating_sum == 0 and v2.identity_holds
          and v2.hypotheses_met and v2.b2_at_least_two and r2.dims[2] >= 2)
    _verdict(9, "example reproduction", ok,
             f"dims {r1.dims} and {r2.dims}, alternating sums 0, "
             f"b2 >= 2 asserted where b1, b3 >= 1")


def test_criterion_10_cli_fixtures(runner_fixtures, tmp_path, golden):
    results = {name: (code, rep["verdict"], cfg["expected_verdict"])
               for name, (code, cfg, rep) in runner_fixtures.items()}
    all_documented = all(
        code == 0 and got == want for code, got, want in results.values()
    )
    # determinism probed on the two cheap fixtures
    stable = True
    for name in ("gcs_rescale", "torus_simplicial"):
        cfg = json.loads(emit_fixture(name, str(tmp_path / "redo")).read_text())
        for d in ("r1", "r2"):
            run(cfg, out_dir=str(tmp_path / "redo" / d), quiet=True)
        ja = json.loads((tmp_path / "redo" / "r1" / "report.json").read_text())
        jb = json.loads((tmp_path / "redo" / "r2" / "report.json").read_text())
        ja.pop("timings"), jb.pop("timings")
        stable = stable and ja == jb
    ok = all_documented and stable
    _verdict(10, "cli fixtures", ok,
             f"{len(results)} fixtures ran to their documented verdicts, "
             "reports deterministic")
    for name, (_, _, rep) in runner_fixtures.items():
        golden(f"fixture_{name}", deterministic(rep))
