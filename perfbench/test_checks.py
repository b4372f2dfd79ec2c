"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest -q perfbench

A doctored report (flipped verdict, residual above its tolerance, wrong
Betti number) must count as a failed pass, and tracing must leave the
reports unchanged apart from "timings".
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import Job, fixture_jobs  # noqa: E402

from lcsflow import runner, twisted  # noqa: E402
from lcsflow.mapping_torus import hyperbolic_example  # noqa: E402


def _out(name):
    return {"json": f"{name}.json", "csv": f"{name}.csv"}


SMALL_JOBS = [
    Job({"scenario": "moser", "generator": "area_interpolation",
         "params": {"eps": 0.1, "sigma": 0.3}, "grid": {"n": 2, "N": 16},
         "steps": 4, "checkpoints": 2, "path": "theorem",
         "output": _out("moser")}, {"kind": "moser"}),
    Job({"scenario": "identities", "grid": {"n": 2, "N": 16}, "seed": 3,
         "sweep": {"count": 2, "bandwidth": 2}, "output": _out("identities")},
        {"kind": "identities"}),
    *fixture_jobs("torus", np.random.default_rng(0)),
    Job({"scenario": "cohomology_mapping_torus",
         "matrix": hyperbolic_example()[0], "t0": hyperbolic_example()[1],
         "output": _out("mapping_torus")}, {"kind": "mapping_torus"}),
]


def _run_all(jobs, out_dir):
    outcomes = []
    for job in jobs:
        code = runner.run(copy.deepcopy(job.config), out_dir=str(out_dir), quiet=True)
        path = Path(out_dir) / job.config["output"]["json"]
        outcomes.append((code, json.loads(path.read_text())))
    return outcomes


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    return _run_all(SMALL_JOBS, tmp_path_factory.mktemp("reports"))


def _doctored(outcomes, job_name, edit):
    out = copy.deepcopy(outcomes)
    index = [j.name for j in SMALL_JOBS].index(job_name)
    edit(out[index][1])
    return out


def test_clean_reports_pass(clean):
    assert checks.pass_problems(SMALL_JOBS, clean) == []
    assert 0 < checks.accuracy_digits(rep for _, rep in clean) < 20


@pytest.mark.parametrize("job_name", ["moser", "identities", "torus_random"])
def test_flipped_verdict_fails(clean, job_name):
    bad = _doctored(clean, job_name, lambda rep: rep.update(verdict="fail"))
    assert checks.pass_problems(SMALL_JOBS, bad)


def test_flipped_moser_verdict_fails(clean):
    def edit(rep):
        rep["result"]["verdict"] = "not_certified_in_canonical_gauge"
    assert checks.pass_problems(SMALL_JOBS, _doctored(clean, "moser", edit))


def test_factor_sign_fails(clean):
    def edit(rep):
        rep["result"]["factor_positive"] = False
    assert checks.pass_problems(SMALL_JOBS, _doctored(clean, "moser", edit))


@pytest.mark.parametrize("job_name,key,tol_key", [
    ("moser", "max_factor_error", "factor"),
    ("moser", "max_flow_identity", "eq1"),
    ("moser", "max_exactness", "exactness"),
    ("identities", "max_chain_map", "chain_map"),
])
def test_residual_above_tolerance_fails(clean, job_name, key, tol_key):
    def edit(rep):
        rep["result"][key] = 2.0 * rep["config"]["tolerances"][tol_key]
    problems = checks.pass_problems(SMALL_JOBS, _doctored(clean, job_name, edit))
    assert any(key in p or "gate" in p for p in problems)


def test_nan_residual_fails(clean):
    def edit(rep):
        rep["result"]["max_consistency"] = math.nan
    assert checks.pass_problems(SMALL_JOBS, _doctored(clean, "moser", edit))


@pytest.mark.parametrize("job_name,dims", [
    ("torus_trivial", [1, 1, 1]),   # Euler sum 1 != chi 0
    ("torus_trivial", [2, 4, 2]),   # Euler holds, classical Betti numbers do not
    ("torus_gauged", [1, 2, 1]),    # Euler holds, gauge invariance does not
    ("mapping_torus", [1, 1, 0, 1, 1]),  # b0 = b4 = 0 broken
])
def test_wrong_betti_number_fails(clean, job_name, dims):
    def edit(rep):
        rep["result"]["dims"] = dims
    assert checks.pass_problems(SMALL_JOBS, _doctored(clean, job_name, edit))


def test_nonzero_exit_fails(clean):
    bad = copy.deepcopy(clean)
    bad[0] = (1, bad[0][1])
    assert checks.pass_problems(SMALL_JOBS, bad)


def test_accuracy_digits_is_the_tightest_gate():
    rep = {"config": {"scenario": "identities", "tolerances": {
        "d_theta_squared": 1e-9, "chain_map": 1e-9, "adjointness": 1e-10}},
        "result": {"max_d_theta_squared": 1e-13, "max_chain_map": 1e-10,
                   "max_adjointness": 0.0}}
    assert checks.accuracy_digits([rep]) == pytest.approx(1.0)


def test_self_time_subtracts_children():
    spans = [
        (0, "outer", 0.0, 10.0, None, 0, None),
        (1, "inner", 1.0, 4.0, 0, 0, {"cells": 6}),
        (2, "inner", 5.0, 6.0, 0, 0, {"cells": 4}),
    ]
    t = tracing._span_table(spans)
    assert t["outer"]["self"] == pytest.approx(6.0)
    assert t["inner"]["calls"] == 2
    assert t["inner"]["self"] == pytest.approx(4.0)
    assert t["inner"]["work"]["cells"] == 10


def test_tracing_leaves_reports_unchanged(tmp_path):
    plain = _run_all(SMALL_JOBS, tmp_path / "plain")
    tracer = tracing.Tracer()
    tracer.pass_id = 0
    original = twisted.solve_primitive
    patches = tracing.install(tracer)
    try:
        traced = _run_all(SMALL_JOBS, tmp_path / "traced")
    finally:
        patches.undo()
    assert twisted.solve_primitive is original
    assert [checks.without_timings(r) for _, r in traced] == \
        [checks.without_timings(r) for _, r in plain]
    spans = tracer.pass_spans(0)
    names = {s[1] for s in spans}
    assert {"runner.run", "forms.interp", "twisted.solve_primitive",
            "exactlinalg.rational_rank", "mapping_torus.betti"} <= names
    m = tracing.layer_metrics(spans, tracer.counts[0], steps=4, pass_s=1.0)
    assert m["moser.stage_build.calls"] >= 2 * 4 + 1
    assert m["forms.fft.elements"] > 0
