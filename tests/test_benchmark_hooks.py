"""The benchmark's tracer finds every package name it wraps and puts each
one back, and the runner accepts every config the benchmark builds.

perfbench/tracing.py wraps package functions by name, so a renamed or
deleted one makes ``install`` raise, and a traced call whose arguments
its work function cannot read raises too; the per-layer metrics count the
spans of the traced moser phases and stage calls; perfbench/checks.py
reads gate tolerances from each report's echoed config.  These tests run
all four in the tier-1 suite, which does not collect perfbench/.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np

from lcsflow import exactlinalg, moser, runner, simplicial, twisted
from lcsflow.runner import validate_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "lcsflow" or name.startswith("lcsflow.")}


def test_tracer_wraps_the_package_and_undo_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    named = ((moser, "exactness_certificate"), (moser, "normalize_family"),
             (twisted, "lee_form"), (exactlinalg, "rational_rank"),
             (simplicial, "coboundary_matrix"))
    originals = [getattr(mod, name) for mod, name in named]
    before = _namespaces()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        for (mod, name), fn in zip(named, originals):
            assert getattr(mod, name) is not fn, name
        # the exact layer through its traced names, as the algebra workload
        # calls it: one coboundary and one rank span per degree
        circle = simplicial.circle_complex()
        system = simplicial.random_local_system(circle, np.random.default_rng(0))
        simplicial.twisted_betti(system)
        spans = tracer.pass_spans(None)
        assert [s[1] for s in spans] == ["simplicial.coboundary",
                                         "exactlinalg.rational_rank"]
        assert spans[1][6] == {"cells": 6 * 6}
    finally:
        patches.undo()
    for (mod, name), fn in zip(named, originals):
        assert getattr(mod, name) is fn, name
    after = _namespaces()
    for mod, ns in before.items():
        assert {k: v for k, v in after[mod].items() if k in ns} == ns, mod


def test_benchmark_configs_are_valid_and_echo_the_tolerances_checked(monkeypatch):
    # every job the benchmark builds is a config the runner accepts, and its
    # echo holds each tolerance perfbench/checks.py reads for its gates
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads

    gate_keys = {"moser": {key for _, _, key in checks.MOSER_GATES},
                 "identities": {key for _, _, key in checks.IDENTITY_GATES}}
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, 101)
        assert jobs, name
        for job in jobs:
            echo = validate_config(job.config)
            want = gate_keys.get(echo["scenario"], set())
            assert want <= set(echo.get("tolerances", {})), (name, job.name)


def test_traced_moser_job_records_every_phase_and_stage_count(monkeypatch, tmp_path):
    # one small T^2 theorem job through the runner, traced as the benchmark
    # traces it: every phase span appears, each of the 2 steps + 1 stage
    # times is built once, and the stage cache is asked once more at each
    # checkpoint than it builds (the driver reads the kept stages again).
    # Every stage evaluation, and every build at a stage time that is not a
    # checkpoint, runs inside the integrate phase, so moser.rk4.step_s
    # (integrate time per step) covers the whole sweep.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    built_at = []   # stage time of each build, in call order
    make = moser.theorem_stage_builder

    def recording(F, opts):
        build = make(F, opts)

        def at(t):
            built_at.append(t)
            return build(t)
        return at

    monkeypatch.setattr(moser, "theorem_stage_builder", recording)
    steps, checkpoints = 4, 3
    cfg = {"scenario": "moser", "generator": "area_interpolation",
           "params": {"eps": 0.2, "n_times": 3}, "grid": {"n": 2, "N": 16},
           "steps": steps, "checkpoints": checkpoints, "seed_stride": 1,
           "path": "theorem", "output": {"json": "t2.json", "csv": "t2.csv"}}
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert runner.run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    finally:
        patches.undo()
    spans = tracer.pass_spans(None)
    calls = Counter(span[1] for span in spans)
    for phase in ("normalize", "certificate", "integrate", "eq1", "compare"):
        assert calls[f"moser.phase.{phase}"] > 0, phase
    assert calls["moser.stage_build"] == 2 * steps + 1
    assert calls["moser.stage_cache"] - calls["moser.stage_build"] == checkpoints

    by_id = {span[0]: span for span in spans}

    def in_integrate(span):
        parent = span[4]
        while parent is not None:
            if by_id[parent][1] == "moser.phase.integrate":
                return True
            parent = by_id[parent][4]
        return False

    evals = [span for span in spans if span[1] == "moser.stage_eval"]
    assert len(evals) == 4 * steps
    assert all(map(in_integrate, evals))
    kept = set(moser.PipelineOptions(steps=steps, checkpoints=checkpoints)
               .checkpoint_times())
    builds = [span for span in spans if span[1] == "moser.stage_build"]
    assert len(built_at) == len(builds)
    in_flow = [span for span, t in zip(builds, built_at) if t not in kept]
    assert len(in_flow) == 2 * steps + 1 - len(kept)
    assert all(map(in_integrate, in_flow))
