"""The benchmark's tracer finds every package name it wraps and puts each
one back, and the runner accepts every config the benchmark builds.

perfbench/tracing.py wraps package functions by name, so a renamed or
deleted one makes ``install`` raise, and a traced call whose arguments
its work function cannot read raises too; perfbench/checks.py reads gate
tolerances from each report's echoed config.  These tests run all three
in the tier-1 suite, which does not collect perfbench/.
"""

import sys
from pathlib import Path

import numpy as np

from lcsflow import exactlinalg, moser, simplicial, twisted
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
