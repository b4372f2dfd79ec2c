"""The benchmark's tracer finds every package name it wraps and puts each
one back.

perfbench/tracing.py wraps package functions by name, so a renamed or
deleted one makes ``install`` raise; this test runs it in the tier-1
suite, which does not collect perfbench/.
"""

import sys
from pathlib import Path

from lcsflow import moser, twisted

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "lcsflow" or name.startswith("lcsflow.")}


def test_tracer_wraps_the_package_and_undo_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    named = ((moser, "exactness_certificate"), (moser, "normalize_family"),
             (twisted, "lee_form"))
    originals = [getattr(mod, name) for mod, name in named]
    before = _namespaces()
    patches = tracing.install(tracing.Tracer())
    try:
        for (mod, name), fn in zip(named, originals):
            assert getattr(mod, name) is not fn, name
    finally:
        patches.undo()
    for (mod, name), fn in zip(named, originals):
        assert getattr(mod, name) is fn, name
    after = _namespaces()
    for mod, ns in before.items():
        assert {k: v for k, v in after[mod].items() if k in ns} == ns, mod
