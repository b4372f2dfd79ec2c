"""Span tracing of lcsflow from outside the package.

``install`` wraps the public functions of each lcsflow module (and two
runner hooks) so that every call records a span:
name, start, end, parent span and the pass it belongs to.  A function
imported by name into another module is patched there too, because the
caller looks the name up in its own namespace.  ``Patches.undo`` puts
every original back, so untraced passes run the unmodified library.

Spans stay in memory; ``layer_metrics`` derives per-pass counts, self
times and ratios from them.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
import sys
import types
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        # (span id, name, start, end, parent id, pass id, work)
        self.spans: list[tuple | None] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id: int | None = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, work=None):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.pass_id,
                               work(*args, **kwargs) if work else None)

    def count(self, key: str, amount: int):
        self.counts[self.pass_id][key] += int(amount)

    def wrap(self, name, fn, work=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)
        return traced

    def pass_spans(self, pass_id: int) -> list[tuple]:
        return [s for s in self.spans if s is not None and s[5] == pass_id]


class Patches:
    """Attribute and dict-item replacements that can be undone."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, name, value):
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((setattr, owner, name, old))
        setattr(owner, name, value)

    def set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            restore, owner, name, old = self._undo.pop()
            restore(owner, name, old)


def _lcsflow_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "lcsflow" or n.startswith("lcsflow.")]


def _wrap_everywhere(tracer, patches, module, attr, span, work=None):
    """Wrap module.attr and every other lcsflow binding of the same object."""
    original = getattr(module, attr)
    traced = tracer.wrap(span, original, work)
    for mod in _lcsflow_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, name, traced)


def _interp_work(self, points, chunk=None):
    npts = np.atleast_2d(np.asarray(points)).shape[0]
    return {"points": npts, "modes": int(self.modes.shape[0]),
            "pmc": npts * int(self.modes.shape[0]) * int(self.nf)}


def _rank_work(matrix):
    rows = len(matrix)
    return {"cells": rows * (len(matrix[0]) if rows else 0)}


def _counting_fft(tracer, fn):
    @wraps(fn)
    def counted(x, *args, **kwargs):
        out = fn(x, *args, **kwargs)
        tracer.count("fft.elements", np.size(x))
        tracer.count("fft.bytes", np.asarray(x).nbytes + out.nbytes)
        return out
    return counted


def _traced_family(tracer, family):
    """Wrap the sampler callables of a generated family."""
    def w(fn):
        return tracer.wrap("families.sample", fn) if fn is not None else None
    ed = family.exact_data
    if ed is not None:
        ed = dataclasses.replace(ed, alpha_at=w(ed.alpha_at), h_at=w(ed.h_at),
                                 alpha_dot_at=w(ed.alpha_dot_at))
    return dataclasses.replace(family, omega_at=w(family.omega_at),
                               derivative_at=w(family.derivative_at),
                               exact_data=ed)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced lcsflow entry point; returns the undo handle."""
    from lcsflow import (exactlinalg, families, forms, mapping_torus, moser,
                         runner, simplicial, twisted)

    p = Patches()
    # forms
    interp = forms.ModeInterpolator
    p.set(interp, "__call__", tracer.wrap("forms.interp", interp.__call__, _interp_work))
    p.set(interp, "__init__", tracer.wrap("forms.interp_build", interp.__init__))
    p.set(forms.DiffForm, "spectra",
          tracer.wrap("forms.spectra", forms.DiffForm.spectra))
    p.set(forms.DiffForm, "from_spectra", classmethod(tracer.wrap(
        "forms.from_spectra", forms.DiffForm.__dict__["from_spectra"].__func__)))
    for name in ("wedge", "contract"):
        _wrap_everywhere(tracer, p, forms, name, "forms.product")
    for name in ("upsample_values", "downsample_values"):
        _wrap_everywhere(tracer, p, forms, name, "forms.dealias")
    _wrap_everywhere(tracer, p, forms, "ext_d", "forms.ext_d")
    sfft = forms.sfft
    p.set(forms, "sfft", types.SimpleNamespace(
        fftn=_counting_fft(tracer, sfft.fftn),
        ifftn=_counting_fft(tracer, sfft.ifftn)))
    # twisted
    for name in ("solve_primitive", "lee_form", "d_theta", "d_theta_star"):
        _wrap_everywhere(tracer, p, twisted, name, f"twisted.{name}")
    # families: generated samplers and the finite-difference helper
    _wrap_everywhere(tracer, p, families, "fd_derivative", "families.sample")
    build_family = runner._build_family
    p.set(runner, "_build_family",
          lambda cfg: _traced_family(tracer, build_family(cfg)))
    # moser
    for name in ("theorem_stage_builder", "exact_stage_builder"):
        make = getattr(moser, name)
        p.set(moser, name, lambda F, opts, make=make: tracer.wrap(
            "moser.stage_build", make(F, opts)))
    p.set(moser.StageCache, "__call__",
          tracer.wrap("moser.stage_cache", moser.StageCache.__call__))
    p.set(moser.StageData, "eval",
          tracer.wrap("moser.stage_eval", moser.StageData.eval))
    _wrap_everywhere(tracer, p, moser, "moser_vector_field",
                     "moser.moser_vector_field")
    for name, span in (("normalize_family", "normalize"),
                       ("exactness_certificate", "certificate"),
                       ("integrate_isotopy", "integrate"),
                       ("verify_eq1", "eq1"),
                       ("pullback_form", "compare"),
                       ("conformal_compare", "compare")):
        _wrap_everywhere(tracer, p, moser, name, f"moser.phase.{span}")
    # exact layer
    _wrap_everywhere(tracer, p, exactlinalg, "rational_rank",
                     "exactlinalg.rational_rank", _rank_work)
    _wrap_everywhere(tracer, p, simplicial, "coboundary_matrix",
                     "simplicial.coboundary")
    _wrap_everywhere(tracer, p, mapping_torus, "mapping_torus_betti",
                     "mapping_torus.betti")
    # runner: whole call, and the scenario inside it
    _wrap_everywhere(tracer, p, runner, "run", "runner.run")
    for key, fn in list(runner._SCENARIOS.items()):
        p.set_item(runner._SCENARIOS, key, tracer.wrap(f"runner.scenario.{key}", fn))
    return p


# -- metrics derived from spans ------------------------------------------

def _span_table(spans):
    """Per span name: calls, inclusive and self seconds, work sums."""
    child = Counter()
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0,
                                 "work": Counter()})
    for sid, name, start, end, _, _, work in spans:
        row = table[name]
        row["calls"] += 1
        row["incl"] += end - start
        row["self"] += end - start - child[sid]
        row["work"].update(work or {})
    return table


def _ratio(num, den):
    return num / den if den else 0.0


# per_layer metric names and units, in BENCHMARK.json order
LAYER_UNITS = {
    "forms.interp.calls": "count",
    "forms.interp.self_s": "s",
    "forms.interp.share": "fraction",
    "forms.interp.build_s": "s",
    "forms.interp.modes_mean": "modes",
    "forms.interp.pmc": "count",
    "forms.interp.gpmc_per_s": "1e9/s",
    "forms.product.calls": "count",
    "forms.product.self_s": "s",
    "forms.dealias.calls": "count",
    "forms.dealias.self_s": "s",
    "forms.dealias.share": "fraction",
    "forms.spectra.calls": "count",
    "forms.spectra.self_s": "s",
    "forms.from_spectra.calls": "count",
    "forms.from_spectra.self_s": "s",
    "forms.ext_d.calls": "count",
    "forms.ext_d.self_s": "s",
    "forms.fft.elements": "count",
    "forms.fft.bytes_computed": "bytes",
    "twisted.solve_primitive.calls": "count",
    "twisted.solve_primitive.self_s": "s",
    "twisted.lee_form.calls": "count",
    "twisted.lee_form.self_s": "s",
    "twisted.d_theta.calls": "count",
    "twisted.d_theta.self_s": "s",
    "twisted.d_theta_star.self_s": "s",
    "families.sample.calls": "count",
    "families.sample.self_s": "s",
    "moser.stage_build.calls": "count",
    "moser.stage_build.self_s": "s",
    "moser.stage_build.share": "fraction",
    "moser.stage_build.useful_ratio": "fraction",
    "moser.stage_cache.hit_ratio": "fraction",
    "moser.moser_vector_field.self_s": "s",
    "moser.stage_eval.self_s": "s",
    "moser.rk4.step_s": "s",
    "moser.phase.normalize_s": "s",
    "moser.phase.certificate_s": "s",
    "moser.phase.integrate_s": "s",
    "moser.phase.eq1_s": "s",
    "moser.phase.compare_s": "s",
    "moser.cfl_warnings": "count",
    "exactlinalg.rational_rank.calls": "count",
    "exactlinalg.rational_rank.self_s": "s",
    "exactlinalg.rational_rank.share": "fraction",
    "exactlinalg.rank.cells": "count",
    "simplicial.coboundary.self_s": "s",
    "mapping_torus.betti.self_s": "s",
    "runner.overhead_s": "s",
    "runner.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# computed work counts: for a fixed seed they must repeat exactly
# (report bytes are measured, and move with the float text of "timings")
EXACT_COUNTS = tuple(k for k, u in LAYER_UNITS.items()
                     if (u in ("count", "bytes", "modes")
                         or k.endswith(("useful_ratio", "hit_ratio")))
                     and k != "runner.report_bytes")


def layer_metrics(spans, counts: Counter, steps: int, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass (all but trace.overhead_ratio).

    steps is the RK4 step count of the pass's moser job (0 without one);
    pass_s is the traced pass's wall time, the base of every share.
    """
    t = _span_table(spans)
    interp, stage, rank = t["forms.interp"], t["moser.stage_build"], \
        t["exactlinalg.rational_rank"]
    pmc = interp["work"]["pmc"]
    scenario_s = sum(row["incl"] for name, row in t.items()
                     if name.startswith("runner.scenario."))
    m = {
        "forms.interp.calls": interp["calls"],
        "forms.interp.self_s": interp["self"],
        "forms.interp.share": _ratio(interp["self"], pass_s),
        "forms.interp.build_s": t["forms.interp_build"]["incl"],
        "forms.interp.modes_mean": _ratio(interp["work"]["modes"], interp["calls"]),
        "forms.interp.pmc": pmc,
        "forms.interp.gpmc_per_s": _ratio(pmc / 1e9, interp["self"]),
        "forms.dealias.share": _ratio(t["forms.dealias"]["self"], pass_s),
        "forms.fft.elements": counts["fft.elements"],
        "forms.fft.bytes_computed": counts["fft.bytes"],
        "twisted.d_theta_star.self_s": t["twisted.d_theta_star"]["self"],
        "moser.stage_build.share": _ratio(stage["incl"], pass_s),
        "moser.stage_build.useful_ratio": _ratio(2 * steps + 1 if steps else 0,
                                                 stage["calls"]),
        "moser.stage_cache.hit_ratio": _ratio(
            t["moser.stage_cache"]["calls"] - stage["calls"],
            t["moser.stage_cache"]["calls"]),
        "moser.moser_vector_field.self_s": t["moser.moser_vector_field"]["self"],
        "moser.stage_eval.self_s": t["moser.stage_eval"]["self"],
        "moser.rk4.step_s": _ratio(t["moser.phase.integrate"]["incl"], steps),
        "moser.cfl_warnings": counts["cfl_warnings"],
        "exactlinalg.rational_rank.share": _ratio(rank["incl"], pass_s),
        "exactlinalg.rank.cells": rank["work"]["cells"],
        "simplicial.coboundary.self_s": t["simplicial.coboundary"]["self"],
        "mapping_torus.betti.self_s": t["mapping_torus.betti"]["self"],
        "runner.overhead_s": t["runner.run"]["incl"] - scenario_s,
        "runner.report_bytes": counts["report_bytes"],
    }
    for name in ("forms.product", "forms.dealias", "forms.spectra",
                 "forms.from_spectra", "forms.ext_d", "twisted.solve_primitive",
                 "twisted.lee_form", "twisted.d_theta", "families.sample",
                 "moser.stage_build", "exactlinalg.rational_rank"):
        m[f"{name}.calls"] = t[name]["calls"]
        m[f"{name}.self_s"] = t[name]["self"]
    for phase in ("normalize", "certificate", "integrate", "eq1", "compare"):
        m[f"moser.phase.{phase}_s"] = t[f"moser.phase.{phase}"]["incl"]
    return {k: m[k] for k in LAYER_UNITS if k in m}


# activity -> (span name, inclusive or self time)
ACTIVITIES = {
    "stage builds (incl)": ("moser.stage_build", "incl"),
    "interpolator evaluation (self)": ("forms.interp", "self"),
    "lee_form (incl)": ("twisted.lee_form", "incl"),
    "solve_primitive (incl)": ("twisted.solve_primitive", "incl"),
    "wedge/contract (incl)": ("forms.product", "incl"),
    "dealias round trips (self)": ("forms.dealias", "self"),
    "rational_rank (incl)": ("exactlinalg.rational_rank", "incl"),
}


def activity_shares(spans) -> dict:
    """Per runner scenario: the share of its time each activity takes.

    Activities overlap (a stage build contains Hodge solves), so the
    table answers "which of these costs the most", largest first.
    """
    by_id = {s[0]: s for s in spans}

    def scenario_of(span):
        while span is not None:
            if span[1].startswith("runner.scenario."):
                return span[1][len("runner.scenario."):]
            span = by_id.get(span[4])
        return None

    groups = defaultdict(list)
    for s in spans:
        scen = scenario_of(s)
        if scen is not None:
            groups[scen].append(s)
    out = {}
    for scen, group in groups.items():
        t = _span_table(group)
        total = t[f"runner.scenario.{scen}"]["incl"]
        shares = {label: _ratio(t[name][kind], total)
                  for label, (name, kind) in ACTIVITIES.items()}
        out[scen] = {"seconds": total,
                     "shares": dict(sorted(shares.items(), key=lambda kv: -kv[1]))}
    return out
