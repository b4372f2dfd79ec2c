"""Committed golden reports and the tolerance-aware comparison against them.

Each file tests/golden/<name>.json holds

    {"bounds": {field: {"atol": a, "rtol": r, "why": "..."}, ...},
     "report": <deterministic part of one or more reports>}

The comparison walks both trees together:

* dict key sets, list lengths, strings, booleans, None and integers must
  match exactly (so verdicts, ``success``, ``factor_positive``, gate flags
  and exact Betti numbers cannot move);
* a float matches when |got - golden| <= atol + rtol * |golden|, with the
  bound looked up by the float's own key, or by the key of the list it
  sits in (every checkpoint's ``factor_min`` shares one bound).  Fields
  not named under "bounds" use DEFAULT_ATOL + DEFAULT_RTOL * |golden|.

Regeneration rewrites only "report" and keeps the hand-written "bounds".
It takes the structure (keys, list lengths, types) from the new report but
keeps every golden float that the comparison accepts, so a regeneration
diff shows only what moved past its bound; see tests/golden/regenerate.py.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_ATOL = 1e-12
DEFAULT_RTOL = 1e-6


def plain(data):
    """JSON-native copy of a report: tuples as lists, numpy scalars unboxed."""

    def _default(x):
        if isinstance(x, (np.generic, np.ndarray)):
            return x.tolist()
        raise TypeError(f"not JSON serializable: {type(x).__name__}")

    return json.loads(json.dumps(data, default=_default))


def deterministic(report: dict) -> dict:
    """A runner report without its wall-clock ``timings`` block."""
    return {k: v for k, v in report.items() if k != "timings"}


def compare(got, want, bounds: dict, key: str = "", where: str = "") -> list[str]:
    """Every mismatch between got and want, one line each."""
    where = where or "report"
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object, got {type(got).__name__}"]
        if set(got) != set(want):
            return [f"{where}: keys differ: missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}"]
        out = []
        for k in want:
            out += compare(got[k], want[k], bounds, k, f"{where}.{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected a list of {len(want)}, got {got!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, bounds, key, f"{where}[{i}]")
        return out
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) or math.isnan(got):
            ok = math.isnan(want) and math.isnan(got)
            return [] if ok else [f"{where}: {got!r} != {want!r}"]
        b = bounds.get(key, {})
        atol = b.get("atol", DEFAULT_ATOL)
        rtol = b.get("rtol", DEFAULT_RTOL)
        lim = atol + rtol * abs(want)
        if abs(got - want) <= lim:
            return []
        return [f"{where}: {got!r} vs golden {want!r} "
                f"(|diff| {abs(got - want):.3e} > {lim:.3e})"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != golden {want!r}"]
    return []


def merge(got, want, bounds: dict, key: str = ""):
    """got, with each float that compare accepts against want kept at want."""
    if isinstance(got, dict) and isinstance(want, dict):
        return {k: merge(v, want[k], bounds, k) if k in want else v
                for k, v in got.items()}
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [merge(g, w, bounds, key) for g, w in zip(got, want)]
    if isinstance(got, float) and isinstance(want, float) and not compare(
            got, want, bounds, key):
        return want
    return got


def check(name: str, data, update: bool = False):
    """Assert that data matches tests/golden/<name>.json, or with update
    write data there, merged into the golden report as merge does."""
    path = GOLDEN_DIR / f"{name}.json"
    got = plain(data)
    bounds, want = {}, None
    if path.exists():
        blob = json.loads(path.read_text())
        bounds, want = blob["bounds"], blob["report"]
    if update:
        blob = {"bounds": bounds, "report": merge(got, want, bounds)}
        path.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
        return
    assert path.exists(), f"no golden file {path.name}; run tests/golden/regenerate.py"
    problems = compare(got, want, bounds)
    assert not problems, "\n".join([f"{name} differs from its golden report:",
                                     *problems])
