"""Checks on the reports of one workload pass.

A pass fails when any job exits non-zero, any report's verdict is not
``pass``, any gate the report itself ANDs lies outside the tolerance
echoed in the report's own config, or any cohomology result disagrees
with a fact supplied with the job.  ``accuracy_digits`` is the smallest
log10(tolerance / value) over every gate of the pass.
"""

from __future__ import annotations

import math
import sys

# (gate, result key, tolerance key in the echoed config)
MOSER_GATES = (
    ("exactness", "max_exactness", "exactness"),
    ("obstruction", "max_obstruction", "exactness"),
    ("consistency", "max_consistency", "consistency"),
    ("factor", "max_factor_error", "factor"),
    ("flow_identity", "max_flow_identity", "eq1"),
    ("cor2", "max_cor2", "cor2"),
)
IDENTITY_GATES = (
    ("d_theta_squared", "max_d_theta_squared", "d_theta_squared"),
    ("chain_map", "max_chain_map", "chain_map"),
    ("adjointness", "max_adjointness", "adjointness"),
)


def gates(report: dict) -> list[tuple[str, float, float]]:
    """(name, value, tolerance) for every numeric gate of a report."""
    cfg, res = report["config"], report.get("result") or {}
    table = {"moser": MOSER_GATES, "identities": IDENTITY_GATES}.get(
        cfg["scenario"], ())
    out = []
    for name, key, tol_key in table:
        value = res.get(key)
        if key == "max_cor2" and value is None:
            continue  # the theorem path has no cor2 identity
        out.append((name, value, cfg["tolerances"][tol_key]))
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def report_problems(code: int, report: dict, facts: dict) -> list[str]:
    """Everything wrong with one report, judged on its own."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}")
    res = report.get("result")
    if not isinstance(res, dict):
        return problems + [f"no result ({report.get('error')})"]
    for name, value, tol in gates(report):
        if not (_is_number(value) and 0.0 <= value <= tol):
            problems.append(f"gate {name} = {value!r} outside tolerance {tol!r}")
    kind = facts.get("kind")
    if kind == "moser":
        if res.get("factor_positive") is not True:
            problems.append("factor_positive is not true")
        if res.get("verdict") != "certified_conformally_equivalent":
            problems.append(f"moser verdict {res.get('verdict')!r}")
    elif kind in ("simplicial", "mapping_torus"):
        dims = res.get("dims")
        if not (isinstance(dims, list) and all(isinstance(d, int) and d >= 0
                                               for d in dims)):
            return problems + [f"malformed dims {dims!r}"]
        alt = sum((-1) ** k * d for k, d in enumerate(dims))
        chi = facts.get("chi", 0)
        if alt != chi:
            problems.append(f"Euler sum {alt} != chi {chi} for dims {dims}")
        if "dims" in facts and tuple(dims) != tuple(facts["dims"]):
            problems.append(f"dims {dims} != classical {list(facts['dims'])}")
        if kind == "mapping_torus" and (dims[0] != 0 or dims[-1] != 0):
            problems.append(f"mapping torus b0/b4 nonzero in {dims}")
    return problems


def pass_problems(jobs, outcomes) -> list[str]:
    """Problems of a whole pass; outcomes[i] = (exit code, report) of jobs[i]."""
    problems = []
    dims = {job.name: (rep.get("result") or {}).get("dims")
            for job, (_, rep) in zip(jobs, outcomes)}
    for job, (code, rep) in zip(jobs, outcomes):
        found = report_problems(code, rep, job.facts)
        twin = job.facts.get("same_dims_as")
        if twin is not None and dims[job.name] != dims[twin]:
            found.append(f"gauge-transformed dims {dims[job.name]} != "
                         f"{dims[twin]} of {twin}")
        problems.extend(f"{job.name}: {p}" for p in found)
    return problems


def accuracy_digits(reports) -> float:
    """min over all gates of log10(tolerance / value).

    An exact zero is floored at the smallest float, about 308 digits, so
    it never sets the minimum.
    """
    digits = [math.log10(tol / max(value, sys.float_info.min))
              for rep in reports for _, value, tol in gates(rep)]
    return min(digits)


def without_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}
