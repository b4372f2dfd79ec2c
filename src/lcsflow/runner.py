"""Config-driven scenario runner and the lcsflow-run command line tool.

Scenarios (picked by the "scenario" config field):
  identities               random-form sweep of the twisted-calculus identities
  cohomology_torus         twisted Betti numbers of T^n for a constant Lee form
  cohomology_simplicial    rational twisted Betti numbers of a simplicial complex
  cohomology_mapping_torus Betti numbers of a T^n mapping torus local system
  moser                    the full stability pipeline on a generated family

Reports are written as JSON (always) and, for moser runs, a per-checkpoint
CSV.  Exit codes: 0 all verdicts pass, 1 scenario failure (report still
written), 2 unreadable or invalid config.  Reports are deterministic for a
fixed config and seed, except for the "timings" block.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .families import (
    FormFamily,
    area_interpolation_family,
    contact_circle_family,
    corollary_two_family,
    gcs_rescale_family,
    lee_drift_family,
    tabulated_family,
)
from .forms import (
    DiffForm,
    GridSpec,
    ext_d,
    form_from_literal,
    l2_inner,
    random_band_limited,
    scalar_form,
)
from .mapping_torus import (
    SingularThresholdAmbiguous,
    example_inequality_check,
    mapping_torus_betti,
)
from .moser import (
    DegenerateForm,
    InconsistentLeeDerivative,
    IsotopyDiverged,
    LeeClassDrift,
    NoValidComponents,
    NotExact,
    NotExactFamily,
    PipelineOptions,
    run_exact_family,
    run_theorem_pipeline,
)
from .simplicial import (
    FIXTURE_BUILDERS,
    CocycleViolation,
    build_complex,
    euler_check,
    local_system,
    twisted_betti,
)
from .twisted import LeeForm, NotClosed, NotLcs, d_theta, d_theta_star, torus_twisted_betti

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "t",
    "exactness_residual",
    "harmonic_obstruction",
    "conformal_consistency_error",
    "factor_error",
    "eq1_residual",
]

_DOMAIN_ERRORS = (
    LeeClassDrift,
    NotExact,
    NotExactFamily,
    InconsistentLeeDerivative,
    IsotopyDiverged,
    DegenerateForm,
    NoValidComponents,
    NotClosed,
    NotLcs,
    CocycleViolation,
    SingularThresholdAmbiguous,
)


class ConfigError(ValueError):
    """Malformed or inconsistent configuration (exit code 2)."""


class UnknownFixture(KeyError):
    """emit_fixture called with a name outside the built-in catalog."""


# -- config validation ----------------------------------------------------

_COMMON_KEYS = {"scenario", "comment", "expected_verdict", "seed", "output"}

_SCENARIO_KEYS = {
    "identities": {"grid", "sweep", "tolerances"},
    "cohomology_torus": {"grid", "theta"},
    "cohomology_simplicial": {"fixture", "complex", "weights"},
    "cohomology_mapping_torus": {"matrix", "t0"},
    "moser": {"generator", "params", "grid", "steps", "checkpoints",
              "seed_stride", "path", "tolerances", "allow_scalar_absorption",
              "samples_file"},
}

_MOSER_TOL_MAP = {
    "consistency": "tol_consistency",
    "factor": "tol_factor",
    "eq1": "tol_eq1",
    "exactness": "tol_exactness",
    "lee_match": "tol_lee_match",
    "cor2": "tol_cor2",
    "nondeg_margin": "nondeg_margin",
    "lcs": "lcs_tol",
}

_IDENTITY_TOL_DEFAULTS = {
    "d_theta_squared": 1e-9,
    "chain_map": 1e-9,
    "adjointness": 1e-10,
}

_GENERATORS = {
    "contact_circle": (contact_circle_family, {"s", "c", "n_times"}, (4, 16)),
    "area_interpolation": (area_interpolation_family,
                           {"eps", "sigma", "kappa", "n_times"}, (2, 32)),
    "gcs_rescale": (gcs_rescale_family, {"amp", "n_times"}, (2, 32)),
    "corollary_two": (corollary_two_family, {"s", "c", "a", "n_times"}, (4, 16)),
    "lee_drift": (lee_drift_family, {"c0", "c1", "n_times"}, (4, 16)),
}


def _check_keys(d: dict, allowed: set, where: str):
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(unknown)}")


def _grid_from(cfg: dict, default: tuple[int, int]) -> GridSpec:
    g = cfg.get("grid") or {}
    if not isinstance(g, dict):
        raise ConfigError("grid must be an object like {\"n\": 4, \"N\": 16}")
    _check_keys(g, {"n", "N"}, "grid")
    try:
        return GridSpec(int(g.get("n", default[0])), int(g.get("N", default[1])))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad grid: {e}") from e


def _positive_tols(d: dict, where: str):
    for k, v in d.items():
        if not (isinstance(v, (int, float)) and v > 0):
            raise ConfigError(f"tolerance {where}.{k} must be positive, got {v!r}")


def validate_config(cfg: dict) -> dict:
    """Strictly validate a raw config and fill in defaults (echoed later)."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    scenario = cfg.get("scenario")
    if scenario not in _SCENARIO_KEYS:
        raise ConfigError(
            f"scenario must be one of {sorted(_SCENARIO_KEYS)}, got {scenario!r}"
        )
    _check_keys(cfg, _COMMON_KEYS | _SCENARIO_KEYS[scenario], "config")
    out = dict(cfg)
    out.setdefault("seed", 0)
    output = dict(cfg.get("output") or {})
    _check_keys(output, {"json", "csv"}, "output")
    output.setdefault("json", "report.json")
    output.setdefault("csv", "checkpoints.csv")
    out["output"] = output

    if scenario == "identities":
        sweep = dict(cfg.get("sweep") or {})
        _check_keys(sweep, {"count", "bandwidth", "amplitude"}, "sweep")
        sweep.setdefault("count", 20)
        sweep.setdefault("bandwidth", 2)
        sweep.setdefault("amplitude", 1.0)
        if int(sweep["count"]) < 1:
            raise ConfigError("sweep.count must be >= 1")
        out["sweep"] = sweep
        tols = dict(_IDENTITY_TOL_DEFAULTS)
        given = dict(cfg.get("tolerances") or {})
        _check_keys(given, set(tols), "tolerances")
        tols.update(given)
        _positive_tols(tols, "tolerances")
        out["tolerances"] = tols
        out["grid"] = {"n": _grid_from(cfg, (4, 16)).n,
                       "N": _grid_from(cfg, (4, 16)).N}
    elif scenario == "cohomology_torus":
        grid = _grid_from(cfg, (4, 16))
        theta = cfg.get("theta", [0.0] * grid.n)
        if len(theta) != grid.n:
            raise ConfigError(f"theta must have length n = {grid.n}")
        out["grid"] = {"n": grid.n, "N": grid.N}
        out["theta"] = [float(v) for v in theta]
    elif scenario == "cohomology_simplicial":
        if ("fixture" in cfg) == ("complex" in cfg):
            raise ConfigError("give exactly one of 'fixture' or 'complex'")
        if "fixture" in cfg and cfg["fixture"] not in FIXTURE_BUILDERS:
            raise ConfigError(
                f"fixture must be one of {sorted(FIXTURE_BUILDERS)}"
            )
        if "complex" in cfg:
            body = cfg["complex"]
            if not isinstance(body, dict) or "top_simplices" not in body:
                raise ConfigError("complex must contain 'top_simplices'")
            _check_keys(body, {"top_simplices", "weights"}, "complex")
    elif scenario == "cohomology_mapping_torus":
        if "matrix" not in cfg:
            raise ConfigError("cohomology_mapping_torus needs 'matrix'")
        out.setdefault("t0", 1)
    elif scenario == "moser":
        gen = cfg.get("generator")
        if gen not in set(_GENERATORS) | {"tabulated"}:
            raise ConfigError(
                f"generator must be one of "
                f"{sorted(set(_GENERATORS) | {'tabulated'})}, got {gen!r}"
            )
        params = dict(cfg.get("params") or {})
        if gen == "tabulated":
            if "samples_file" not in cfg:
                raise ConfigError("tabulated generator needs 'samples_file'")
            _check_keys(params, set(), "params")
        else:
            _check_keys(params, _GENERATORS[gen][1], "params")
        out["params"] = params
        path = cfg.get("path", "theorem")
        if path not in ("theorem", "exact_family"):
            raise ConfigError("path must be 'theorem' or 'exact_family'")
        out["path"] = path
        out.setdefault("steps", 200)
        out.setdefault("checkpoints", 11)
        out.setdefault("seed_stride", 1)
        out.setdefault("allow_scalar_absorption", True)
        if int(out["steps"]) < 1 or int(out["checkpoints"]) < 2:
            raise ConfigError("steps must be >= 1 and checkpoints >= 2")
        given = dict(cfg.get("tolerances") or {})
        _check_keys(given, set(_MOSER_TOL_MAP), "tolerances")
        _positive_tols(given, "tolerances")
        base = PipelineOptions()
        tols = {k: getattr(base, v) for k, v in _MOSER_TOL_MAP.items()}
        tols.update(given)
        out["tolerances"] = tols
        if gen in _GENERATORS:
            default_grid = _GENERATORS[gen][2]
            grid = _grid_from(cfg, default_grid)
            if grid.n != default_grid[0]:
                raise ConfigError(
                    f"generator {gen} lives on T^{default_grid[0]}, "
                    f"got n = {grid.n}"
                )
            out["grid"] = {"n": grid.n, "N": grid.N}
    return out


# -- scenario implementations --------------------------------------------


def _scenario_identities(cfg: dict) -> tuple[dict, bool]:
    grid = _grid_from(cfg, (4, 16))
    rng = np.random.default_rng(cfg["seed"])
    sweep = cfg["sweep"]
    count, bw = int(sweep["count"]), int(sweep["bandwidth"])
    amp = float(sweep["amplitude"])
    tols = cfg["tolerances"]
    max_dsq = max_chain = max_adj = 0.0
    for _ in range(count):
        k = int(rng.integers(0, grid.n - 1))
        a = random_band_limited(grid, k, bw, rng, amp)
        lee = LeeForm(grid, rng.standard_normal(grid.n),
                      random_band_limited(grid, 0, 1, rng, 0.3).comps[0])
        theta = lee.one_form()
        da = d_theta(a, theta)
        max_dsq = max(max_dsq, d_theta(da, theta).norm() / max(1.0, a.norm()))

        # keep e^{g0} essentially band-limited: its Fourier tail past the
        # Nyquist band is what limits the discrete chain-map residual
        g0 = random_band_limited(grid, 0, 1, rng, 0.05).comps[0]
        f = np.exp(g0)
        fa = DiffForm(grid, k, a.comps * f[None])
        theta_g = theta + ext_d(scalar_form(grid, g0))
        lhs = d_theta(fa, theta_g)
        rhs = DiffForm(grid, k + 1, da.comps * f[None])
        max_chain = max(max_chain, (lhs - rhs).norm() / max(1.0, rhs.norm()))

        b = random_band_limited(grid, k + 1, bw, rng, amp)
        dev = abs(l2_inner(da, b) - l2_inner(a, d_theta_star(b, theta)))
        max_adj = max(max_adj, dev / max(1.0, a.norm() * b.norm()))
    result = {
        "count": count,
        "max_d_theta_squared": max_dsq,
        "max_chain_map": max_chain,
        "max_adjointness": max_adj,
    }
    ok = (max_dsq <= tols["d_theta_squared"]
          and max_chain <= tols["chain_map"]
          and max_adj <= tols["adjointness"])
    return result, ok


def _scenario_cohomology_torus(cfg: dict) -> tuple[dict, bool]:
    grid = _grid_from(cfg, (4, 16))
    theta = np.array(cfg["theta"], dtype=float)
    dims = torus_twisted_betti(theta, grid)
    alt = sum((-1) ** k * d for k, d in enumerate(dims))
    result = {"dims": list(dims), "alternating_sum": alt,
              "theta": list(theta)}
    return result, alt == 0


def _scenario_cohomology_simplicial(cfg: dict) -> tuple[dict, bool]:
    if "fixture" in cfg:
        fx = FIXTURE_BUILDERS[cfg["fixture"]]()
        comp = fx.complex
        weight_specs = cfg.get("weights") or []
    else:
        body = cfg["complex"]
        comp = build_complex([tuple(s) for s in body["top_simplices"]])
        weight_specs = body.get("weights") or []
    system = local_system(comp, weight_specs)
    result = twisted_betti(system)
    verdict = euler_check(result)
    out = result.as_dict()
    out["euler_identity_holds"] = verdict.ok
    return out, verdict.ok


def _scenario_cohomology_mapping_torus(cfg: dict) -> tuple[dict, bool]:
    matrix = cfg["matrix"]
    result = mapping_torus_betti(matrix, cfg["t0"])
    out = result.as_dict()
    ok = out["euler_alternating_sum"] == 0
    if len(result.dims) == 5:
        verdict = example_inequality_check(result)
        out["example_check"] = verdict.as_dict()
        ok = ok and verdict.identity_holds
    return out, ok


def _build_family(cfg: dict) -> FormFamily:
    gen = cfg["generator"]
    if gen == "tabulated":
        blob = json.loads(Path(cfg["samples_file"]).read_text())
        _check_keys(blob, {"grid", "times", "samples", "comment"},
                    "samples file")
        g = blob["grid"]
        grid = GridSpec(int(g["n"]), int(g["N"]))
        times = [float(t) for t in blob["times"]]
        samples = [form_from_literal(grid, 2, lit) for lit in blob["samples"]]
        return tabulated_family(grid, times, samples)
    builder, _, default_grid = _GENERATORS[gen]
    kwargs = dict(cfg["params"])
    grid = _grid_from(cfg, default_grid)
    return builder(grid=grid, **kwargs)


def _scenario_moser(cfg: dict) -> tuple[dict, bool]:
    family = _build_family(cfg)
    tols = cfg["tolerances"]
    opts = PipelineOptions(
        steps=int(cfg["steps"]),
        checkpoints=int(cfg["checkpoints"]),
        seed_stride=int(cfg["seed_stride"]),
        allow_scalar_absorption=bool(cfg["allow_scalar_absorption"]),
        **{_MOSER_TOL_MAP[k]: float(v) for k, v in tols.items()},
    )
    if cfg["path"] == "exact_family":
        report = run_exact_family(family, opts)
    else:
        report = run_theorem_pipeline(family, opts)
    return report.as_dict(), report.success


_SCENARIOS = {
    "identities": _scenario_identities,
    "cohomology_torus": _scenario_cohomology_torus,
    "cohomology_simplicial": _scenario_cohomology_simplicial,
    "cohomology_mapping_torus": _scenario_cohomology_mapping_torus,
    "moser": _scenario_moser,
}


# -- report plumbing ------------------------------------------------------


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


def _write_report(report: dict, cfg: dict, out_dir: str):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / cfg["output"]["json"]
    path.write_text(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
    checkpoints = (report.get("result") or {}).get("checkpoints")
    if cfg["scenario"] == "moser" and checkpoints:
        with (out / cfg["output"]["csv"]).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in checkpoints:
                writer.writerow([repr(float(row[c])) for c in CSV_COLUMNS])
    return path


def _summary_lines(report: dict) -> list[str]:
    cfg = report["config"]
    lines = [f"scenario: {cfg['scenario']}"]
    res = report.get("result") or {}
    if cfg["scenario"] == "identities":
        for k in ("max_d_theta_squared", "max_chain_map", "max_adjointness"):
            lines.append(f"  {k} = {res[k]:.3e}")
    elif cfg["scenario"].startswith("cohomology"):
        if "dims" in res:
            lines.append(f"  dims = {tuple(res['dims'])}")
        if "example_check" in res:
            ec = res["example_check"]
            lines.append(f"  b2_at_least_two = {ec['b2_at_least_two']}")
    elif cfg["scenario"] == "moser" and res:
        lines.append(f"  verdict = {res.get('verdict')}")
        for k in ("max_consistency", "max_factor_error", "max_eq1",
                  "max_flow_identity", "max_cor2"):
            if res.get(k) is not None:
                lines.append(f"  {k} = {res[k]:.3e}")
    if "error" in report:
        err = report["error"]
        lines.append(f"  error: {err['type']}: {err['message']}")
    lines.append(f"verdict: {report['verdict']}")
    return lines


def run(config, out_dir: str = ".", overrides: dict | None = None,
        quiet: bool = False) -> int:
    """Validate, dispatch, write reports; return the process exit code."""
    if not isinstance(config, dict):
        try:
            config = json.loads(Path(config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}") from e
    cfg = validate_config(config)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "steps" and cfg["scenario"] == "moser":
            cfg["steps"] = int(value)
        elif key == "grid" and "grid" in cfg:
            cfg["grid"] = {"n": cfg["grid"]["n"], "N": int(value)}
    report: dict = {"schema_version": SCHEMA_VERSION, "config": _jsonable(cfg)}
    t0 = time.perf_counter()
    code = 0
    try:
        result, ok = _SCENARIOS[cfg["scenario"]](cfg)
        report["result"] = result
        report["verdict"] = "pass" if ok else "fail"
        code = 0 if ok else 1
    except _DOMAIN_ERRORS as e:
        report["result"] = None
        report["error"] = {"type": type(e).__name__, "message": str(e)}
        report["verdict"] = "fail"
        code = 1
    report["timings"] = {"seconds": time.perf_counter() - t0}
    path = _write_report(report, cfg, out_dir)
    if not quiet:
        for line in _summary_lines(report):
            print(line)
        print(f"report: {path}")
    return code


# -- fixture catalog ------------------------------------------------------


def _torus_weight_specs() -> list[dict]:
    """Edge weights on the 4x4 torus grid realizing holonomy 2 around one loop."""
    fx = FIXTURE_BUILDERS["torus"]()
    cocycle = fx.cocycles[0]
    specs = []
    for (a, b) in sorted(fx.complex.simplices[1]):
        z = cocycle.get((a, b), 0)
        if z:
            specs.append({"edge": [a, b], "w": f"{2 ** z}" if z > 0
                          else f"1/{2 ** (-z)}"})
    return specs


def _fixture_catalog() -> dict[str, dict]:
    return {
        "contact_circle": {
            "scenario": "moser",
            "comment": "T^4 contact-circle family, theorem path, full grid; "
                       "expected verdict: pass (factor identically 1).",
            "expected_verdict": "pass",
            "generator": "contact_circle",
            "params": {"s": 0.7853981633974483, "c": 1.0},
            "grid": {"n": 4, "N": 16},
            "steps": 200,
            "checkpoints": 11,
            "path": "theorem",
        },
        "area_t2": {
            "scenario": "moser",
            "comment": "T^2 area interpolation with total-area growth; the "
                       "harmonic obstruction is absorbed into a constant "
                       "rescale; expected verdict: pass.",
            "expected_verdict": "pass",
            "generator": "area_interpolation",
            "params": {"eps": 0.1, "sigma": 0.3},
            "grid": {"n": 2, "N": 32},
            "steps": 100,
            "checkpoints": 11,
            "path": "theorem",
        },
        "gcs_rescale": {
            "scenario": "moser",
            "comment": "globally conformal rescale of the T^2 area form; "
                       "gauge normalization makes the family constant; "
                       "expected verdict: pass.",
            "expected_verdict": "pass",
            "generator": "gcs_rescale",
            "params": {"amp": 0.25},
            "grid": {"n": 2, "N": 32},
            "steps": 50,
            "checkpoints": 11,
            "path": "theorem",
        },
        "anosov_mapping_torus": {
            "scenario": "cohomology_mapping_torus",
            "comment": "hyperbolic T^3 mapping torus at t0 = 1/lambda: "
                       "b0 = b4 = 0, alternating sum 0; expected verdict: "
                       "pass.",
            "expected_verdict": "pass",
            "matrix": [[0, 0, 1], [1, 0, 0], [0, 1, 1]],
            "t0": 0.6823278038280193,
        },
        "torus_simplicial": {
            "scenario": "cohomology_simplicial",
            "comment": "4x4 torus triangulation with holonomy 2 around one "
                       "loop: all twisted Betti numbers vanish; expected "
                       "verdict: pass.",
            "expected_verdict": "pass",
            "fixture": "torus",
            "weights": _torus_weight_specs(),
        },
    }


def emit_fixture(name: str, out_dir: str = ".") -> Path:
    """Write one of the built-in ready-to-run configs; returns its path."""
    catalog = _fixture_catalog()
    if name not in catalog:
        raise UnknownFixture(
            f"unknown fixture {name!r}; available: {sorted(catalog)}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    path.write_text(json.dumps(_jsonable(catalog[name]), indent=2,
                               sort_keys=True) + "\n")
    return path


def fixture_names() -> list[str]:
    return sorted(_fixture_catalog())


# -- command line ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcsflow-run",
        description="run lcsflow scenario configs and emit fixture configs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--out", default=".", help="report output directory")
    p_run.add_argument("--steps", type=int, default=None,
                       help="override step count (moser scenario)")
    p_run.add_argument("--grid", type=int, default=None,
                       help="override grid resolution N")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the stdout summary")
    p_emit = sub.add_parser("emit-fixture", help="write a built-in config")
    p_emit.add_argument("name", help="fixture name (or 'list')")
    p_emit.add_argument("--out", default=".", help="directory to write into")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "emit-fixture":
        if args.name == "list":
            for name in fixture_names():
                print(name)
            return 0
        try:
            path = emit_fixture(args.name, args.out)
        except UnknownFixture as e:
            print(f"error: {e.args[0]}", file=sys.stderr)
            return 2
        print(path)
        return 0
    try:
        return run(args.config, out_dir=args.out,
                   overrides={"steps": args.steps, "grid": args.grid},
                   quiet=args.quiet)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
