"""Config-driven scenario runner and the lcsflow-run command line tool.

Scenarios (picked by the "scenario" config field):
  identities               random-form sweep of the twisted-calculus identities
  cohomology_torus         twisted Betti numbers of T^n for a constant Lee form
  cohomology_simplicial    rational twisted Betti numbers of a simplicial complex
  cohomology_mapping_torus Betti numbers of a T^n mapping torus local system
  moser                    the full stability pipeline on a generated family

Reports are written as JSON (always) and, for moser runs, a per-checkpoint
CSV.  Exit codes: 0 all verdicts pass, 1 scenario failure (report still
written), 2 unreadable or invalid config or unusable output directory.
Reports are deterministic for a fixed config and seed, except for the
"timings" block.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DomainError
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
    index_sets,
    l2_inner,
    random_band_limited,
    scalar_form,
)
from .mapping_torus import example_inequality_check, mapping_torus_betti
from .moser import (
    GATES,
    PipelineOptions,
    TOLERANCES,
    run_exact_family,
    run_theorem_pipeline,
)
from .simplicial import FIXTURE_BUILDERS, build_complex, local_system, twisted_betti
from .twisted import (LCS_TOL, NONDEG_THRESHOLD, LeeForm, d_theta, d_theta_star,
                      torus_twisted_betti)

SCHEMA_VERSION = 2

# a checkpoint row holds the gated fields every path records
CSV_COLUMNS = ["t", *(field for _, field, _ in GATES if field != "cor2_identity_residual")]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration (exit code 2)."""


class UnknownFixture(KeyError):
    """emit_fixture called with a name outside the built-in catalog."""


# -- config validation ----------------------------------------------------

_COMMON_KEYS = {"scenario", "comment", "expected_verdict", "output"}

_SCENARIO_KEYS = {
    "identities": {"grid", "seed", "sweep", "tolerances"},
    "cohomology_torus": {"theta"},
    "cohomology_simplicial": {"fixture", "complex", "weights"},
    "cohomology_mapping_torus": {"matrix", "t0"},
    "moser": {"generator", "params", "grid", "steps", "checkpoints",
              "seed_stride", "path", "allow_scalar_absorption", "samples_file",
              "tolerances"},
}

_IDENTITY_TOL_DEFAULTS = {"d_theta_squared": 1e-9, "chain_map": 1e-9,
                          "adjointness": 1e-10}

_GENERATORS = {
    "contact_circle": (contact_circle_family, {"s", "c", "n_times"}, (4, 16)),
    "area_interpolation": (area_interpolation_family,
                           {"eps", "sigma", "n_times"}, (2, 32)),
    "gcs_rescale": (gcs_rescale_family, {"amp", "n_times"}, (2, 32)),
    "corollary_two": (corollary_two_family, {"s", "c", "a", "n_times"}, (4, 16)),
    "lee_drift": (lee_drift_family, {"c0", "c1", "n_times"}, (4, 16)),
}

# the fields of PipelineOptions, which a moser config sets
_RUN_SHAPE = [f.name for f in fields(PipelineOptions)]


def _check_keys(d: dict, allowed: set, where: str):
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(unknown)}")


@contextmanager
def _library_checks():
    """Argument errors the library raises while it builds its input become
    ConfigError (exit 2); domain errors pass through (exit 1)."""
    try:
        yield
    except (ConfigError, DomainError):
        raise
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(str(e)) from e


def _need(ok: bool, where: str, want: str, v):
    if not ok:
        raise ConfigError(f"{where} must be {want}, got {v!r}")
    return v


def _integer(v, least: int, where: str) -> int:
    return _need(type(v) is int and v >= least, where,  # bools fail
                 f"an integer >= {least}", v)


def _number(v, where: str, positive: bool = False):
    # not a bool, nan, inf or an int too large for a float
    ok = (isinstance(v, (int, float)) and not isinstance(v, bool)
          and abs(v) <= sys.float_info.max and (v > 0 or not positive))
    return _need(ok, where, "a positive number" if positive else "a finite number", v)


def _string(v, where: str, choices=None) -> str:
    return _need(isinstance(v, str) and (choices is None or v in choices), where,
                 "a string" if choices is None else f"one of {sorted(choices)}", v)


def _file_name(v, where: str) -> str:
    """v, which must name a file in the output directory itself."""
    ok = isinstance(v, str) and v not in ("", ".", "..") and not set(v) & set("/\\\0")
    return _need(ok, where, "a plain file name", v)


def _list(v, where: str, item=None) -> list:
    """v, which must be a list; item(x, where) checks each entry when given."""
    _need(isinstance(v, list), where, "a list", v)
    for i, x in enumerate(v if item else ()):
        item(x, f"{where}[{i}]")
    return v


def _ints(v, where: str) -> list:
    ok = isinstance(v, list) and all(type(x) is int for x in v)
    return _need(ok, where, "a list of integers", v)


def _object(cfg: dict, key: str, allowed: set) -> dict:
    """A copy of the object cfg[key]: {} when absent or null."""
    d = {} if cfg.get(key) is None else cfg[key]
    _need(isinstance(d, dict), key, "an object", d)
    _check_keys(d, allowed, key)
    return dict(d)


def _grid(cfg: dict, default: tuple) -> dict:
    """GridSpec keywords from cfg["grid"] and the default (n, N)."""
    g = _object(cfg, "grid", {"n", "N"})
    grid = {k: _integer(g.get(k, d), 1, f"grid.{k}") for k, d in zip("nN", default)}
    with _library_checks():
        GridSpec(**grid)
    return grid


def _weight(spec, where: str):
    _need(isinstance(spec, dict) and set(spec) == {"edge", "w"}, where,
          'an object {"edge": [a, b], "w": "p/q"}', spec)
    _need(len(_ints(spec["edge"], f"{where}.edge")) == 2, f"{where}.edge",
          "a list of two vertices", spec["edge"])
    _need(type(spec["w"]) in (int, str), f"{where}.w",
          "an integer or a 'p/q' string", spec["w"])


def _form_literal(grid: GridSpec, literal, where: str) -> DiffForm:
    """The 2-form a spectral literal names.

    literal is a list of {"component": [1-based axes], "modes": [{"k": [m..],
    "re": .., "im": ..}]}.  Each listed mode m contributes
    (re + i*im) e^{2 pi i m.x} plus the conjugate at -m, so listing both m
    and -m requires conjugate values; a zero mode is real.
    """
    sets = index_sets(grid.n, 2)
    seen: dict = {}
    for i, entry in enumerate(_list(literal, where)):
        at = f"{where}[{i}]"
        _need(isinstance(entry, dict) and set(entry) <= {"component", "modes"}, at,
              'an object with keys "component" and "modes"', entry)
        comp = _ints(entry.get("component"), f"{at}.component")
        s = tuple(sorted(a - 1 for a in comp))
        _need(s in sets, f"{at}.component", f"two distinct axes in 1..{grid.n}", comp)
        for j, mode in enumerate(_list(entry.get("modes"), f"{at}.modes")):
            at_m = f"{at}.modes[{j}]"
            _need(isinstance(mode, dict) and set(mode) <= {"k", "re", "im"}, at_m,
                  'an object with keys from "k", "re" and "im"', mode)
            m = tuple(_ints(mode.get("k"), f"{at_m}.k"))
            _need(len(m) == grid.n and all(abs(v) < grid.N // 2 for v in m), f"{at_m}.k",
                  f"{grid.n} integers with |k_j| < N/2 = {grid.N // 2}", list(m))
            c = complex(*(_number(mode.get(key, 0.0), f"{at_m}.{key}")
                          for key in ("re", "im")))
            if not any(m):
                _need(abs(c.imag) <= 1e-12 * max(1.0, abs(c.real)), f"{at_m}.im",
                      "0 at the zero mode", c.imag)
                c = complex(c.real, 0.0)
            tol = 1e-9 * max(1.0, abs(c))
            for key, val in (((s, m), c), ((s, tuple(-v for v in m)), c.conjugate())):
                _need(key not in seen or abs(seen[key] - val) <= tol, at_m,
                      "consistent with the modes before it (conjugate at -k)", mode)
                seen[key] = val
    spec = np.zeros((len(sets),) + grid.shape, dtype=complex)
    for (s, m), c in seen.items():
        spec[(sets.index(s),) + tuple(v % grid.N for v in m)] = c
    return DiffForm.from_spectra(grid, 2, spec)


def validate_config(cfg: dict) -> dict:
    """Check every field of a raw config and fill in its defaults.

    The result is the config the scenarios run and the report echoes;
    anything malformed raises ConfigError.
    """
    _need(isinstance(cfg, dict), "config root", "a JSON object", cfg)
    scenario = _string(cfg.get("scenario"), "scenario", _SCENARIO_KEYS)
    _check_keys(cfg, _COMMON_KEYS | _SCENARIO_KEYS[scenario], "config")
    out = dict(cfg)
    for key in ("comment", "expected_verdict"):
        _string(cfg.get(key, ""), key)
    output = _object(cfg, "output", {"json", "csv"})
    out["output"] = {k: _file_name(output.get(k, d), f"output.{k}") for k, d in
                     (("json", "report.json"), ("csv", "checkpoints.csv"))}
    _need(out["output"]["csv"] != out["output"]["json"], "output.csv",
          "a name other than output.json", out["output"]["csv"])

    if scenario == "identities":
        grid = out["grid"] = _grid(cfg, (4, 16))
        out["seed"] = _integer(cfg.get("seed", 0), 0, "seed")
        sweep = _object(cfg, "sweep", {"count", "bandwidth", "amplitude"})
        out["sweep"] = {
            "count": _integer(sweep.get("count", 20), 1, "sweep.count"),
            "bandwidth": _integer(sweep.get("bandwidth", 2), 0, "sweep.bandwidth"),
            "amplitude": _number(sweep.get("amplitude", 1.0), "sweep.amplitude"),
        }
        half = grid["N"] // 2
        _need(out["sweep"]["bandwidth"] < half, "sweep.bandwidth",
              f"below N/2 = {half}", out["sweep"]["bandwidth"])
        tols = _object(cfg, "tolerances", set(_IDENTITY_TOL_DEFAULTS))
        for k, v in tols.items():
            _number(v, f"tolerances.{k}", positive=True)
        out["tolerances"] = {**_IDENTITY_TOL_DEFAULTS, **tols}
    elif scenario == "cohomology_torus":
        theta = _list(cfg.get("theta", [0.0] * 4), "theta", _number)
        _need(2 <= len(theta) <= 4, "theta", "a list of 2 to 4 numbers", theta)
        out["theta"] = [float(v) for v in theta]
    elif scenario == "cohomology_simplicial":
        if ("fixture" in cfg) == ("complex" in cfg):
            raise ConfigError("give exactly one of 'fixture' or 'complex'")
        if "fixture" in cfg:
            _string(cfg["fixture"], "fixture", FIXTURE_BUILDERS)
            _list(cfg.get("weights") or [], "weights", _weight)
        else:
            _need("weights" not in cfg, "weights", "inside 'complex'", cfg.get("weights"))
            body = _object(cfg, "complex", {"top_simplices", "weights"})
            _list(body.get("top_simplices"), "complex.top_simplices", _ints)
            _list(body.get("weights") or [], "complex.weights", _weight)
    elif scenario == "cohomology_mapping_torus":
        _list(cfg.get("matrix"), "matrix", _ints)
        if not isinstance(out.setdefault("t0", 1), str):
            _number(out["t0"], "t0")
    elif scenario == "moser":
        gen = _string(cfg.get("generator"), "generator", {*_GENERATORS, "tabulated"})
        unread = {"grid", "params"} if gen == "tabulated" else {"samples_file"}
        _check_keys(cfg, _COMMON_KEYS | _SCENARIO_KEYS[scenario] - unread, f"a {gen} config")
        if gen == "tabulated":
            _string(cfg.get("samples_file"), "samples_file")
        else:
            _, keys, default_grid = _GENERATORS[gen]
            out["params"] = _object(cfg, "params", keys)
            for k, v in out["params"].items():
                if k == "n_times":
                    _integer(v, 1, "params.n_times")
                else:
                    _number(v, f"params.{k}")
            grid = out["grid"] = _grid(cfg, default_grid)
            _need(grid["n"] == default_grid[0], "grid.n",
                  f"{default_grid[0]} for generator {gen}", grid["n"])
        out["path"] = _string(cfg.get("path", "theorem"), "path",
                              ("theorem", "exact_family"))
        base = PipelineOptions()
        for key in _RUN_SHAPE:
            out[key] = cfg.get(key, getattr(base, key))
        with _library_checks():
            PipelineOptions(**{k: out[k] for k in _RUN_SHAPE})
        # the report echoes the gate constants: a config may repeat them, not set them
        tols = out["tolerances"] = {**TOLERANCES, "nondeg_margin": NONDEG_THRESHOLD,
                                    "lcs": LCS_TOL}
        _need(cfg.get("tolerances", tols) == tols, "tolerances",
              "absent or the gate constants a report echoes", cfg.get("tolerances"))
    return out


# -- scenario implementations --------------------------------------------


def _scenario_identities(cfg: dict) -> tuple[dict, bool]:
    grid = GridSpec(**cfg["grid"])
    rng = np.random.default_rng(cfg["seed"])
    sweep = cfg["sweep"]
    count, bw, amp = sweep["count"], sweep["bandwidth"], sweep["amplitude"]
    rows = []  # one (d_theta_squared, chain_map, adjointness) row per form
    for _ in range(count):
        k = int(rng.integers(0, grid.n - 1))
        a = random_band_limited(grid, k, bw, rng, amp)
        lee = LeeForm(grid, rng.standard_normal(grid.n),
                      random_band_limited(grid, 0, 1, rng, 0.3).comps[0])
        theta = lee.one_form()
        da = d_theta(a, theta)
        dsq = d_theta(da, theta).norm() / max(1.0, a.norm())

        # keep e^{g0} essentially band-limited: its Fourier tail past the
        # Nyquist band is what limits the discrete chain-map residual
        g0 = random_band_limited(grid, 0, 1, rng, 0.05).comps[0]
        f = np.exp(g0)
        fa = DiffForm(grid, k, a.comps * f[None])
        theta_g = theta + ext_d(scalar_form(grid, g0))
        lhs = d_theta(fa, theta_g)
        rhs = DiffForm(grid, k + 1, da.comps * f[None])
        chain = (lhs - rhs).norm() / max(1.0, rhs.norm())

        b = random_band_limited(grid, k + 1, bw, rng, amp)
        dev = abs(l2_inner(da, b) - l2_inner(a, d_theta_star(b, theta)))
        rows.append((dsq, chain, dev / max(1.0, a.norm() * b.norm())))
    # np.max, unlike max(), keeps a NaN residual, so its gate fails on it
    maxima = dict(zip(_IDENTITY_TOL_DEFAULTS, np.max(rows, axis=0).tolist()))
    result = {"count": count, **{f"max_{k}": v for k, v in maxima.items()}}
    return result, all(v <= cfg["tolerances"][k] for k, v in maxima.items())


def _scenario_cohomology_torus(cfg: dict) -> tuple[dict, bool]:
    dims = torus_twisted_betti(cfg["theta"])
    alt = sum((-1) ** k * d for k, d in enumerate(dims))
    return {"dims": list(dims), "alternating_sum": alt, "theta": cfg["theta"]}, alt == 0


def _scenario_cohomology_simplicial(cfg: dict) -> tuple[dict, bool]:
    with _library_checks():
        if "fixture" in cfg:
            comp, specs = FIXTURE_BUILDERS[cfg["fixture"]]().complex, cfg.get("weights")
        else:
            body = cfg["complex"]
            comp, specs = build_complex(body["top_simplices"]), body.get("weights")
        system = local_system(comp, [(tuple(w["edge"]), w["w"]) for w in specs or []])
    result = twisted_betti(system)
    ok = result.euler_alternating_sum == result.chi
    out = result.as_dict()
    out["euler_identity_holds"] = ok
    return out, ok


def _scenario_cohomology_mapping_torus(cfg: dict) -> tuple[dict, bool]:
    with _library_checks():
        result = mapping_torus_betti(cfg["matrix"], cfg["t0"])
    out = result.as_dict()
    ok = out["euler_alternating_sum"] == 0
    if len(result.dims) == 5:
        verdict = example_inequality_check(result)
        out["example_check"] = asdict(verdict)
        ok = ok and verdict.identity_holds
    return out, ok


def _build_family(cfg: dict) -> FormFamily:
    if cfg["generator"] != "tabulated":
        builder = _GENERATORS[cfg["generator"]][0]
        return builder(grid=GridSpec(**cfg["grid"]), **cfg["params"])
    blob = _read_json(cfg["samples_file"], "samples_file")
    _need(isinstance(blob, dict), "samples file root", "a JSON object", blob)
    _check_keys(blob, {"grid", "times", "samples", "comment"}, "samples file")
    grid = GridSpec(**_grid(blob, (None, None)))
    times = _list(blob.get("times"), "times", _number)
    samples = [_form_literal(grid, lit, f"samples[{i}]")
               for i, lit in enumerate(_list(blob.get("samples"), "samples"))]
    return tabulated_family(grid, times, samples)


def _scenario_moser(cfg: dict) -> tuple[dict, bool]:
    with _library_checks():
        family = _build_family(cfg)
        _need(cfg["path"] == "theorem" or family.exact_data is not None, "path",
              f"'theorem' for generator {cfg['generator']}, which has no exact "
              "primitive", cfg["path"])
    opts = PipelineOptions(**{k: cfg[k] for k in _RUN_SHAPE})
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


def _output_dir(out_dir: str, names) -> list[Path]:
    """Create out_dir to hold the files names (ConfigError if it cannot);
    the directories made."""
    out = Path(out_dir)
    for path in (out / name for name in names):
        if path.is_dir():
            raise ConfigError(f"cannot use output directory: {path} is a directory")
    made = [p for p in (*reversed(out.parents), out) if not p.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot use output directory: {e}") from e
    return made


def _write_report(report: dict, cfg: dict, out: Path):
    path = out / cfg["output"]["json"]
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
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
        for k in _IDENTITY_TOL_DEFAULTS:
            lines.append(f"  max_{k} = {res[f'max_{k}']:.3e}")
    elif cfg["scenario"].startswith("cohomology"):
        if "dims" in res:
            lines.append(f"  dims = {tuple(res['dims'])}")
        if "example_check" in res:
            ec = res["example_check"]
            lines.append(f"  b2_at_least_two = {ec['b2_at_least_two']}")
    elif cfg["scenario"] == "moser" and res:
        lines.append(f"  verdict = {res.get('verdict')}")
        # the gates the flow decides; the exactness ones come before it
        for k, _, key in GATES:
            if key != "exactness" and res.get(k) is not None:
                lines.append(f"  {k} = {res[k]:.3e}")
    if "error" in report:
        err = report["error"]
        lines.append(f"  error: {err['type']}: {err['message']}")
    lines.append(f"verdict: {report['verdict']}")
    return lines


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {what}: {e}") from e


def _with_overrides(cfg, steps: int | None, N: int | None):
    """The raw config with --steps / --grid applied, for validate_config."""
    if not isinstance(cfg, dict):
        return cfg
    cfg, grid = dict(cfg), cfg.get("grid") or {}
    if steps is not None and cfg.get("scenario") == "moser":
        cfg["steps"] = steps
    if (N is not None and isinstance(grid, dict) and cfg.get("generator") != "tabulated"
            and cfg.get("scenario") in ("identities", "moser")):
        cfg["grid"] = {**grid, "N": N}
    return cfg


def run(config, out_dir: str = ".", overrides: dict | None = None,
        quiet: bool = False) -> int:
    """Validate, dispatch, write reports; return the process exit code."""
    if not isinstance(config, dict):
        config = _read_json(config, "config")
    overrides = overrides or {}
    cfg = validate_config(_with_overrides(config, overrides.get("steps"),
                                          overrides.get("grid")))
    names = ("json", "csv") if cfg["scenario"] == "moser" else ("json",)
    made = _output_dir(out_dir, [cfg["output"][k] for k in names])
    report: dict = {"schema_version": SCHEMA_VERSION, "config": cfg}
    t0 = time.perf_counter()
    try:
        report["result"], ok = _SCENARIOS[cfg["scenario"]](cfg)
    except DomainError as e:
        report["result"], ok = None, False
        report["error"] = {"type": type(e).__name__, "message": str(e)}
    except ConfigError:
        # a config the scenario rejects while it builds its input leaves no trace
        for d in reversed(made):
            d.rmdir()
        raise
    report["verdict"] = "pass" if ok else "fail"
    report["timings"] = {"seconds": time.perf_counter() - t0}
    path = _write_report(report, cfg, Path(out_dir))
    if not quiet:
        for line in _summary_lines(report):
            print(line)
        print(f"report: {path}")
    return 0 if ok else 1


# -- fixture catalog ------------------------------------------------------


def _torus_weight_specs() -> list[dict]:
    """Edge weights on the 4x4 torus grid realizing holonomy 2 around one loop."""
    cocycle = FIXTURE_BUILDERS["torus"]().cocycles[0]
    return [{"edge": list(e), "w": str(Fraction(2) ** z)}
            for e, z in sorted(cocycle.items())]


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
    """Write one of the built-in ready-to-run configs; returns its path.

    ConfigError if out_dir cannot hold it."""
    catalog = _fixture_catalog()
    if name not in catalog:
        raise UnknownFixture(f"unknown fixture {name!r}; available: {sorted(catalog)}")
    path = Path(out_dir) / f"{name}.json"
    _output_dir(out_dir, [path.name])
    path.write_text(json.dumps(catalog[name], indent=2, sort_keys=True) + "\n")
    return path


def fixture_names() -> list[str]:
    return sorted(_fixture_catalog())


# -- command line ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcsflow-run", description="run lcsflow scenario configs and emit fixture configs")
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
        except (UnknownFixture, ConfigError) as e:
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
