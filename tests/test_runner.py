"""Config validation, scenario dispatch, report files, exit codes."""

import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcsflow import runner
from lcsflow.errors import DomainError
from lcsflow.families import contact_circle_family
from lcsflow.forms import GridSpec
from lcsflow.moser import InconsistentLeeData, PipelineOptions, normalize_family
from lcsflow.runner import (
    ConfigError,
    UnknownFixture,
    emit_fixture,
    fixture_names,
    main,
    run,
    validate_config,
)
from lcsflow.twisted import LcsForm, LeeForm


def _read_json(path):
    return json.loads(path.read_text())


BAD_CONFIGS = [
    ["not", "a", "dict"],
    {"scenario": "frobnicate"},
    {"scenario": "identities", "bogus_key": 1},
    {"scenario": "identities", "sweep": {"count": 0}},
    {"scenario": "identities", "tolerances": {"chain_map": -1.0}},
    {"scenario": "identities", "tolerances": {"nonsense": 1.0}},
    {"scenario": "cohomology_torus", "theta": [1.0]},
    {"scenario": "cohomology_simplicial"},
    {"scenario": "cohomology_simplicial", "fixture": "torus",
     "complex": {"top_simplices": [[0, 1]]}},
    {"scenario": "cohomology_simplicial", "fixture": "klein_bottle"},
    {"scenario": "cohomology_simplicial", "complex": {"weights": []}},
    {"scenario": "cohomology_mapping_torus"},
    {"scenario": "moser", "generator": "perpetual_motion"},
    {"scenario": "moser", "generator": "area_interpolation", "path": "sideways"},
    {"scenario": "moser", "generator": "area_interpolation", "steps": 0},
    {"scenario": "moser", "generator": "area_interpolation", "checkpoints": 1},
    {"scenario": "moser", "generator": "area_interpolation",
     "params": {"s": 1.0}},
    {"scenario": "moser", "generator": "contact_circle",
     "grid": {"n": 2, "N": 32}},
    {"scenario": "moser", "generator": "area_interpolation",
     "tolerances": {"factor": 0.0}},
    {"scenario": "moser", "generator": "tabulated"},
    {"scenario": "identities", "output": {"yaml": "nope"}},
    {"scenario": "moser", "generator": "area_interpolation", "seed_stride": 0},
    {"scenario": "moser", "generator": "area_interpolation", "seed_stride": -2},
    {"scenario": "moser", "generator": "area_interpolation", "steps": 2.9},
    {"scenario": "moser", "generator": "area_interpolation", "steps": True},
    {"scenario": "moser", "generator": "area_interpolation", "checkpoints": 3.0},
    {"scenario": "moser", "generator": "area_interpolation",
     "tolerances": {"eq1": True}},
    {"scenario": "identities", "tolerances": {"chain_map": True}},
    # each field is typed once: no silent coercion, no unhashable lookup
    {"scenario": "moser", "generator": "area_interpolation",
     "allow_scalar_absorption": "no"},
    {"scenario": "moser", "generator": "area_interpolation",
     "grid": {"n": 2, "N": 16.7}},
    {"scenario": "identities", "sweep": {"count": 2.5}},
    {"scenario": ["moser"]},
    {"scenario": "moser", "generator": ["x"]},
    {"scenario": "cohomology_simplicial", "fixture": ["torus"]},
    {"scenario": "cohomology_torus", "theta": 5},
    {"scenario": "cohomology_torus", "theta": ["a", "b"]},
    {"scenario": "identities", "grid": {"n": 4, "N": 8}, "sweep": {"bandwidth": 9}},
    {"scenario": "identities", "output": "x"},
    {"scenario": "moser", "generator": "area_interpolation", "params": [1]},
    {"scenario": "identities", "tolerances": [1]},
    {"scenario": "identities", "seed": "x"},
    # output names are plain file names in the output directory
    {"scenario": "identities", "output": {"json": ""}},
    {"scenario": "identities", "output": {"json": "a/b.json"}},
    {"scenario": "identities", "output": {"csv": "/tmp/c.csv"}},
    {"scenario": "identities", "output": {"json": "a\\b.json"}},
    {"scenario": "identities", "output": {"json": "."}},
    {"scenario": "identities", "output": {"csv": ".."}},
    {"scenario": "identities", "output": {"json": "r\u0000.json"}},
    {"scenario": "moser", "generator": "area_interpolation",
     "output": {"json": "r", "csv": "r"}},
    {"scenario": "moser", "generator": "area_interpolation",
     "output": {"json": "checkpoints.csv"}},
    # an integer too large for a float
    {"scenario": "identities", "sweep": {"amplitude": 10**400}},
    # a weight is exact: an integer or a "p/q" string
    {"scenario": "cohomology_simplicial", "fixture": "circle",
     "weights": [{"edge": [0, 1], "w": 0.5}]},
    # the torus Betti numbers take a covector of length 2 to 4 and no grid
    {"scenario": "cohomology_torus", "theta": [0.0] * 5},
    {"scenario": "cohomology_torus", "grid": {"n": 2, "N": 8}, "theta": [0.0, 0.0]},
    # a field is accepted only where its scenario reads it
    {"scenario": "cohomology_torus", "seed": 0},
    {"scenario": "moser", "generator": "area_interpolation", "seed": 1},
    {"scenario": "moser", "generator": "tabulated", "samples_file": "s.json",
     "params": {}},
    # a checkpoint is one of the steps + 1 step times
    {"scenario": "moser", "generator": "area_interpolation", "steps": 2,
     "checkpoints": 4},
]


@pytest.mark.parametrize("cfg", BAD_CONFIGS)
def test_invalid_configs_rejected(cfg):
    with pytest.raises(ConfigError):
        validate_config(cfg)


# well-typed values that the library refuses when it builds its input
LIBRARY_REJECTED = [
    {"scenario": "moser", "generator": "area_interpolation",
     "params": {"eps": 5.0}},
    {"scenario": "cohomology_mapping_torus", "matrix": [[1, 2], [3]]},
    {"scenario": "cohomology_mapping_torus", "matrix": [[2, 0], [0, 1]]},
    {"scenario": "cohomology_mapping_torus", "matrix": [[2, 1], [1, 1]], "t0": -1},
    {"scenario": "cohomology_simplicial", "fixture": "disk",
     "weights": [{"edge": [0, 5], "w": "2"}]},
    {"scenario": "cohomology_simplicial", "complex": {"top_simplices": [[0, 0]]}},
    {"scenario": "cohomology_simplicial", "fixture": "circle",
     "weights": [{"edge": [0, 1], "w": "1/0"}]},
    # a float t0 times an entry too large for a float
    {"scenario": "cohomology_mapping_torus", "matrix": [[1, 10**400], [0, 1]], "t0": 0.5},
]


@pytest.mark.parametrize("cfg", LIBRARY_REJECTED)
def test_library_rejected_values_are_config_errors(cfg, tmp_path):
    validate_config(cfg)
    with pytest.raises(ConfigError):
        run(cfg, out_dir=str(tmp_path), quiet=True)
    assert not (tmp_path / "report.json").exists()


# one valid config per scenario (and per simplicial / moser input form),
# holding the fields its scenario reads
VALID_CONFIGS = {
    "identities": {
        "scenario": "identities", "grid": {"n": 4, "N": 8}, "seed": 3,
        "sweep": {"count": 2, "bandwidth": 1, "amplitude": 0.5},
        "tolerances": {"chain_map": 1e-2, "adjointness": 1e-10},
        "comment": "c", "expected_verdict": "pass",
        "output": {"json": "r.json", "csv": "r.csv"}},
    "torus": {"scenario": "cohomology_torus", "theta": [0.0, 0.7],
              "output": {"json": "t.json", "csv": "t.csv"}},
    "simplicial_fixture": {"scenario": "cohomology_simplicial", "fixture": "torus",
                           "weights": [{"edge": [0, 1], "w": "2"}]},
    "simplicial_inline": {
        "scenario": "cohomology_simplicial",
        "complex": {"top_simplices": [[0, 1], [1, 2], [0, 2]],
                    "weights": [{"edge": [0, 2], "w": 3}]}},
    "mapping_torus": {"scenario": "cohomology_mapping_torus",
                      "matrix": [[2, 1], [1, 1]], "t0": "1/2"},
    "moser": {
        "scenario": "moser", "generator": "area_interpolation",
        "params": {"eps": 0.2, "sigma": 0.1, "n_times": 5},
        "grid": {"n": 2, "N": 16}, "steps": 10, "checkpoints": 3,
        "seed_stride": 2, "path": "theorem", "allow_scalar_absorption": False},
    "moser_tabulated": {"scenario": "moser", "generator": "tabulated",
                        "samples_file": "samples.json"},
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


def _field_paths(x, prefix=()):
    """Every dict key and list index inside x, as a path from the root."""
    items = (x.items() if isinstance(x, dict)
             else enumerate(x) if isinstance(x, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from _field_paths(v, prefix + (k,))


def _draw_broken(data, base):
    """A copy of base with one field set to any JSON value."""
    path = data.draw(st.sampled_from(list(_field_paths(base))))
    cfg = copy.deepcopy(base)
    node = cfg
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = data.draw(JSON_VALUES)
    return cfg


@pytest.mark.parametrize("name", sorted(VALID_CONFIGS))
@settings(max_examples=300)
@given(data=st.data())
def test_validate_config_types_every_field(name, data):
    base = VALID_CONFIGS[name]
    validate_config(copy.deepcopy(base))
    try:
        validate_config(_draw_broken(data, base))
    except ConfigError:
        pass


@pytest.mark.parametrize("name", ["torus", "simplicial_fixture",
                                  "simplicial_inline", "mapping_torus"])
@settings(max_examples=150)
@given(data=st.data())
def test_accepted_cohomology_configs_run_or_exit_2(name, data):
    """What validate_config lets through, the scenario can read."""
    cfg = _draw_broken(data, VALID_CONFIGS[name])
    with tempfile.TemporaryDirectory() as out:
        try:
            assert run(cfg, out_dir=out, quiet=True) in (0, 1)
        except ConfigError:
            assert not os.listdir(out)


def test_moser_defaults_filled_in():
    cfg = validate_config({"scenario": "moser", "generator": "area_interpolation"})
    assert cfg["steps"] == 200
    assert cfg["checkpoints"] == 11
    assert cfg["path"] == "theorem"
    assert cfg["allow_scalar_absorption"] is True
    assert cfg["tolerances"] == {
        "consistency": 1e-3, "factor": 1e-3, "eq1": 1e-6, "exactness": 1e-9,
        "lee_match": 1e-8, "cor2": 1e-8, "nondeg_margin": 1e-8, "lcs": 1e-8}
    assert cfg["output"] == {"json": "report.json", "csv": "checkpoints.csv"}
    assert cfg["grid"] == {"n": 2, "N": 32}


class _ReadRecorder(dict):
    """A validated config that records which top-level keys are read."""

    def __init__(self, cfg: dict):
        super().__init__(cfg)
        self.read: set = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


# top-level keys that the scenarios do not read, and why they are kept
ECHO_ONLY = {
    "scenario": "run dispatches on it",
    "output": "run names the report files after it",
    "comment": "free text for the reader of the config and the report",
    "expected_verdict": "free text for the reader of the config and the report",
}
# the moser report echoes the gate constants, which perfbench/checks.py reads
MOSER_ECHO_ONLY = {"tolerances"}


@pytest.mark.parametrize("name", sorted(VALID_CONFIGS))
def test_every_config_field_is_read_by_its_scenario(name, tmp_path):
    base = copy.deepcopy(VALID_CONFIGS[name])
    if name == "moser_tabulated":
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(SAMPLES_BLOB))
        base.update(samples_file=str(samples), steps=2, checkpoints=2)
    cfg = validate_config(base)
    scenario = runner._SCENARIOS[cfg["scenario"]]
    recorder = _ReadRecorder(cfg)
    try:
        scenario(recorder)
    except DomainError:
        pass  # the run shape is read before the flow starts
    exempt = set(ECHO_ONLY) | (MOSER_ECHO_ONLY if cfg["scenario"] == "moser" else set())
    assert set(cfg) - exempt - recorder.read == set()


def test_a_field_outside_its_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"scenario": "cohomology_torus", "seed": 3}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: unknown field(s) in config: seed\n"
    assert not out.exists()


@pytest.mark.parametrize("steps, flag", [(2, None), (200, "2")])
def test_more_checkpoints_than_step_times_exit_2(steps, flag, tmp_path, capsys):
    path = tmp_path / "area.json"
    path.write_text(json.dumps({"scenario": "moser", "generator": "area_interpolation",
                                "steps": steps, "checkpoints": 7}))
    out = tmp_path / "out"
    argv = ["run", "--config", str(path), "--out", str(out), "--quiet"]
    assert main(argv + (["--steps", flag] if flag else [])) == 2
    assert capsys.readouterr().err == (
        "config error: checkpoints must be at most steps + 1 = 3 with steps = 2, got 7\n")
    assert not out.exists()
    # every step time may be a checkpoint
    cfg = validate_config({"scenario": "moser", "generator": "area_interpolation",
                           "steps": 2, "checkpoints": 3})
    assert PipelineOptions(steps=2, checkpoints=cfg["checkpoints"]).checkpoint_times() \
        == [0.0, 0.5, 1.0]


def test_identities_scenario_small(tmp_path):
    cfg = {
        "scenario": "identities",
        "grid": {"n": 4, "N": 8},
        "sweep": {"count": 3, "bandwidth": 2},
        # N = 8 leaves little spectral headroom for e^g in the chain-map
        # probe, so that tolerance is opened up
        "tolerances": {"chain_map": 1e-2},
        "seed": 7,
    }
    code = run(cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["verdict"] == "pass"
    res = rep["result"]
    assert res["count"] == 3
    assert res["max_d_theta_squared"] < 1e-9
    assert res["max_adjointness"] < 1e-10
    assert res["max_chain_map"] < 1e-2


def test_identities_can_fail_on_absurd_tolerance(tmp_path):
    cfg = {
        "scenario": "identities",
        "grid": {"n": 4, "N": 8},
        "sweep": {"count": 2},
        "tolerances": {"adjointness": 1e-18, "chain_map": 1.0},
    }
    code = run(cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 1
    assert _read_json(tmp_path / "report.json")["verdict"] == "fail"


def test_identities_fail_on_nan_residuals(tmp_path):
    # forms of amplitude 1e200 overflow every residual to NaN
    cfg = {"scenario": "identities", "grid": {"n": 4, "N": 8},
           "sweep": {"count": 2, "bandwidth": 1, "amplitude": 1e200}, "seed": 1}
    with np.errstate(all="ignore"):
        assert run(cfg, out_dir=str(tmp_path), quiet=True) == 1
    rep = _read_json(tmp_path / "report.json")
    assert rep["verdict"] == "fail"
    for k in ("max_d_theta_squared", "max_chain_map", "max_adjointness"):
        assert math.isnan(rep["result"][k])


def test_torus_cohomology_scenario(tmp_path):
    cfg = {"scenario": "cohomology_torus"}
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["config"]["theta"] == [0.0, 0.0, 0.0, 0.0]
    assert rep["result"]["dims"] == [1, 4, 6, 4, 1]
    cfg["theta"] = [0.0, 0.0, 0.0, 0.7]
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["result"]["dims"] == [0, 0, 0, 0, 0]
    cfg["theta"] = [0.0, 1e-13, 0.0]
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["result"]["dims"] == [1, 3, 3, 1]
    # the Betti numbers read only the covector, so a grid is no field of it
    with pytest.raises(ConfigError, match="unknown field.*grid"):
        run({**cfg, "grid": {"n": 3, "N": 8}}, out_dir=str(tmp_path), quiet=True)
    assert run(cfg, out_dir=str(tmp_path), overrides={"grid": 16}, quiet=True) == 0
    assert "grid" not in _read_json(tmp_path / "report.json")["config"]


def test_simplicial_scenario_fixture_and_inline(tmp_path):
    cfg = {"scenario": "cohomology_simplicial", "fixture": "torus"}
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["result"]["dims"] == [1, 2, 1]
    assert rep["result"]["euler_identity_holds"]

    inline = {
        "scenario": "cohomology_simplicial",
        "complex": {
            "top_simplices": [[0, 1], [1, 2], [0, 2]],
            "weights": [{"edge": [0, 2], "w": "3"}],
        },
    }
    assert run(inline, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["result"]["dims"] == [0, 0]
    assert rep["result"]["trivial_system"] is False


def test_simplicial_weight_strings_are_read_as_fractions(tmp_path):
    dims = []
    for w in (" 5/10 ", "1/2"):
        cfg = {"scenario": "cohomology_simplicial", "fixture": "circle",
               "weights": [{"edge": [0, 5], "w": w}]}
        assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
        dims.append(_read_json(tmp_path / "report.json")["result"]["dims"])
    assert dims[0] == dims[1] == [0, 0]


def test_a_weight_on_three_vertices_names_its_edge(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "cohomology_simplicial", "fixture": "disk",
                                "weights": [{"edge": [0, 1, 2], "w": "2"}]}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: weights[0].edge must be")
    assert not out.exists()


def test_simplicial_cocycle_violation_is_a_clean_failure(tmp_path):
    cfg = {
        "scenario": "cohomology_simplicial",
        "complex": {
            "top_simplices": [[0, 1, 2]],
            "weights": [
                {"edge": [0, 1], "w": "2"},
                {"edge": [1, 2], "w": "1"},
                {"edge": [0, 2], "w": "5"},
            ],
        },
    }
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 1
    rep = _read_json(tmp_path / "report.json")
    assert rep["error"]["type"] == "CocycleViolation"
    assert rep["verdict"] == "fail"


def test_mapping_torus_scenario(tmp_path):
    cfg = {
        "scenario": "cohomology_mapping_torus",
        "matrix": [[0, 0, 1], [1, 0, 0], [0, 1, 1]],
        "t0": 0.6823278038280193,
    }
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["result"]["dims"] == [0, 1, 1, 0, 0]
    ec = rep["result"]["example_check"]
    assert ec["identity_holds"] is True
    assert ec["b2_at_least_two"] is False


def test_mapping_torus_ambiguous_weight_fails_cleanly(tmp_path):
    lam_small = (3.0 - 5.0**0.5) / 2.0
    cfg = {
        "scenario": "cohomology_mapping_torus",
        "matrix": [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
        "t0": lam_small * (1.0 + 1e-9),
    }
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 1
    rep = _read_json(tmp_path / "report.json")
    assert rep["error"]["type"] == "SingularThresholdAmbiguous"


def test_moser_scenario_writes_report_and_csv(tmp_path):
    cfg = {
        "scenario": "moser",
        "generator": "area_interpolation",
        "params": {"eps": 0.2},
        "steps": 10,
        "checkpoints": 3,
        "seed_stride": 2,
    }
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["result"]["verdict"] == "certified_conformally_equivalent"
    assert rep["result"]["success"] is True
    with (tmp_path / "checkpoints.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "exactness_residual", "harmonic_obstruction",
                       "conformal_consistency_error", "factor_error",
                       "flow_identity_residual"]
    assert len(rows) == 1 + 3
    for row in rows[1:]:
        values = [float(v) for v in row]
        assert 0.0 <= values[0] <= 1.0


def test_moser_domain_error_exit_code(tmp_path):
    cfg = {
        "scenario": "moser",
        "generator": "lee_drift",
        "steps": 6,
        "checkpoints": 3,
    }
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 1
    rep = _read_json(tmp_path / "report.json")
    assert rep["error"]["type"] == "LeeClassDrift"
    assert rep["result"] is None
    assert not (tmp_path / "checkpoints.csv").exists()


# every domain error of the library, with the builtin base it keeps
DOMAIN_ERRORS = {
    "LeeClassDrift": ValueError, "NotExact": ValueError, "NotExactFamily": ValueError,
    "InconsistentLeeDerivative": ValueError, "InconsistentLeeData": ValueError,
    "IsotopyDiverged": ArithmeticError, "NoValidComponents": ValueError,
    "DegenerateForm": ValueError, "NotLcs": ValueError, "CocycleViolation": ValueError,
    "SingularThresholdAmbiguous": ArithmeticError,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_domain_errors_keep_their_builtin_base():
    found = {c.__name__: c for c in _subclasses(DomainError)}
    assert set(found) == set(DOMAIN_ERRORS)
    for name, base in DOMAIN_ERRORS.items():
        assert issubclass(found[name], base)


@pytest.mark.parametrize("name", sorted(DOMAIN_ERRORS))
def test_a_domain_error_exits_1_with_a_report_naming_it(name, tmp_path, capsys,
                                                        monkeypatch):
    error = {c.__name__: c for c in _subclasses(DomainError)}[name]

    def scenario(cfg):
        raise error("the hypothesis fails")

    monkeypatch.setitem(runner._SCENARIOS, "cohomology_torus", scenario)
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"scenario": "cohomology_torus"}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    rep = _read_json(out / "report.json")
    assert rep["error"] == {"type": name, "message": "the hypothesis fails"}
    assert rep["result"] is None and rep["verdict"] == "fail"
    assert f"  error: {name}: the hypothesis fails\n" in capsys.readouterr().out


def test_a_plain_value_error_while_the_input_is_built_exits_2(tmp_path, capsys,
                                                              monkeypatch):
    def build(cfg):
        raise ValueError("no such family")

    monkeypatch.setattr(runner, "_build_family", build)
    path = tmp_path / "area.json"
    path.write_text(json.dumps({"scenario": "moser", "generator": "area_interpolation"}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: no such family\n"
    assert not out.exists()


def test_lee_data_that_miss_the_extraction_exit_1(tmp_path, monkeypatch):
    # contact_circle's Lee form is dx4; this copy claims 1.5 dx4
    fam = contact_circle_family(GridSpec(4, 8))
    claimed = LeeForm.constant(fam.grid, np.array([0.0, 0.0, 0.0, 1.5]))
    bad = dataclasses.replace(fam, omega_at=lambda t: LcsForm(fam.omega_at(t).omega,
                                                              claimed))
    with pytest.raises(InconsistentLeeData, match=r"at t=0\.0: deviation 5\.000e-01$"):
        normalize_family(bad)
    monkeypatch.setattr(runner, "_build_family", lambda cfg: bad)
    cfg = {"scenario": "moser", "generator": "contact_circle", "grid": {"n": 4, "N": 8},
           "steps": 2, "checkpoints": 2}
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 1
    rep = _read_json(tmp_path / "report.json")
    assert rep["error"]["type"] == "InconsistentLeeData"
    assert rep["error"]["message"].endswith("deviation 5.000e-01")


@pytest.mark.parametrize("shape, message", [
    ({"steps": 2, "checkpoints": 7},
     "checkpoints must be at most steps + 1 = 3 with steps = 2, got 7"),
    ({"steps": 0}, "steps must be an integer >= 1, got 0"),
    ({"steps": 2.0}, "steps must be an integer >= 1, got 2.0"),
    ({"checkpoints": 1}, "checkpoints must be an integer >= 2, got 1"),
    ({"checkpoints": True}, "checkpoints must be an integer >= 2, got True"),
    ({"seed_stride": 0}, "seed_stride must be an integer >= 1, got 0"),
])
def test_pipeline_options_check_their_shape(shape, message):
    with pytest.raises(ValueError) as info:
        PipelineOptions(**shape)
    assert str(info.value) == message


def test_pipeline_options_cannot_leave_their_checked_shape():
    opts = PipelineOptions(steps=2, checkpoints=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.checkpoints = 7
    with pytest.raises(ValueError, match=r"at most steps \+ 1 = 3"):
        dataclasses.replace(opts, checkpoints=7)


def test_run_overrides_steps(tmp_path):
    cfg = {
        "scenario": "moser",
        "generator": "area_interpolation",
        "params": {"eps": 0.2},
        "steps": 200,
        "checkpoints": 3,
        "seed_stride": 4,
    }
    assert run(cfg, out_dir=str(tmp_path),
               overrides={"steps": 8, "grid": None}, quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["config"]["steps"] == 8
    assert rep["result"]["steps"] == 8


def test_cli_steps_override_is_validated(tmp_path, capsys):
    path = tmp_path / "area.json"
    path.write_text(json.dumps({"scenario": "moser",
                                "generator": "area_interpolation"}))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--steps", "0", "--quiet"])
    assert code == 2
    assert "steps must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_moser_tolerances_are_not_config(tmp_path, capsys):
    # the gate thresholds are constants: even their own values are refused
    path = tmp_path / "area.json"
    path.write_text(json.dumps({"scenario": "moser", "generator": "area_interpolation",
                                "tolerances": {"eq1": 1e-6}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: unknown field(s) in config: tolerances\n"
    assert not out.exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_unusable_out_exits_2_before_the_scenario_runs(out, tmp_path, capsys,
                                                       monkeypatch):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"scenario": "cohomology_torus"}))
    (tmp_path / "taken").write_text("kept")
    monkeypatch.setitem(runner._SCENARIOS, "cohomology_torus",
                        lambda cfg: pytest.fail("the scenario ran"))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot use output directory")
    assert err.count("\n") == 1
    assert (tmp_path / "taken").read_text() == "kept"


@pytest.mark.parametrize("out", ["taken", "taken/sub", "dir"])
def test_emit_fixture_to_an_unusable_out_exits_2(out, tmp_path, capsys):
    (tmp_path / "taken").write_text("kept")
    (tmp_path / "dir" / "contact_circle.json").mkdir(parents=True)
    assert main(["emit-fixture", "contact_circle", "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot use output directory")
    assert captured.err.count("\n") == 1
    assert (tmp_path / "taken").read_text() == "kept"


def test_a_directory_at_the_report_path_exits_2_before_the_scenario_runs(
        tmp_path, capsys, monkeypatch):
    assert main(["emit-fixture", "anosov_mapping_torus", "--out", str(tmp_path)]) == 0
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    capsys.readouterr()
    monkeypatch.setitem(runner._SCENARIOS, "cohomology_mapping_torus",
                        lambda cfg: pytest.fail("the scenario ran"))
    code = main(["run", "--config", str(tmp_path / "anosov_mapping_torus.json"),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot use output directory")
    assert err.count("\n") == 1


def test_command_line_rejects_a_malformed_config_without_a_traceback(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": ["moser"]}))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lcsflow.runner", "run", "--config", str(path),
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_reports_are_deterministic(tmp_path):
    cfg = {
        "scenario": "moser",
        "generator": "gcs_rescale",
        "params": {"amp": 0.2},
        "steps": 8,
        "checkpoints": 3,
        "seed_stride": 4,
    }
    for d in ("a", "b"):
        assert run(dict(cfg), out_dir=str(tmp_path / d), quiet=True) == 0
    ra = _read_json(tmp_path / "a" / "report.json")
    rb = _read_json(tmp_path / "b" / "report.json")
    ra.pop("timings"), rb.pop("timings")
    assert ra == rb
    assert (tmp_path / "a" / "checkpoints.csv").read_bytes() == \
        (tmp_path / "b" / "checkpoints.csv").read_bytes()


def test_fixture_catalog_emits_valid_configs(tmp_path):
    names = fixture_names()
    assert {"contact_circle", "area_t2", "gcs_rescale",
            "anosov_mapping_torus", "torus_simplicial"} <= set(names)
    for name in names:
        path = emit_fixture(name, str(tmp_path))
        assert path.name == f"{name}.json"
        cfg = validate_config(_read_json(path))
        assert cfg["expected_verdict"] == "pass"
    with pytest.raises(UnknownFixture):
        emit_fixture("perpetual_motion", str(tmp_path))


def test_emitted_simplicial_fixture_runs_to_its_expected_verdict(tmp_path):
    path = emit_fixture("torus_simplicial", str(tmp_path))
    cfg = _read_json(path)
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["verdict"] == cfg["expected_verdict"] == "pass"
    assert rep["result"]["dims"] == [0, 0, 0]


def test_main_cli_surface(tmp_path, capsys):
    # emit-fixture list
    assert main(["emit-fixture", "list"]) == 0
    out = capsys.readouterr().out
    assert "anosov_mapping_torus" in out
    # emit + run through the argv surface
    assert main(["emit-fixture", "anosov_mapping_torus",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["run", "--config", str(tmp_path / "anosov_mapping_torus.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "verdict: pass" in printed
    # unknown fixture and unreadable config exit 2
    assert main(["emit-fixture", "warp_drive", "--out", str(tmp_path)]) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--quiet"]) == 2


def test_form_literal_round_trip():
    g = GridSpec(2, 8)
    lit = [{"component": [1, 2],
            "modes": [{"k": [0, 0], "re": 2.0},
                      {"k": [1, 0], "re": 0.25, "im": -0.5}]}]
    w = runner._form_literal(g, lit, "samples[0]")
    x1, _ = g.coordinates()
    want = 2.0 + 0.5 * np.cos(2 * np.pi * x1) + 1.0 * np.sin(2 * np.pi * x1)
    np.testing.assert_allclose(w.comps[0], want, atol=1e-13)


MALFORMED_LITERALS = [
    [{"component": [1, 2]}],
    [{"component": [1, 2], "modes": [{"re": 1.0}]}],
    [{"component": [1, 2], "modes": [{"k": [1.5, 0], "re": 1.0}]}],
    [{"component": "12", "modes": []}],
    [{"component": [1, 2], "modes": {"k": [1, 0]}}],
    [{"component": [1, 2], "modes": [{"k": [1, 0], "re": "1"}]}],
    [{"component": [1, 2], "modes": [{"k": [1, 0], "im": float("nan")}]}],
    {"component": [1, 2], "modes": []},
    [{"component": [1, 2], "modes": [{"k": [1, 0], "Re": 1.0}]}],
    [{"component": [1, 2], "mode": [], "modes": [{"k": [1, 0], "re": 1.0}]}],
    # a repeated axis, a mode on the Nyquist bucket, an imaginary zero mode,
    # and k / -k entries that are not conjugate
    [{"component": [1, 1], "modes": []}],
    [{"component": [1, 2], "modes": [{"k": [4, 0], "re": 1.0}]}],
    [{"component": [1, 2], "modes": [{"k": [0, 0], "im": 1.0}]}],
    [{"component": [1, 2], "modes": [{"k": [1, 0], "re": 1.0},
                                     {"k": [-1, 0], "re": 1.0, "im": 0.5}]}],
]


@pytest.mark.parametrize("literal", MALFORMED_LITERALS)
def test_malformed_samples_literal_exits_2(literal, tmp_path, capsys):
    good = [{"component": [1, 2], "modes": [{"k": [0, 0], "re": 1.0}]}]
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"grid": {"n": 2, "N": 8},
                                   "times": [0.0, 0.25, 0.5, 0.75, 1.0],
                                   "samples": [literal] + [good] * 4}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "moser", "generator": "tabulated",
                               "samples_file": str(samples)}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: samples[0]")
    assert not out.exists()


# a valid samples file that varies in t; the property below breaks one field
SAMPLES_BLOB = {
    "grid": {"n": 2, "N": 8},
    "times": [0.0, 0.25, 0.5, 0.75, 1.0],
    "samples": [[{"component": [1, 2],
                  "modes": [{"k": [0, 0], "re": 1.0},
                            {"k": [1, 0], "re": 0.05 * i, "im": 0.02}]}]
                for i in range(5)],
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_json_in_a_samples_file_runs_or_exits_2(data):
    """What the samples file reader lets through, the flow can read."""
    blob = _draw_broken(data, SAMPLES_BLOB)
    grid = blob.get("grid")
    # a valid larger grid is a real run of that size, not a malformed file
    assume(not (isinstance(grid, dict) and type(grid.get("N")) is int
                and grid["N"] > 64))
    with tempfile.TemporaryDirectory() as tmp:
        samples = Path(tmp) / "samples.json"
        samples.write_text(json.dumps(blob))
        cfg = {"scenario": "moser", "generator": "tabulated",
               "samples_file": str(samples), "steps": 2, "checkpoints": 2}
        out = Path(tmp) / "out"
        out.mkdir()
        try:
            assert run(cfg, out_dir=str(out), quiet=True) in (0, 1)
        except ConfigError:
            assert not os.listdir(out)


def test_tabulated_times_off_the_unit_interval_exit_2(tmp_path, capsys):
    # a table on [0, 1/2] would be extrapolated past its end up to t = 1
    good = [{"component": [1, 2], "modes": [{"k": [0, 0], "re": 1.0}]}]
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"grid": {"n": 2, "N": 8},
                                   "times": [0.0, 0.125, 0.25, 0.375, 0.5],
                                   "samples": [good] * 5}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "moser", "generator": "tabulated",
                               "samples_file": str(samples)}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: tabulated times")
    assert not out.exists()


@pytest.mark.parametrize("generator", ["area_interpolation", "gcs_rescale",
                                       "lee_drift", "tabulated"])
def test_exact_path_without_a_primitive_exits_2(generator, tmp_path, capsys):
    extra = {}
    if generator == "tabulated":
        good = [{"component": [1, 2], "modes": [{"k": [0, 0], "re": 1.0}]}]
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps({"grid": {"n": 2, "N": 8},
                                       "times": [0.0, 0.25, 0.5, 0.75, 1.0],
                                       "samples": [good] * 5}))
        extra = {"samples_file": str(samples)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "moser", "generator": generator,
                               "path": "exact_family", "steps": 2,
                               "checkpoints": 2, **extra}))
    out = tmp_path / "out" / "sub"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: path must be 'theorem'")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_quiet_flag_suppresses_summary(tmp_path, capsys):
    cfg = {"scenario": "cohomology_torus", "theta": [0.0, 0.0]}
    run(cfg, out_dir=str(tmp_path), quiet=True)
    assert capsys.readouterr().out == ""
    run(cfg, out_dir=str(tmp_path), quiet=False)
    assert "scenario: cohomology_torus" in capsys.readouterr().out
