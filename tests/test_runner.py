"""Config validation, scenario dispatch, report files, exit codes."""

import csv
import json

import pytest

from lcsflow.runner import (
    CSV_COLUMNS,
    ConfigError,
    UnknownFixture,
    emit_fixture,
    fixture_names,
    main,
    run,
    validate_config,
)


def _read_json(path):
    return json.loads(path.read_text())


BAD_CONFIGS = [
    ["not", "a", "dict"],
    {"scenario": "frobnicate"},
    {"scenario": "identities", "bogus_key": 1},
    {"scenario": "identities", "sweep": {"count": 0}},
    {"scenario": "identities", "tolerances": {"chain_map": -1.0}},
    {"scenario": "identities", "tolerances": {"nonsense": 1.0}},
    {"scenario": "cohomology_torus", "grid": {"n": 4, "N": 16}, "theta": [1.0]},
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
]


@pytest.mark.parametrize("cfg", BAD_CONFIGS)
def test_invalid_configs_rejected(cfg):
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_moser_defaults_filled_in():
    cfg = validate_config({"scenario": "moser", "generator": "area_interpolation"})
    assert cfg["steps"] == 200
    assert cfg["checkpoints"] == 11
    assert cfg["path"] == "theorem"
    assert cfg["allow_scalar_absorption"] is True
    assert cfg["tolerances"]["eq1"] == 1e-6
    assert cfg["output"] == {"json": "report.json", "csv": "checkpoints.csv"}
    assert cfg["grid"] == {"n": 2, "N": 32}


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


def test_torus_cohomology_scenario(tmp_path):
    cfg = {"scenario": "cohomology_torus", "grid": {"n": 4, "N": 8},
           "theta": [0.0, 0.0, 0.0, 0.0]}
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["result"]["dims"] == [1, 4, 6, 4, 1]
    cfg["theta"] = [0.0, 0.0, 0.0, 0.7]
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    rep = _read_json(tmp_path / "report.json")
    assert rep["result"]["dims"] == [0, 0, 0, 0, 0]


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
    assert rows[0] == CSV_COLUMNS
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


def test_quiet_flag_suppresses_summary(tmp_path, capsys):
    cfg = {"scenario": "cohomology_torus", "grid": {"n": 2, "N": 8},
           "theta": [0.0, 0.0]}
    run(cfg, out_dir=str(tmp_path), quiet=True)
    assert capsys.readouterr().out == ""
    run(cfg, out_dir=str(tmp_path), quiet=False)
    assert "scenario: cohomology_torus" in capsys.readouterr().out
