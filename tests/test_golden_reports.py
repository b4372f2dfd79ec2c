"""The golden-report comparison: exact where it must be, bounded elsewhere."""

import json

import numpy as np

import golden_reports
from golden_reports import DEFAULT_RTOL, check, compare, plain

GOLDEN = {"verdict": "pass", "success": True, "dims": [0, 2, 1],
          "residual": 1e-3, "checkpoints": [{"factor_min": 0.5}]}


def test_identical_reports_match_and_numpy_scalars_are_unboxed():
    got = plain({"verdict": "pass", "success": np.bool_(True),
                 "dims": (np.int64(0), 2, 1), "residual": np.float64(1e-3),
                 "checkpoints": [{"factor_min": 0.5}]})
    assert compare(got, GOLDEN, {}) == []


def test_exact_fields_do_not_tolerate_any_change():
    for key, value in (("verdict", "fail"), ("success", False), ("dims", [0, 2, 2]),
                       ("dims", [0, 2]), ("success", 1)):
        assert compare(dict(GOLDEN, **{key: value}), GOLDEN, {}), key
    assert compare({k: v for k, v in GOLDEN.items() if k != "dims"}, GOLDEN, {})


def test_float_bounds_default_and_per_field():
    near = dict(GOLDEN, residual=1e-3 * (1 + 0.5 * DEFAULT_RTOL))
    far = dict(GOLDEN, residual=1e-3 * (1 + 2 * DEFAULT_RTOL))
    assert compare(near, GOLDEN, {}) == []
    assert compare(far, GOLDEN, {})
    assert compare(far, GOLDEN, {"residual": {"atol": 0.0, "rtol": 1e-5}}) == []
    # a list inherits the bound of the key it sits under
    moved = dict(GOLDEN, checkpoints=[{"factor_min": 0.5 + 1e-6}])
    assert compare(moved, GOLDEN, {})
    assert compare(moved, GOLDEN, {"factor_min": {"atol": 1e-5}}) == []


def test_update_keeps_the_golden_floats_within_their_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(golden_reports, "GOLDEN_DIR", tmp_path)
    bounds = {"factor_min": {"atol": 1e-5}}
    golden = dict(GOLDEN, dropped=1.0, dims=[0, 2, 1],
                  checkpoints=[{"factor_min": 0.5}, {"factor_min": 0.7}])
    (tmp_path / "r.json").write_text(json.dumps({"bounds": bounds, "report": golden}))
    new = dict(GOLDEN, residual=1e-3 * (1 + 0.5 * DEFAULT_RTOL), added=2.0,
               dims=[0, 2], checkpoints=[{"factor_min": 0.5 + 1e-6},
                                         {"factor_min": 0.7 + 1e-4}])
    check("r", new, update=True)
    blob = json.loads((tmp_path / "r.json").read_text())
    assert blob["bounds"] == bounds
    # floats within their bound keep the golden value; the rest, the key
    # set and the list lengths come from the new report
    assert blob["report"] == dict(GOLDEN, added=2.0, dims=[0, 2], checkpoints=[
        {"factor_min": 0.5}, {"factor_min": 0.7 + 1e-4}])
    check("r", new)
