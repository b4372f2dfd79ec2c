"""The golden-report comparison: exact where it must be, bounded elsewhere."""

import numpy as np

from golden_reports import DEFAULT_RTOL, compare, plain

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
