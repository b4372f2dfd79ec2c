"""Smoke test: every demo runs to completion as a script.

contact_circle_moser and corollary_paths are the slowest, about 12 s and
9 s on a 2-core host.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "twisted_calculus_tour",
    "area_interpolation_absorption",
    "contact_circle_moser",
    "corollary_paths",
    "rational_cohomology_zoo",
    "runner_quickstart",
])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # runner_quickstart writes there
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the demos clean up their temporary directories
    assert not list(tmp_path.glob("lcsflow_demo_*"))
