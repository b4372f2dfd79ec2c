#!/usr/bin/env python3
"""Drive everything through the config runner, exactly as the CLI would."""

import json
import tempfile
from pathlib import Path

from lcsflow.runner import emit_fixture, fixture_names, main

with tempfile.TemporaryDirectory(prefix="lcsflow_demo_") as tmp:
    out = Path(tmp)
    print("built-in fixtures:", ", ".join(fixture_names()))

    # emit a ready-made config and run it through the argv entry point,
    # overriding the step count to keep the demo quick
    cfg_path = emit_fixture("gcs_rescale", str(out))
    print(f"\nemitted {cfg_path}:")
    print(cfg_path.read_text())

    code = main(["run", "--config", str(cfg_path), "--out", str(out / "run1"),
                 "--steps", "20"])
    print(f"exit code: {code}")

    report = json.loads((out / "run1" / "report.json").read_text())
    print(f"\nreport keys: {sorted(report)}")
    print(f"schema {report['schema_version']}, verdict {report['verdict']}, "
          f"steps {report['result']['steps']}")

    csv_path = out / "run1" / "checkpoints.csv"
    print(f"\nper-checkpoint CSV ({csv_path.name}):")
    print(csv_path.read_text())

    # a hand-written config works the same way; invalid ones exit with code 2
    bad = out / "bad.json"
    bad.write_text(json.dumps({"scenario": "moser", "generator": "flux_capacitor"}))
    code = main(["run", "--config", str(bad), "--quiet"])
    print(f"invalid generator -> exit code {code}")
