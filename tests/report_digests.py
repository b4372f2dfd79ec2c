"""Digests of the benchmark workloads' reports, to compare two checkouts.

    PYTHONPATH=src python tests/report_digests.py --seed 101

Builds every job of the four benchmark workloads with
perfbench/workloads.py's build(name, seed), read only, runs each through
lcsflow.runner.run in a temporary directory and prints one line per job:
the sha256 of its report without "config" and "timings", and the sha256
of its "config" echo.  Run it in two checkouts and diff the outputs:
equal report digests mean reports that are byte-identical outside
"timings".
"""

import argparse
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from lcsflow import runner  # noqa: E402


def _sha(blob) -> str:
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(seed: int):
    """(workload, job, report digest, config digest) for every job."""
    for name in workloads.WORKLOADS:
        for job in workloads.build(name, seed):
            with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
                warnings.simplefilter("ignore")
                runner.run(job.config, out_dir=out, quiet=True)
                report = json.loads((Path(out) / job.config["output"]["json"]).read_text())
            config = report.pop("config")
            report.pop("timings")
            yield name, job.name, _sha(report), _sha(config)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for name, job, report, config in digests(args.seed):
        print(f"{name}/{job}  report {report}  config {config}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
