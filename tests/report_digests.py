"""Digests of the benchmark workloads' reports, to compare two checkouts.

    PYTHONPATH=src python tests/report_digests.py --seed 101
    PYTHONPATH=src python tests/report_digests.py --seed 101 --fields
    PYTHONPATH=src python tests/report_digests.py --seed 101 --replay

Builds every job of the four benchmark workloads with
perfbench/workloads.py's build(name, seed), read only, runs each through
lcsflow.runner.run in a temporary directory and prints one line per job:
the sha256 of its report without "config" and "timings", and the sha256
of its "config" echo.  Run it in two checkouts and diff the outputs:
equal report digests mean reports that are byte-identical outside
"timings".

With --fields it prints instead one line per number in each report
outside "timings", "config" echo included: the job, the field's path
(keys joined by ".", list positions in brackets) and its value as Python
prints it, which round-trips.  Diffing two checkouts' outputs then lists
exactly the fields that moved.

With --replay it runs each job, runs again the "config" its report
echoes, and prints one line per job saying whether the two reports are
equal outside "timings"; it exits 1 if any pair differs.  A report's
config is a config the runner accepts and re-runs to the same report.
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


def run_job(job) -> dict:
    """The report of one workload job, without its "timings"."""
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runner.run(job.config, out_dir=out, quiet=True)
        report = json.loads((Path(out) / job.config["output"]["json"]).read_text())
    report.pop("timings")
    return report


def reports(seed: int):
    """(workload, job, report) for every job, as run_job returns them."""
    for name in workloads.WORKLOADS:
        for job in workloads.build(name, seed):
            yield name, job.name, run_job(job)


def digests(seed: int):
    """(workload, job, report digest, config digest) for every job."""
    for name, job, report in reports(seed):
        config = report.pop("config")
        yield name, job, _sha(report), _sha(config)


def replays(seed: int):
    """(workload, job, whether the echoed config re-runs to the same report)."""
    for name, job, report in reports(seed):
        again = run_job(workloads.Job(report["config"]))
        yield name, job, _sha(report) == _sha(again)


def fields(blob, path: str = ""):
    """(path, value) for every number in a report, in document order."""
    if isinstance(blob, dict):
        for key, value in blob.items():
            yield from fields(value, f"{path}.{key}" if path else key)
    elif isinstance(blob, list):
        for i, value in enumerate(blob):
            yield from fields(value, f"{path}[{i}]")
    elif isinstance(blob, (int, float)) and not isinstance(blob, bool):
        yield path, blob


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--fields", action="store_true",
                      help="print every number of every report, one per line")
    mode.add_argument("--replay", action="store_true",
                      help="re-run each report's echoed config and compare the reports")
    args = parser.parse_args()
    if args.replay:
        same = True
        for name, job, equal in replays(args.seed):
            print(f"{name}/{job}  replay {'equal' if equal else 'DIFFERS'}")
            same &= equal
        return 0 if same else 1
    if args.fields:
        for name, job, report in reports(args.seed):
            for path, value in fields(report):
                print(f"{name}/{job}  {path}  {value!r}")
        return 0
    for name, job, report, config in digests(args.seed):
        print(f"{name}/{job}  report {report}  config {config}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
