"""Time-to-verdict benchmark for lcsflow, run from the root of a checkout.

    python3 perfbench/run.py --workload t4_theorem --seed 1 --seconds 20 --trace 0

Each workload is a list of configs (perfbench/workloads.py) run through
``lcsflow.runner.run``, the code path behind ``lcsflow-run``.  One pass
runs every config and checks every report it writes.  The load is one
process acting as one closed-loop client: the next pass starts when the
previous one returns.  After one untimed warm-up pass the benchmark
repeats passes for about ``--seconds`` seconds.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
from untraced passes.  With ``--trace 1`` passes alternate between
untraced and traced, and the last line carries the per-layer metrics
derived from the spans (perfbench/tracing.py).  Either way a run record
(versions, thread settings, pass times, problems) and, when traced, the
spans are written under perfbench/out/.

Exit codes: 0 after printing the result line, 2 when the lcsflow sources
are missing next to perfbench/, 1 when set-up fails.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are sized when numpy loads, so pin them before any
# import below can load it; the run record echoes these settings.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
MIN_PASSES = 3

END_TO_END_UNITS = {
    "verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import, build the inputs, print the ready time, exit")
    return p


def _git_hash() -> str | None:
    """HEAD commit read from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start


class Bench:
    """Runs passes of one workload and checks their reports."""

    def __init__(self, jobs, reports_dir: Path):
        from lcsflow import runner
        from lcsflow.moser import StepCountTooSmall

        self.jobs = jobs
        self.dir = reports_dir
        self._runner = runner  # run is looked up per call, so tracing sees it
        self._cfl = StepCountTooSmall
        self.reference: list[dict] | None = None

    def run_pass(self) -> dict:
        """One checked pass: seconds, problems, accuracy, captured counts."""
        configs = [copy.deepcopy(job.config) for job in self.jobs]
        outcomes, problems, digits = [], [], None
        gc.collect()  # every pass starts from the same heap, so peaks repeat
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                for cfg in configs:
                    code = self._runner.run(cfg, out_dir=str(self.dir), quiet=True)
                    path = self.dir / cfg["output"]["json"]
                    outcomes.append((code, json.loads(path.read_text())))
                problems = checks.pass_problems(self.jobs, outcomes)
            except Exception as e:  # a raising pass is a failed pass
                problems = [f"raised {type(e).__name__}: {e}"]
            seconds = time.perf_counter() - start
        if not problems:
            digits = checks.accuracy_digits(rep for _, rep in outcomes)
            reports = [checks.without_timings(rep) for _, rep in outcomes]
            if self.reference is None:
                self.reference = reports
            elif reports != self.reference:
                problems.append("reports differ from the warm-up pass "
                                "outside 'timings'")
        cfl = sum(issubclass(w.category, self._cfl) for w in caught)
        for w in caught:
            if not issubclass(w.category, self._cfl):
                print(f"warning: {w.category.__name__}: {w.message}",
                      file=sys.stderr)
        written = sum(p.stat().st_size for p in self.dir.iterdir())
        return {"seconds": seconds, "problems": problems, "digits": digits,
                "cfl_warnings": cfl, "report_bytes": written}

    @property
    def steps(self) -> int:
        return sum(int(j.config.get("steps", 0)) for j in self.jobs
                   if j.config["scenario"] == "moser")


def _traced_pass(bench: Bench, tracer, pass_id: int) -> dict:
    tracer.pass_id = pass_id
    patches = tracing.install(tracer)
    try:
        result = bench.run_pass()
    finally:
        patches.undo()
        tracer.pass_id = None
    tracer.counts[pass_id]["cfl_warnings"] = result["cfl_warnings"]
    tracer.counts[pass_id]["report_bytes"] = result["report_bytes"]
    return result


def _measure(bench: Bench, seconds: float, tracer) -> tuple[list, list]:
    """Warm-up, then passes until the next one would overrun the budget.

    Returns (untraced passes, traced passes); traced ones only when a
    tracer is given, alternating with untraced ones.
    """
    plain, traced = [bench.run_pass()], []
    deadline = time.perf_counter() + seconds
    while True:
        res = bench.run_pass()
        plain.append(res)
        cycle = res["seconds"]
        if tracer is not None:
            res = _traced_pass(bench, tracer, len(traced))
            traced.append(res)
            cycle += res["seconds"]
        if len(plain) > MIN_PASSES and time.perf_counter() + cycle > deadline:
            return plain, traced


def _layer_metrics(bench: Bench, tracer, plain, traced) -> dict:
    """Medians over traced passes; flags computed counts that moved."""
    per_pass = [tracing.layer_metrics(tracer.pass_spans(i), tracer.counts[i],
                                      bench.steps, res["seconds"])
                for i, res in enumerate(traced)]
    first = per_pass[0]
    for i, m in enumerate(per_pass[1:], start=1):
        moved = [k for k in tracing.EXACT_COUNTS if m[k] != first[k]]
        if moved:
            traced[i]["problems"].append(f"computed counts differ: {moved}")
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in first}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["seconds"] for r in traced)
        / statistics.median(r["seconds"] for r in plain[1:]))
    return {k: (metrics[k], tracing.LAYER_UNITS[k]) for k in tracing.LAYER_UNITS}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "lcsflow" / "__init__.py").is_file():
        print(f"error: no lcsflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import lcsflow.runner  # noqa: F401  (the import is the cost measured)

        workloads.build(args.workload, args.seed)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    import lcsflow
    import numpy as np
    import scipy
    import scipy.fft

    if Path(lcsflow.__file__).resolve().parent != SRC / "lcsflow":
        print(f"error: lcsflow imported from {lcsflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    try:
        setup = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    jobs = workloads.build(args.workload, args.seed)
    reports_dir = OUT / f"reports-{args.workload}-{os.getpid()}"
    reports_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    bench = Bench(jobs, reports_dir)
    try:
        plain, traced = _measure(bench, args.seconds, tracer)
    finally:
        shutil.rmtree(reports_dir, ignore_errors=True)

    passes = plain + traced
    timed = [r["seconds"] for r in plain[1:]]
    if args.trace:
        metrics = _layer_metrics(bench, tracer, plain, traced)
    else:
        digits = [r["digits"] for r in passes if r["digits"] is not None]
        values = {
            "verdict_s": statistics.median(timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accuracy_digits": min(digits) if digits else 0.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    failed = sum(bool(r["problems"]) for r in passes)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git": _git_hash(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "load": "one process, one closed-loop client",
        "configs": [j.config for j in jobs],
        "setup_probes_s": setup,
        "untraced_pass_s": [r["seconds"] for r in plain],
        "traced_pass_s": [r["seconds"] for r in traced],
        "cfl_warnings_per_pass": [r["cfl_warnings"] for r in passes],
        "problems": [r["problems"] for r in passes],
        "fail_ratio": failed / len(passes),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps({
            "activity_shares": tracing.activity_shares(tracer.pass_spans(0)),
            "span_fields": ["id", "name", "start", "end", "parent", "pass", "work"],
            "spans": [s for s in tracer.spans if s is not None],
        }) + "\n")
    for r in passes:
        for p in r["problems"]:
            print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
