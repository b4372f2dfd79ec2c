"""Statements of the package that no demo, fixture or benchmark job runs.

    PYTHONPATH=src python tests/traffic.py --seed 101

Traces with sys.settrace, from the first import of lcsflow on: every
script under demos/, the runner's built-in fixtures (emitted and run
through lcsflow.runner.run) and every job of the four benchmark
workloads (built read only with perfbench/workloads.py's
build(name, seed) and run as tests/report_digests.py runs them).  Then
prints, per module of src/lcsflow, each statement other than a raise
that none of them ran, so a claim that no caller needs some code can be
checked against this traffic.  A full pass takes about a minute on a
2-core host.
"""

import argparse
import ast
import contextlib
import io
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lcsflow"


def _tracer(seen: set):
    """A sys.settrace hook that adds (file, line) to seen for every line
    run in the package."""
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    return hook


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree):
    """(first line, lines) of each statement but a raise or a docstring,
    where lines are those whose run counts as running it: a compound
    statement's header (decorators included), a simple statement's own."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise) \
                or _is_docstring(node):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(first, max(first, last) + 1)


def _run_everything(seed: int):
    """The demos, the runner fixtures and the benchmark jobs, quietly."""
    from lcsflow import runner

    import report_digests

    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        for name in runner.fixture_names():
            path = runner.emit_fixture(name, tmp)
            runner.run(str(path), out_dir=str(Path(tmp) / name), quiet=True)
        for _ in report_digests.digests(seed):
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    seen: set = set()
    sys.settrace(_tracer(seen))
    try:
        _run_everything(args.seed)
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = {line for file, line in seen if file == str(path)}
        unrun = sorted(first for first, span in _statements(ast.parse(source))
                       if not ran.intersection(span))
        print(f"{path.name}: {len(unrun)} statements not run")
        for line in unrun:
            print(f"  {line:5d}  {lines[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
