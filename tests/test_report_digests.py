"""The --fields and --replay modes of tests/report_digests.py, run on one
benchmark job."""

import json
import re
import sys

import report_digests


def _at(report, path):
    """The value at a --fields path: keys joined by ".", positions in brackets."""
    for key in re.findall(r"[^.\[\]]+|\[\d+\]", path):
        report = report[int(key[1:-1])] if key.startswith("[") else report[key]
    return report


def test_fields_mode_prints_every_number_of_a_report(monkeypatch, capsys):
    job = report_digests.workloads.build("algebra", 101)[0]
    report = report_digests.run_job(job)
    monkeypatch.setattr(report_digests, "reports",
                        lambda seed: iter([("algebra", job.name, report)]))
    monkeypatch.setattr(sys, "argv", ["report_digests.py", "--seed", "101", "--fields"])
    assert report_digests.main() == 0
    lines = [line.split("  ") for line in capsys.readouterr().out.splitlines()]
    assert {name for name, _, _ in lines} == {f"algebra/{job.name}"}
    # one line per number of the serialized report, in document order, and
    # each printed value round-trips to the number at its path
    numbers = []
    json.loads(json.dumps(report), parse_int=numbers.append, parse_float=numbers.append)
    assert [float(value) for _, _, value in lines] == [float(x) for x in numbers]
    for _, path, value in lines:
        assert float(value) == _at(report, path)
    paths = [path for _, path, _ in lines]
    assert "max_chain_map" in {p.rsplit(".", 1)[-1] for p in paths}
    assert not any(p.startswith("timings") for p in paths)
    assert any(p.startswith("config.") for p in paths)


def test_replay_mode_reruns_the_echoed_config(monkeypatch, capsys):
    job = report_digests.workloads.build("algebra", 101)[0]
    report = report_digests.run_job(job)
    monkeypatch.setattr(report_digests, "reports",
                        lambda seed: iter([("algebra", job.name, report)]))
    monkeypatch.setattr(sys, "argv", ["report_digests.py", "--seed", "101", "--replay"])
    assert report_digests.main() == 0
    assert capsys.readouterr().out == f"algebra/{job.name}  replay equal\n"
