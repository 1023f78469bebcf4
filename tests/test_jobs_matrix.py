"""``--jobs`` leaves every output byte alone.

``figure5`` and ``ablation`` run at quick size, fully instrumented,
once with ``--jobs 1`` and once with ``--jobs 2``, each in its own
directory.  Stdout, stderr (the ``--progress`` heartbeats aside: they
report wall time), the merged ``--metrics-out`` snapshot and every
per-run trace must be the same bytes.  The log in particular: a pool
worker's lines come back with its outcome and are printed in spec
order, so they can neither reorder nor tear.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.bench.cli import main

#: A ``--progress`` heartbeat, ``[done/total] …``.
PROGRESS = re.compile(r"^\[\d+/\d+\] ", re.MULTILINE)


def _outputs(target, jobs, directory, monkeypatch, capsys) -> dict:
    directory.mkdir()
    monkeypatch.chdir(directory)
    capsys.readouterr()
    assert main([
        target, "--jobs", str(jobs), "--progress", "--log-level", "info",
        "--metrics-out", "metrics.json", "--trace-out", "traces/run.jsonl",
    ]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines(keepends=True)
    files = {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }
    return {
        "stdout": captured.out,
        "stderr": "".join(line for line in lines if not PROGRESS.match(line)),
        "progress": sum(1 for line in lines if PROGRESS.match(line)),
        "files": files,
    }


@pytest.mark.parametrize("target", ["figure5", "ablation"])
def test_jobs_leave_every_output_byte_alone(
    target, tmp_path, monkeypatch, capsys
):
    one = _outputs(target, 1, tmp_path / "one", monkeypatch, capsys)
    two = _outputs(target, 2, tmp_path / "two", monkeypatch, capsys)
    assert "[info] repro migration " in one["stderr"]
    # one progress line, one merged snapshot and one trace per run, each
    # trace named after the sweep
    traces = sorted(set(one["files"]) - {"metrics.json"})
    assert all(name.startswith(f"traces/run-{target}-") for name in traces)
    snapshot = json.loads(one["files"]["metrics.json"])
    assert snapshot["counters"]
    assert one["progress"] == snapshot["runs"] == len(traces) > 1
    assert sorted(two["files"]) == sorted(one["files"])
    for name, blob in one["files"].items():
        assert two["files"][name] == blob, name
    assert two["stdout"] == one["stdout"]
    assert two["stderr"] == one["stderr"]
    assert two["progress"] == one["progress"]
