"""``scripts/profile_run.py --memory`` prints its report and writes a
file only where ``--save`` points, so a profiling run never touches the
committed reports under ``results/profiles/``."""

import os
import re
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROFILES = ROOT / "results" / "profiles"
ARGS = ("--memory", "--app", "sor", "--size", "16", "--nodes", "2", "--top", "3")


def _profile(*extra: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_run.py"), *ARGS, *extra],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _tree(path: pathlib.Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_memory_profile_without_save_writes_nothing():
    before = _tree(PROFILES)
    out = _profile()
    assert "memory profile: sor(16) under AT on 2 nodes" in out
    assert re.search(
        r"^fixed bytes per node before the first event: cluster build "
        r"\d+ B, threads \d+ B$", out, re.MULTILINE,
    )
    assert "report written" not in out
    assert _tree(PROFILES) == before


def test_memory_profile_save_writes_the_printed_report(tmp_path):
    target = tmp_path / "reports" / "memory.txt"
    out = _profile("--save", str(target))
    report = target.read_text(encoding="utf-8")
    assert report.startswith("memory profile: sor(16)")
    assert report in out
    assert "notice floors" not in report
