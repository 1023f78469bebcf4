"""``scripts/profile_run.py --memory`` prints its report and writes a
file only where ``--save`` points, so a profiling run never touches the
committed reports under ``results/profiles/``; a time profile prints
one row per code object, so generated constructors stay apart, and
names a code object on interpreters without ``co_qualname``."""

import importlib.util
import os
import re
import pathlib
import subprocess
import sys
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROFILES = ROOT / "results" / "profiles"
ARGS = ("--memory", "--app", "sor", "--size", "16", "--nodes", "2", "--top", "3")


def _profile(*extra: str, args=ARGS) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_run.py"), *args, *extra],
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


def test_time_profile_keeps_generated_constructors_apart(tmp_path):
    """Every dataclass-generated ``__init__`` shares one (file, line,
    name) key, under which a pstats table prints a single row; the
    script's rows are per code object, labelled by the owning class."""
    saved = tmp_path / "run.pstats"
    out = _profile(
        "--save", str(saved),
        args=("--app", "sor", "--size", "16", "--nodes", "2", "--top", "1000"),
    )
    assert "=== top by cumulative time ===" in out
    assert "=== top by internal time ===" in out
    row = r"^\s*\d+ .* (\S+\.__init__) \(<string>:"
    generated = set(re.findall(row, out, re.MULTILINE))
    assert len(generated) >= 2, generated
    assert {"CacheEntry.__init__", "ObjRequest.__init__"} <= generated
    assert saved.stat().st_size > 0  # --save still dumps the raw pstats


def test_rows_name_code_objects_without_co_qualname():
    """Before Python 3.11 a code object has no ``co_qualname``: a row
    whose function is no longer alive is named by its ``co_name``."""
    spec = importlib.util.spec_from_file_location(
        "profile_run", ROOT / "scripts" / "profile_run.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    code = type(
        "Code", (), {"co_name": "gone", "co_filename": "x.py", "co_firstlineno": 3}
    )()
    entries = [
        SimpleNamespace(code=code, callcount=2, inlinetime=0.5, totaltime=1.0),
        SimpleNamespace(
            code="<built-in method len>", callcount=1, inlinetime=0.1,
            totaltime=0.1,
        ),
    ]
    rows = script.profile_rows(SimpleNamespace(getstats=lambda: entries))
    assert rows == [
        (2, 0.5, 1.0, "gone (x.py:3)"),
        (1, 0.1, 0.1, "<built-in method len>"),
    ]
