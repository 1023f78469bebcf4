"""A run imports only what it runs.

Each case starts a fresh interpreter on one backend, imports ``repro``,
runs one small AT episode through ``run_spec`` and one small serving
episode, and reports which modules that loaded: the process pool, the
kernel compiler's stdlib, the homeless engine, the checker and the trace
exporter load only when something calls them.  The same interpreter
then resolves every package export, the lazy tables' other half.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import _kernel

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a home-based episode never calls, so never loads.
NOT_LOADED = (
    "multiprocessing",
    "concurrent.futures",
    "subprocess",
    "sysconfig",
    "repro.dsm.homeless",
    "repro.gos.homeless",
    "repro.check.runner",
    "repro.check.invariants",
    "repro.check.mutations",
    "repro.obs.export",
)

CHILD = """
import importlib, json, pkgutil, sys

import repro
from repro import _kernel
from repro.apps.serving import ServingSpec
from repro.bench.executor import RunSpec, run_spec
from repro.bench.serving import run_serving

run_spec(RunSpec(
    app="synthetic", app_kwargs={"total_updates": 64, "repetition": 4},
    policy="AT", nodes=4,
))
run_serving(ServingSpec(nodes=4, keys=8, requests_per_thread=2, phases=1))
loaded = sorted(sys.modules)

unresolved, undirected = [], []
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.ispkg:
        continue
    package = importlib.import_module(info.name)
    for name in getattr(package, "__all__", ()):
        if not hasattr(package, name):
            unresolved.append(f"{info.name}.{name}")
        elif name not in dir(package):
            undirected.append(f"{info.name}.{name}")

import importlib.machinery, sysconfig

print(json.dumps({
    "backend": _kernel.backend_name(),
    "loaded": loaded,
    "unresolved": unresolved,
    "undirected": undirected,
    "suffix": importlib.machinery.EXTENSION_SUFFIXES[0],
    "ext_suffix": sysconfig.get_config_var("EXT_SUFFIX"),
}))
"""


@pytest.fixture(scope="module", params=["python", "compiled"])
def child(request) -> dict:
    if request.param == "compiled" and _kernel.backend_name() != "compiled":
        pytest.skip("the compiled backend is not active in this process")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=dict(
            os.environ, PYTHONPATH=str(SRC), REPRO_BACKEND=request.param
        ),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["backend"] == request.param
    return report


def test_an_episode_loads_no_module_it_never_calls(child):
    loaded = set(child["loaded"])
    assert "repro.gos.jvm" in loaded  # the episodes did run
    assert sorted(set(NOT_LOADED) & loaded) == []


def test_every_package_export_resolves_and_is_listed(child):
    assert child["unresolved"] == []
    assert child["undirected"] == []


def test_cached_kernel_keeps_its_suffix(child):
    """The build cache's file name takes ``EXTENSION_SUFFIXES[0]``;
    it must be sysconfig's ``EXT_SUFFIX``, the name it had before."""
    assert child["suffix"] == child["ext_suffix"]
