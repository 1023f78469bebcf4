"""Cross-backend bit-identity: compiled and pure-Python must agree.

The compiled kernel's contract is not "fast and close" but "fast and
byte-identical": every deterministic artifact of the reproduction — the
pinned determinism digest, a figure-2 sweep cell, and batches of fuzzer
episodes — must hash the same whichever backend is active.

The backend is bound per-process (``REPRO_BACKEND`` is read at first
kernel use and the simulator class is rebound at import), so each leg
runs in a fresh subprocess with the environment forced.  When the
extension cannot be built (no C toolchain, or the backend was pinned to
python), the whole module skips with the reason.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BACKENDS = ("python", "compiled")


@functools.lru_cache(maxsize=1)
def _compiled_unavailable() -> str | None:
    """Why the compiled backend cannot run here, or ``None`` if it can.

    Probed in a subprocess so an inherited ``REPRO_BACKEND=python`` in
    this process does not mask a perfectly buildable extension.
    """
    proc = _spawn(
        "compiled",
        "from repro import _kernel\n"
        "print(_kernel.select_backend('compiled'))\n",
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return tail[0]
    return None


def _spawn(backend: str, code: str) -> subprocess.CompletedProcess:
    env = dict(
        os.environ,
        REPRO_BACKEND=backend,
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
    )


def _run_both(code: str) -> dict[str, str]:
    """Last stdout line of ``code`` under each backend (asserting success)."""
    reason = _compiled_unavailable()
    if reason is not None:
        pytest.skip(f"compiled backend unavailable: {reason}")
    out = {}
    for backend in BACKENDS:
        proc = _spawn(backend, code)
        assert proc.returncode == 0, (
            f"{backend} leg failed:\n{proc.stderr}"
        )
        out[backend] = proc.stdout.strip().splitlines()[-1]
    return out


DIGEST_CODE = """\
import importlib.util, pathlib
path = pathlib.Path({root!r}) / "tests" / "test_determinism_digest.py"
spec = importlib.util.spec_from_file_location("tdd", path)
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
from repro import _kernel
assert _kernel.backend_name() == {backend_expr}, _kernel.backend_info()
print(mod._digest(mod._run_payload()))
""".format(root=str(ROOT), backend_expr="__import__('os').environ['REPRO_BACKEND']")


def test_determinism_digest_identical_across_backends():
    """The pinned ASP/AT/4 digest is the same hash under both backends."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "tdd", ROOT / "tests" / "test_determinism_digest.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    digests = _run_both(DIGEST_CODE)
    assert digests["python"] == digests["compiled"]
    assert digests["python"] == mod.EXPECTED_DIGEST


SWEEP_CELL_CODE = """\
import hashlib, json
from repro.bench.executor import RunSpec, run_spec
spec = RunSpec(
    app="sor", app_kwargs={"size": 32, "iterations": 10},
    policy="AT", nodes=8, tag="parity-cell",
)
outcome = run_spec(spec).deterministic()
blob = json.dumps(outcome, sort_keys=True, default=repr)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def test_figure2_cell_identical_across_backends():
    """One figure-2 sweep cell (SOR/AT/8) produces identical outcomes."""
    digests = _run_both(SWEEP_CELL_CODE)
    assert digests["python"] == digests["compiled"]


FUZZER_CODE = """\
import hashlib
from repro.check.runner import run_check
reports = [
    run_check(episodes=25, base_seed=seed, self_test=False).to_json()
    for seed in (0, 7, 1234)
]
print(hashlib.sha256("\\n".join(reports).encode()).hexdigest())
"""


def test_fuzzer_episodes_identical_across_backends():
    """25 conformance episodes at 3 fixed seeds are bit-identical."""
    digests = _run_both(FUZZER_CODE)
    assert digests["python"] == digests["compiled"]


FASTPATH_CODE = """\
import hashlib, json
from repro.bench.executor import RunSpec, run_spec
# Episodes chosen to exercise every compiled fast path: ASP/NM drives
# fault-in + diff propagation through the per-node delivery ports with no
# migration; tokenring/AT is lock-transfer heavy (ReplyRouter and C
# Futures on every grant, home migrations); the homeless SOR leg uses
# the fallback engine whose accesses bypass the LocalAccess shadows
# entirely.
specs = [
    RunSpec(app="asp", app_kwargs={"size": 20}, policy="NM", nodes=8,
            tag="fp-asp"),
    RunSpec(app="tokenring", app_kwargs={}, policy="AT", nodes=8,
            tag="fp-ring"),
    RunSpec(app="sor", app_kwargs={"size": 24, "iterations": 6},
            policy="AT", nodes=4, protocol="homeless", tag="fp-homeless"),
]
blobs = [
    json.dumps(run_spec(s).deterministic(), sort_keys=True, default=repr)
    for s in specs
]
print(hashlib.sha256("\\n".join(blobs).encode()).hexdigest())
"""


def test_fastpath_episodes_identical_across_backends():
    """Episode hashes across the PR-8 fast paths (local-access shadows,
    port delivery, reply router, C futures/arenas) are identical
    under both backends."""
    digests = _run_both(FASTPATH_CODE)
    assert digests["python"] == digests["compiled"]


TOPOLOGY_CODE = """\
import hashlib, json
from repro.bench.executor import RunSpec, run_spec
# Episodes chosen to exercise the scale-tier paths end to end: a
# hierarchical topology with per-link contention (the C fabric's
# store-and-forward branch), a fat-tree with the k-ary barrier-release
# relay, and the sharded home manager routing notices over the fat
# tree.  Any float-order divergence between _topo_arrival and the C
# fabric_send_core shifts arrival times and changes these hashes.
specs = [
    RunSpec(app="asp", app_kwargs={"size": 24}, policy="AT", nodes=8,
            topology="hier:leaf=4:oversub=4:contention=1",
            tag="topo-hier"),
    RunSpec(app="sor", app_kwargs={"size": 24, "iterations": 6},
            policy="AT", nodes=16,
            topology="fat-tree:edge=4:pod=2:oversub=2",
            release_fanout=2, tag="topo-fat"),
    RunSpec(app="tokenring", app_kwargs={}, policy="AT", nodes=16,
            mechanism="home-manager:shards=4",
            topology="fat-tree:edge=4:pod=2:oversub=2:contention=1",
            release_fanout=4, tag="topo-shards"),
]
blobs = [
    json.dumps(run_spec(s).deterministic(), sort_keys=True, default=repr)
    for s in specs
]
print(hashlib.sha256("\\n".join(blobs).encode()).hexdigest())
"""


def test_topology_episodes_identical_across_backends():
    """Topology-priced episodes (hierarchical + fat-tree, contention,
    multicast release relay, sharded home manager) hash identically
    under both backends."""
    digests = _run_both(TOPOLOGY_CODE)
    assert digests["python"] == digests["compiled"]


SPAN_TRACE_CODE = """\
import hashlib, tempfile, os
from repro.bench.record import record_trace
fd, path = tempfile.mkstemp(suffix=".jsonl")
os.close(fd)
try:
    record_trace(path, app="asp", app_kwargs={"size": 20}, policy="AT",
                 nodes=4)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
finally:
    os.unlink(path)
# the meta line legitimately differs (backend name, kernel build hash);
# every event line — span ids, parents, timestamps — must not
blob = "\\n".join(lines[1:])
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def test_span_trace_identical_across_backends():
    """Span-enabled traces (op ids, parents, times) are bit-identical.

    Every span id is allocated in dispatch order, so equality of the
    full event stream proves the compiled backend schedules the
    instrumented operations in exactly the reference order.
    """
    digests = _run_both(SPAN_TRACE_CODE)
    assert digests["python"] == digests["compiled"]


SERVING_CODE = """\
from repro.apps.serving import ServingSpec
from repro.bench.serving import run_serving, report_digest
spec = ServingSpec(seed=0, nodes=64, keys=96, phases=3,
                   requests_per_thread=4, churn=0.125, policy="AT",
                   topology="fat-tree:edge=8:pod=2:oversub=2")
print(report_digest(run_serving(spec)))
"""

#: Pinned digest of the 64-node serving leg above; recompute with the
#: SERVING_CODE snippet if the traffic generator or report schema
#: changes intentionally.
SERVING_DIGEST = (
    "fa4c2938a6b8baf7f569ae2654d3d3e84a0f12dd001a08af0ab77d27587216a8"
)


def test_serving_report_identical_across_backends():
    """A 64-node churned serving episode over a fat tree produces the
    pinned SLO-report digest under both backends — arrivals, request
    spans, epoch windows and tail quantiles all bit-identical."""
    digests = _run_both(SERVING_CODE)
    assert digests["python"] == digests["compiled"]
    assert digests["python"] == SERVING_DIGEST


REFERENCE_FOLD_CODE = """\
from repro.bench.serving import report_digest, run_serving
from tests.test_serving import EQUIV_SPEC, reference_report
live, reference = run_serving(EQUIV_SPEC), reference_report(EQUIV_SPEC)
assert live == reference
print(report_digest(live), report_digest(reference))
"""


def test_serving_report_equals_offline_fold_under_both_backends():
    """The collector-as-span-sink report equals a report folded offline
    from a plain TraceRecorder's retained span events of the same run
    (the reference lives in tests/test_serving.py), whichever backend
    schedules the episode."""
    digests = _run_both(REFERENCE_FOLD_CODE)
    assert digests["python"] == digests["compiled"]
    live, reference = digests["python"].split()
    assert live == reference


ANALYZE_CODE = """\
import hashlib, tempfile, os
from repro.bench.record import record_trace
from repro.bench.analyze import analyze_trace, render_analysis
fd, path = tempfile.mkstemp(suffix=".jsonl")
os.close(fd)
try:
    record_trace(path, app="asp", app_kwargs={"size": 20}, policy="AT",
                 nodes=4)
    report = render_analysis(analyze_trace(path))
finally:
    os.unlink(path)
print(hashlib.sha256(report.encode()).hexdigest())
"""


def test_slo_report_identical_across_backends():
    """The rendered SLO analysis is byte-identical under both backends."""
    digests = _run_both(ANALYZE_CODE)
    assert digests["python"] == digests["compiled"]
