"""Cross-backend bit-identity: compiled and pure-Python must agree.

The compiled kernel's contract is not "fast and close" but "fast and
byte-identical": every deterministic artifact of the reproduction — the
pinned determinism digest, a figure-2 sweep cell, and batches of fuzzer
episodes — must hash the same whichever backend is active.

The backend is bound per-process (``REPRO_BACKEND`` is read when
``repro._kernel`` is first imported), so each leg
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

from tests.test_pins import PINS

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


def _pin_code(name: str) -> str:
    """Code printing pin ``name`` of the manifest (tests/test_pins.py)."""
    return (
        "import os\n"
        "from repro import _kernel\n"
        "from tests.test_pins import PINS\n"
        "assert _kernel.backend_name() == os.environ['REPRO_BACKEND'], "
        "_kernel.backend_info()\n"
        f"print(PINS[{name!r}][0]())\n"
    )


def test_determinism_digest_identical_across_backends():
    """The pinned ASP/AT/4 digest is the same hash under both backends."""
    digests = _run_both(_pin_code("determinism"))
    assert digests["python"] == digests["compiled"]
    assert digests["python"] == PINS["determinism"][1]


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
# migration; tokenring/AT is lock-transfer heavy (route_reply and C
# Futures on every grant) and migrates homes through Eq. 2, which is
# Python under both backends; the homeless SOR leg uses the fallback
# engine whose accesses bypass the LocalAccess shadows entirely.
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
    port delivery, reply router, C futures) are identical
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


def test_serving_report_identical_across_backends():
    """A 64-node churned serving episode over a fat tree produces the
    pinned SLO-report digest under both backends — arrivals, request
    spans, epoch windows and tail quantiles all bit-identical."""
    digests = _run_both(_pin_code("serving_parity"))
    assert digests["python"] == digests["compiled"]
    assert digests["python"] == PINS["serving_parity"][1]


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
from repro.bench.analyze import (
    analyze_trace, render_analysis, write_json_report,
)
with tempfile.TemporaryDirectory() as tmp:
    trace = os.path.join(tmp, "trace.jsonl")
    payload = os.path.join(tmp, "slo.json")
    record_trace(trace, app="asp", app_kwargs={"size": 20}, policy="AT",
                 nodes=4)
    slo = analyze_trace(trace)
    write_json_report(slo, payload)
    with open(payload, "rb") as handle:
        raw = handle.read()
markdown = render_analysis(slo).encode()
print(hashlib.sha256(markdown).hexdigest(), hashlib.sha256(raw).hexdigest())
"""


def test_slo_report_identical_across_backends():
    """The rendered SLO analysis and its ``analyze --json`` payload are
    byte-identical under both backends."""
    digests = _run_both(ANALYZE_CODE)
    assert digests["python"] == digests["compiled"]


EQ2_MUTATION_CODE = """\
import json
from repro.check.fuzz import episode_seeds
from repro.core.state import HOME_WRITER, ObjectAccessState as S
from repro.check.runner import run_episode


def over_count_r(record):
    # R over-counted: every request arriving at a home adds one more hop
    if record.__name__ == "record_remote_read":
        return lambda self, reader, hops=0: record(self, reader, hops + 1)
    return lambda self, hops: record(self, hops + 1)


def always_exclusive(record):
    def record_home_write(self):
        self.last_writer = HOME_WRITER
        return record(self)
    return record_home_write


def keeps_c_chain(record):
    def record_home_write(self):
        chain = self.consecutive_writes, self.consecutive_writer
        exclusive = record(self)
        self.consecutive_writes, self.consecutive_writer = chain
        return exclusive
    return record_home_write


MUTATIONS = {
    "none": {},
    "over_count_r": {
        "record_remote_read": over_count_r,
        "record_redirections": over_count_r,
    },
    "always_exclusive": {"record_home_write": always_exclusive},
    "keeps_c_chain": {"record_home_write": keeps_c_chain},
}
counts = {}
for name, patches in MUTATIONS.items():
    saved = {method: getattr(S, method) for method in patches}
    for method, mutate in patches.items():
        setattr(S, method, mutate(saved[method]))
    try:
        for flavor in ("core", "serving"):
            counts[name + "/" + flavor] = [
                run_episode(seed=seed, flavor=flavor).migrations
                for seed in episode_seeds(0, 25)
            ]
    finally:
        for method, original in saved.items():
            setattr(S, method, original)
print(json.dumps(counts, sort_keys=True))
"""


def test_eq2_mutations_bite_the_same_under_both_backends():
    """Each Eq-2 input has one Python body: a mutation of the rule that
    counts R, E or the break of the C chain changes the per-episode
    migration counts of both backends alike (25 core and 25 serving
    fuzz episodes), because the compiled hit path keeps no copy of it."""
    import json

    runs = _run_both(EQ2_MUTATION_CODE)
    assert runs["python"] == runs["compiled"]
    counts = json.loads(runs["python"])
    # Teeth: the R and C-chain mutations move counts on these episodes.
    # An all-exclusive E moves none on these episodes (more E only lowers
    # T, which Eq. 2 floors at T_init) but stays in the matrix.
    for name in ("over_count_r", "keeps_c_chain"):
        mutated = counts[f"{name}/core"] + counts[f"{name}/serving"]
        baseline = counts["none/core"] + counts["none/serving"]
        assert mutated != baseline, f"{name} changes no migration count"
