"""Golden-digest determinism gate: one pinned run, one pinned hash.

One fixed configuration (ASP, size 64, AT policy, 4 nodes,
forwarding-pointer mechanism) is simulated and everything the paper's
figures are built from — the full :class:`ClusterStats` snapshot, the
final simulated time, and the complete home-migration event list — is
hashed into a single SHA-256.  The digest below was recorded before the
PR-3 hot-path overhaul and verified unchanged after it; any future
change to event ordering, protocol decisions, message accounting or
migration behaviour moves the hash and fails this test.

Deliberately NOT hashed: ``events_processed``.  The engine may
legitimately process fewer internal events for the same simulated
behaviour (e.g. the resolved-future fast path elides call_soon round
trips), so the event count is an implementation detail, not part of the
reproduction's deterministic contract.

If a PR *intentionally* changes protocol behaviour, re-pin the digest in
the same PR and say so in the PR description — that is the only
legitimate reason to touch EXPECTED_DIGEST.
"""

import hashlib
import json

from repro.apps import Asp
from repro.core.policies import make_policy
from repro.dsm.redirection import make_mechanism
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.jvm import DistributedJVM
from repro.trace.recorder import TraceRecorder

EXPECTED_DIGEST = (
    "05a9d3183dedc867faded32b8a4d538ad8a836397fa01db3aef2fe1be2d06302"
)


def _run_payload() -> dict:
    tracer = TraceRecorder(kinds=("migration",))
    jvm = DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=make_policy("AT"),
        mechanism=make_mechanism("forwarding-pointer"),
        tracer=tracer,
    )
    result = jvm.run(Asp(size=64))
    Asp(size=64).verify(result.output)
    migrations = [
        [
            event.time_us,
            event.oid,
            event.node,
            event.detail.get("old_home"),
            event.detail.get("new_home"),
        ]
        for event in tracer.migrations()
    ]
    return {
        "stats": result.stats.snapshot(),
        "time_us": result.execution_time_us,
        "migrations": migrations,
    }


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def test_pinned_run_digest_unchanged():
    payload = _run_payload()
    assert payload["migrations"], "pinned run is expected to migrate homes"
    assert _digest(payload) == EXPECTED_DIGEST, (
        "deterministic outputs of the pinned ASP/AT/4 run changed; if this "
        "is an intentional protocol/behaviour change, re-pin "
        "EXPECTED_DIGEST and document it in the PR"
    )


def test_pinned_run_digest_stable_across_repeats():
    """Two in-process runs produce byte-identical payloads (no hidden
    global state leaks between simulations)."""
    assert _digest(_run_payload()) == _digest(_run_payload())
