"""Golden-digest gate for the homeless (TreadMarks-style) baseline.

The home-based digest (``test_determinism_digest.py``) never runs the
homeless engine, and the backend-parity suite only compares the two
backends with each other.  This test pins the baseline's deterministic
outcome itself, so a change to its wire messages, delivery order or
message accounting moves the hash.

Three legs, one SHA-256 over their ``RunOutcome.deterministic()``
blobs minus ``events_processed`` (the engine may process fewer internal
events for the same simulated behaviour, e.g. when same-instant
arrivals share one delivery event):

* SOR on 4 nodes — barrier traffic and multi-writer diff fetches;
* ASP on 4 nodes with the global diff GC forced on (a small
  ``gc_threshold_bytes``), so the GC's accounting-only ``CONTROL``
  messages are sent and delivered;
* TSP on 4 nodes — the lock acquire/grant/release exchange.

The digest is backend-independent: the same value must come out of the
pure-Python and the compiled backend.  Re-pin it only for an
intentional behaviour change of the homeless protocol.
"""

import hashlib
import json
from functools import partial

from repro.bench.executor import RunSpec, run_spec
from repro.cluster.message import MsgCategory
from repro.gos import homeless as gos_homeless

EXPECTED_DIGEST = (
    "821f54ada46d261b11c41dc5a82146a862ae549af8a19367d2de37ad1abc961e"
)

#: Retained-diff budget small enough that ASP collects several times.
GC_THRESHOLD_BYTES = 2048


def _run(app: str, **app_kwargs) -> dict:
    spec = RunSpec(app=app, app_kwargs=app_kwargs, nodes=4, protocol="homeless")
    blob = run_spec(spec).deterministic()
    del blob["events_processed"]
    return blob


def _blobs(monkeypatch) -> list[dict]:
    sor = _run("sor", size=32, iterations=4)
    tsp = _run("tsp", cities=7)
    # The object space is resolved at run time, so a partial with the
    # threshold bound reaches DistributedJVM without a new spec field.
    monkeypatch.setattr(
        gos_homeless,
        "HomelessObjectSpace",
        partial(
            gos_homeless.HomelessObjectSpace,
            gc_threshold_bytes=GC_THRESHOLD_BYTES,
        ),
    )
    asp = _run("asp", size=32)
    return [sor, asp, tsp]


def test_homeless_digest_unchanged(monkeypatch):
    sor, asp, tsp = blobs = _blobs(monkeypatch)
    assert asp["events"].get("homeless_gc", 0) > 0, "GC leg must collect"
    assert asp["msg_count"].get(MsgCategory.CONTROL.value, 0) > 0
    assert tsp["msg_count"].get(MsgCategory.LOCK_GRANT.value, 0) > 0
    assert sor["msg_count"].get(MsgCategory.BARRIER_RELEASE.value, 0) > 0
    digest = hashlib.sha256(
        json.dumps(blobs, sort_keys=True).encode()
    ).hexdigest()
    assert digest == EXPECTED_DIGEST, (
        "deterministic outputs of the pinned homeless runs changed; if "
        "this is an intentional behaviour change, re-pin EXPECTED_DIGEST"
    )
