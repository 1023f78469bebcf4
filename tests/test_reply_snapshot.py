"""A fetched copy is the home's snapshot (PROTOCOL.md §2).

The home makes one read-only image of an object per version and sends
that same array in every reply, single or batched, until its payload
changes: every version bump drops it, and while a home write is open
(the object is in ``home_dirty``) each reply takes a fresh one.  Nobody
writes a snapshot: a write fault makes it the twin and gives the writer
a private copy, and a barrier transfer onto a clean snapshot adopts the
shipped image.

The fuzzed episodes check the rule at every reply the home sends.  They
are data-race free, so no reader faults on an object while its home
write is open; a directed racy run covers that case, and the other
directed runs pin the sharing, the twin and the transfer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.fuzz import episode_seeds, generate_program
from repro.check.runner import run_episode
from repro.cluster.message import MsgCategory
from repro.dsm.protocol import DsmEngine
from repro.dsm.sync import SyncManager
from repro.dsm.wire import MigrateOrderMsg, ObjBatchReply, ObjReply
from repro.gos.thread import ThreadContext

from tests.conftest import episodes_on, make_gos, packed, run_threads


class ReplyLog:
    """Every reply image a home sent: how many, how many were stale or
    writable at the instant they were served, and how many reused the
    array of the object's previous reply."""

    def __init__(self) -> None:
        self.images = 0
        self.bad: list[tuple[int, int, str]] = []
        self.reused = 0
        self._last: dict[tuple[int, int], np.ndarray] = {}

    def served(self, engine: DsmEngine, oid: int, data: np.ndarray) -> None:
        self.images += 1
        if data.flags.writeable:
            self.bad.append((engine.node_id, oid, "writable"))
        if data.tobytes() != engine.homes[oid].payload.tobytes():
            self.bad.append((engine.node_id, oid, "stale"))
        key = (engine.node_id, oid)
        if self._last.get(key) is data:
            self.reused += 1
        self._last[key] = data


def _log_replies(monkeypatch) -> ReplyLog:
    """Wrap the send of every home-based engine built from now on, so
    each OBJ_REPLY is checked against the home payload as it leaves."""
    log = ReplyLog()
    bind_sender = SyncManager._bind_sender

    def bind(engine, sender):
        if not isinstance(engine, DsmEngine):
            bind_sender(engine, sender)
            return

        def send(dst, category, size_bytes, payload):
            if category is MsgCategory.OBJ_REPLY:
                if type(payload) is ObjBatchReply:
                    for oid, _version, data in payload.items:
                        log.served(engine, oid, data)
                elif type(payload) is ObjReply:
                    log.served(engine, payload.oid, payload.data)
            sender(dst, category, size_bytes, payload)

        bind_sender(engine, send)

    monkeypatch.setattr(SyncManager, "_bind_sender", bind)
    return log


@pytest.mark.parametrize("topology", (None, "hier:leaf=2:oversub=4"))
@pytest.mark.parametrize("flavor", ("core", "serving"))
def test_every_reply_image_is_the_home_payload_read_only(
    flavor, topology, backend, monkeypatch
):
    log = _log_replies(monkeypatch)
    if topology is not None:
        episodes_on(monkeypatch, topology)
    for seed in episode_seeds(0, 25):
        spec = packed(generate_program(seed, flavor=flavor))
        result = run_episode(spec=spec)
        assert result.ok, result.verdict()
    assert log.images > 0
    assert log.reused > 0  # the rule is exercised, not only the copy
    assert log.bad == []


def test_an_open_home_write_gets_a_fresh_image_per_reply(backend, monkeypatch):
    """Unsynchronized readers fault while the home thread writes twice in
    one interval: the snapshot taken before the first write is not
    reused after it, nor is the image of a reply between the writes."""
    log = _log_replies(monkeypatch)
    gos = make_gos(nnodes=4)
    obj = gos.alloc_array(4, home=0)
    seen = {}

    def writer():
        ctx = ThreadContext(gos, tid=0, node=0)
        for value in (1.0, 2.0):
            yield from ctx.compute(4_000.0)
            payload = yield from ctx.write(obj)
            payload[0] = value

    def reader(node, start_us):
        ctx = ThreadContext(gos, tid=node, node=node)
        yield from ctx.compute(start_us)
        payload = yield from ctx.read(obj)
        seen[node] = float(payload[0])

    run_threads(
        gos, writer(), reader(1, 0.0), reader(2, 6_000.0), reader(3, 10_000.0)
    )
    assert seen == {1: 0.0, 2: 1.0, 3: 2.0}
    assert gos.engines[0].homes[obj.oid].write_interval == 0  # one interval
    assert log.images == 3 and log.bad == []


def test_a_shipped_update_drops_the_snapshot(backend, monkeypatch):
    """A method shipped to the home bumps the version outside any home
    write interval: a reader that faults after it gets the new image,
    not the snapshot it was served before."""
    log = _log_replies(monkeypatch)
    gos = make_gos(nnodes=3)
    obj = gos.alloc_array(4, home=0)
    lock = gos.alloc_lock(home=0)
    seen = []

    def add_one(payload):
        payload[0] += 1.0

    def reader():
        ctx = ThreadContext(gos, tid=1, node=1)
        for start_us in (0.0, 6_000.0):
            yield from ctx.compute(start_us)
            yield from ctx.acquire(lock)
            payload = yield from ctx.read(obj)
            seen.append(float(payload[0]))
            yield from ctx.release(lock)

    def shipper():
        ctx = ThreadContext(gos, tid=2, node=2)
        yield from ctx.compute(3_000.0)
        yield from ctx.acquire(lock)
        yield from ctx.ship(obj, add_one)
        yield from ctx.release(lock)

    run_threads(gos, reader(), shipper())
    assert gos.stats.events["ship"] == 1
    assert seen == [0.0, 1.0]
    assert log.images == 2 and log.bad == []


def test_readers_share_one_snapshot_and_a_writer_twins_it(backend):
    """Eight reader nodes hold the same array, which the home keeps as
    the version's snapshot; a write fault makes that array the twin and
    writes a private copy; writing through a non-home read raises."""
    gos = make_gos(nnodes=9)
    obj = gos.alloc_array(8, home=0)
    gos.write_global(obj, np.arange(8.0))
    seen = {}

    def reader(node):
        ctx = ThreadContext(gos, tid=node, node=node)
        seen[node] = yield from ctx.read(obj)

    run_threads(gos, *(reader(node) for node in range(1, 9)))
    shared = seen[1]
    assert all(seen[node] is shared for node in range(1, 9))
    assert shared is gos.engines[0].homes[obj.oid].snapshot
    assert not shared.flags.writeable
    with pytest.raises(ValueError):
        shared[0] = 1.0

    def writer():
        ctx = ThreadContext(gos, tid=10, node=1)
        payload = yield from ctx.write(obj)
        payload[0] = 7.0
        seen["written"] = payload

    run_threads(gos, writer())
    cached = gos.engines[1].cache[obj.oid]
    assert cached.twin is shared
    assert cached.payload is seen["written"] and cached.payload is not shared
    assert cached.payload.flags.writeable
    assert shared[0] == 0.0 and cached.payload[0] == 7.0
    assert all(gos.engines[node].cache[obj.oid].payload is shared
               for node in range(2, 9))


def test_barrier_transfer_onto_a_clean_snapshot_adopts_the_image(backend):
    """A JiaJia barrier-ordered transfer reaching a node whose copy is a
    clean fetched snapshot installs a writable home holding the shipped
    image, and leaves the snapshot as it was."""
    gos = make_gos(nnodes=3)
    obj = gos.alloc_array(8, home=0)
    gos.write_global(obj, np.arange(8.0))
    engine = gos.engines[1]
    seen = {}

    def reader():
        ctx = ThreadContext(gos, tid=1, node=1)
        seen["read"] = yield from ctx.read(obj)

    run_threads(gos, reader())
    snapshot = seen["read"]
    assert engine.cache[obj.oid].payload is snapshot
    assert not snapshot.flags.writeable

    image = np.arange(8.0) * 10.0
    gos.write_global(obj, image)
    gos.engines[0]._execute_migrate_order(MigrateOrderMsg(obj.oid, 1))
    run_threads(gos)

    entry = engine.homes[obj.oid]
    assert obj.oid not in engine.cache
    assert entry.payload is not snapshot
    assert entry.payload.flags.writeable
    assert list(entry.payload) == list(image)
    assert list(snapshot) == list(np.arange(8.0))
    payload = engine.local_access.try_write(obj.oid)
    assert payload is entry.payload
    payload[0] = -1.0
    assert gos.read_global(obj)[0] == -1.0
