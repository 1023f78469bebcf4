"""A write notice never outruns its diff (PROTOCOL.md §12).

A notice is emitted only after the home acked that version, a home
version is monotone and travels with every hand-off, so every fault-in
sent after a notice arrived reaches a home at or above it.  Nodes
therefore keep no per-notice version floor and homes park no request
on a version.  A reply to a request sent *before* the notice arrived
may still predate it — under a topology a small grant can overtake a
large reply — so a fetch in flight across a co-located sync point is
checked against that point's notices and asks again when overtaken.

These tests check both halves: directed 3-node runs where the grant's
path is shorter than the diff's or the reply's, and a test-side shadow
of the retired floors over fuzzed conformance episodes (on the flat
switch and on oversubscribed topologies, with threads sharing nodes)
that every installed copy must meet.  The same episodes check that
every twinned copy is dirty before each step of every acquire and
barrier, which is what lets a sync point with nothing dirty drop the
cache with ``cache.clear()``, and that a cached copy holds a twin
exactly when its object is dirty after each one; directed runs pin
the other branch (a co-located thread writes while a sync point
waits, and its twinned copy survives the drop) and that a diff ack
never revives a copy a co-located acquire dropped.
"""

from __future__ import annotations

import pytest

from repro import _kernel
from repro.check.fuzz import episode_seeds, generate_program
from repro.check.runner import run_episode
from repro.cluster.hockney import FAST_ETHERNET
from repro.cluster.message import MsgCategory
from repro.cluster.topology import ClusterTopology
from repro.core.policies import NoMigration
from repro.dsm.protocol import DsmEngine
from repro.dsm.wire import ObjBatchReply, ObjReply
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext

from tests.conftest import episodes_on, packed, run_threads


class NoticeShadow:
    """The retired floors, kept test-side: per node, the highest version
    of each object announced by a lock grant or barrier release the node
    has received.  Every installed copy is checked against them; a reply
    that arrives below them is only counted (its fetch must ask again)."""

    def __init__(self) -> None:
        self.floors: dict[int, dict[int, int]] = {}
        self.violations: list[tuple[int, int, int, int]] = []
        self.checked = 0
        self.overtaken = 0

    def receive(self, node: int, notices: dict[int, int]) -> None:
        floors = self.floors.setdefault(node, {})
        for oid, version in notices.items():
            if version > floors.get(oid, 0):
                floors[oid] = version

    def floor(self, node: int, oid: int) -> int:
        return self.floors.get(node, {}).get(oid, 0)

    def arrived(self, node: int, oid: int, version: int) -> None:
        if version < self.floor(node, oid):
            self.overtaken += 1

    def installed(self, node: int, oid: int, version: int) -> None:
        self.checked += 1
        floor = self.floor(node, oid)
        if version < floor:
            self.violations.append((node, oid, version, floor))


def _install_shadow(monkeypatch) -> NoticeShadow:
    """Wrap the grant and release paths, the reply routes and the
    install points of every home-based engine built from now on."""
    shadow = NoticeShadow()
    # the run's shared table, taken before any handler is patched
    table = dict(DsmEngine._handler_table(_kernel.SEAMS.route_reply))
    on_barrier_release = DsmEngine._on_barrier_release
    engine_init = DsmEngine.__init__

    def barrier_release(engine, release):
        shadow.receive(engine.node_id, release.notices)
        on_barrier_release(engine, release)

    grant_route = table[MsgCategory.LOCK_GRANT]

    def on_grant(engine, grant):
        shadow.receive(engine.node_id, grant.notices)
        grant_route(engine, grant)

    table[MsgCategory.LOCK_GRANT] = on_grant
    table[MsgCategory.BARRIER_RELEASE] = barrier_release
    for category in (MsgCategory.OBJ_REPLY, MsgCategory.OBJ_REPLY_MIG):
        table[category] = _arrivals(table[category], shadow)

    def init(engine, *args, **kwargs):
        engine_init(engine, *args, **kwargs)
        node = engine.node_id
        lock_table = engine.lock_table
        table_acquire, table_release = lock_table.acquire, lock_table.release

        def acquire(lock_id, requester, request_id, notices):
            grant = table_acquire(lock_id, requester, request_id, notices)
            if grant is not None and requester == node:
                shadow.receive(node, grant)
            return grant

        def release(lock_id, releaser, notices):
            handed = table_release(lock_id, releaser, notices)
            if handed is not None and handed[0][0] == node:
                shadow.receive(node, handed[1])
            return handed

        lock_table.acquire, lock_table.release = acquire, release

    monkeypatch.setattr(
        DsmEngine, "_handler_table", classmethod(lambda cls, route_reply: table)
    )
    monkeypatch.setattr(DsmEngine, "_on_barrier_release", barrier_release)
    monkeypatch.setattr(DsmEngine, "__init__", init)
    _wrap_installs(monkeypatch, shadow)
    return shadow


def _arrivals(route, shadow: NoticeShadow):
    def deliver(engine, reply):
        node = engine.node_id
        if type(reply) is ObjReply:
            shadow.arrived(node, reply.oid, reply.version)
        elif type(reply) is ObjBatchReply:
            for oid, version, _data in reply.items:
                shadow.arrived(node, oid, version)
        route(engine, reply)

    return deliver


def _wrap_installs(monkeypatch, shadow: NoticeShadow) -> None:
    """Check every singular install, and every copy a batch leaves."""
    install_reply, read_many = DsmEngine._install_reply, DsmEngine.read_many

    def install(engine, oid, reply):
        shadow.installed(engine.node_id, oid, reply.version)
        return install_reply(engine, oid, reply)

    def batch(engine, oids):
        yield from read_many(engine, oids)
        for oid in oids:
            cached = engine.cache.get(oid)
            if cached is not None:
                if oid not in engine.homes:
                    shadow.installed(engine.node_id, oid, cached.version)

    monkeypatch.setattr(DsmEngine, "_install_reply", install)
    monkeypatch.setattr(DsmEngine, "read_many", batch)


def _twinned(engine) -> set[int]:
    return {
        oid for oid, cached in engine.cache.items() if cached.twin is not None
    }


def _twins_track_dirty(monkeypatch) -> list:
    """Before every step of a lock acquire or a barrier, and so before
    its drop of the cached copies, every copy holding a twin must have
    its oid in ``dirty``: with ``dirty`` empty the drop clears the whole
    cache, which is sound only then.  After the last step the twinned
    copies must be exactly ``dirty``: the flush diffs only ``dirty``,
    and the drop spares only copies with a twin.  Returns the checks,
    ``(node, oids breaking them)``."""
    checks = []

    def checked(method):
        def run(engine, *args):
            steps = method(engine, *args)
            step, value = steps.send, None
            while True:
                checks.append(
                    (engine.node_id, sorted(_twinned(engine) - engine.dirty))
                )
                try:
                    effect = step(value)
                except StopIteration:
                    break
                try:  # a failed future is thrown in, as into the method
                    step, value = steps.send, (yield effect)
                except Exception as error:
                    step, value = steps.throw, error
            checks.append(
                (engine.node_id, sorted(_twinned(engine) ^ engine.dirty))
            )

        return run

    for name in ("acquire", "barrier"):
        monkeypatch.setattr(
            DsmEngine, name, checked(getattr(DsmEngine, name))
        )
    return checks


def _slow_node_zero(hop_us: float) -> ClusterTopology:
    """Three nodes: 1 and 2 share a switch, node 0 sits behind another,
    so every message to or from node 0 pays ``hop_us`` more."""
    topology = ClusterTopology(3)
    topology.set_tiers([[1, 0, 0]], [(0.0, 0.0), (hop_us, 0.0)], nlinks=2)
    return topology


def test_grant_on_a_short_path_never_outruns_the_diff(backend, monkeypatch):
    """Writer on node 1, object homed on node 0, lock homed on node 2.
    The release reaches the lock's home long before a diff could cross
    to node 0, yet the reader's first fault after its acquire is served
    at or above the grant's notice and sees the write."""
    shadow = _install_shadow(monkeypatch)
    topology = _slow_node_zero(hop_us=2_000.0)
    assert topology.pair(1, 0)[0] > topology.pair(1, 2)[0]
    gos = GlobalObjectSpace(
        nnodes=3, comm_model=FAST_ETHERNET, policy=NoMigration(),
        topology=topology,
    )
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=2)
    seen = []

    def writer():
        ctx = ThreadContext(gos, tid=1, node=1)
        yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        payload[0] = 7.0
        yield from ctx.release(lock)

    def reader():
        ctx = ThreadContext(gos, tid=2, node=2)
        before = yield from ctx.read(obj)  # a cached copy at version 0
        seen.append(float(before[0]))
        yield from ctx.compute(100.0)  # the writer holds the lock by now
        yield from ctx.acquire(lock)
        installs_before = shadow.checked
        payload = yield from ctx.read(obj)
        seen.append(float(payload[0]))
        seen.append(shadow.checked - installs_before)
        yield from ctx.release(lock)

    run_threads(gos, writer(), reader())

    assert shadow.floor(2, obj.oid) == 1  # the grant announced version 1
    assert seen == [0.0, 7.0, 1]  # one fault after the acquire, fresh
    assert shadow.violations == []
    assert gos.stats.events.get("deferred_request", 0) == 0


def test_ack_never_revives_a_copy_a_co_located_acquire_dropped(backend):
    """Threads A and B share node 1; the object is homed on the far
    node 0.  A's release waits for its diff ack while B acquires a lock
    homed nearby, which drops A's copy.  The ack then finds no copy to
    update: B's next read is a remote read, not a revived local hit."""
    topology = _slow_node_zero(hop_us=2_000.0)
    gos = GlobalObjectSpace(
        nnodes=3, comm_model=FAST_ETHERNET, policy=NoMigration(),
        topology=topology,
    )
    obj = gos.alloc_fields(("v",), home=0)
    own_lock = gos.alloc_lock(home=1)
    near_lock = gos.alloc_lock(home=2)
    engine = gos.engines[1]
    times = {}

    def writer():
        ctx = ThreadContext(gos, tid=1, node=1)
        yield from ctx.acquire(own_lock)
        payload = yield from ctx.write(obj)
        payload[0] = 7.0
        times["flush"] = ctx.now
        yield from ctx.release(own_lock)  # blocks on the far ack
        times["acked"] = ctx.now

    def acquirer():
        ctx = ThreadContext(gos, tid=2, node=1)
        yield from ctx.compute(5_000.0)  # A faulted in and is flushing
        yield from ctx.acquire(near_lock)
        times["acquired"] = ctx.now
        yield from ctx.compute(20_000.0)  # A's ack lands meanwhile
        times["cached"] = obj.oid in engine.cache
        reads = gos.stats.events.get("remote_read", 0)
        payload = yield from ctx.read(obj)
        times["remote_reads"] = gos.stats.events.get("remote_read", 0) - reads
        times["seen"] = float(payload[0])
        yield from ctx.release(near_lock)

    run_threads(gos, writer(), acquirer())

    # B's acquire fell inside A's ack window, and the ack landed before B read
    assert times["flush"] < times["acquired"] < times["acked"]
    assert times["acked"] < 5_000.0 + 20_000.0
    assert times["cached"] is False
    assert times["remote_reads"] == 1
    assert times["seen"] == 7.0


#: A 64 KB object crossing a 4:1 uplink pays about 15 ms of transfer
#: penalty; a small grant or release pays almost none, so it overtakes.
_LARGE = 8192


def _overtaking_run(monkeypatch, sync: str, batched: bool, discipline="fifo"):
    """Home 0 and writer 1 share a leaf; the reader node 2 runs two
    threads.  Thread A's request reaches the home just before the
    writer's diff, so the large reply carries version 0; the writer's
    release and the small cross-leaf grant (or barrier release) reach
    thread B about 15 ms before that reply does.  Returns the shadow,
    the space, the object and what A and B read."""
    shadow = _install_shadow(monkeypatch)
    gos = GlobalObjectSpace(
        nnodes=3, comm_model=FAST_ETHERNET, policy=NoMigration(),
        topology="hier:leaf=2:oversub=4", lock_discipline=discipline,
    )
    obj = gos.alloc_array(_LARGE, home=0)
    lock = gos.alloc_lock(home=0)
    barrier = gos.alloc_barrier(2, home=0)  # the writer and thread B
    seen = {}

    def writer():
        ctx = ThreadContext(gos, tid=1, node=1)
        if sync == "lock":
            yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        yield from ctx.compute(100_000.0 - ctx.now)
        payload[0] = 7.0
        if sync == "lock":
            yield from ctx.release(lock)
        else:
            yield from ctx.barrier(barrier)

    def fetcher():
        ctx = ThreadContext(gos, tid=2, node=2)
        yield from ctx.compute(97_000.0)  # the home serves before the diff
        if batched:
            yield from ctx.read_many([obj])
        payload = yield from ctx.read(obj)
        seen["a"] = float(payload[0])

    def waiter():
        ctx = ThreadContext(gos, tid=3, node=2)
        yield from ctx.compute(50_000.0)
        if sync == "lock":
            yield from ctx.acquire(lock)  # queued behind the writer
        else:
            yield from ctx.barrier(barrier)
        seen["synced"] = ctx.now
        if batched:
            yield from ctx.compute(20_000.0)  # A's batch lands meanwhile
        payload = yield from ctx.read(obj)  # or joins A's fetch
        seen["b"] = float(payload[0])
        if sync == "lock":
            yield from ctx.release(lock)

    run_threads(gos, writer(), fetcher(), waiter())
    assert seen["synced"] < 115_000.0  # before A's reply could land
    return shadow, gos, obj, seen


@pytest.mark.parametrize("batched", (False, True), ids=("fault", "batch"))
@pytest.mark.parametrize(
    "sync, discipline",
    (("lock", "fifo"), ("lock", "retry"), ("barrier", "fifo")),
    ids=("lock-fifo", "lock-retry", "barrier"),
)
def test_sync_overtaking_an_in_flight_reply_refetches(
    backend, monkeypatch, sync, discipline, batched
):
    """B's read after its acquire or barrier — joining A's fetch, or
    after A's batch landed — sees the write, and so does A."""
    shadow, gos, obj, seen = _overtaking_run(
        monkeypatch, sync, batched, discipline
    )
    assert shadow.overtaken >= 1  # the race did happen
    assert shadow.violations == []
    assert (seen["a"], seen["b"]) == (7.0, 7.0)
    assert gos.read_global(obj)[0] == 7.0


def test_ship_overtaking_an_in_flight_reply_refetches(backend, monkeypatch):
    """A thread that shipped an update reads it back, although a
    co-located fetch of the object sent before the ship lands later."""
    shadow = _install_shadow(monkeypatch)
    gos = GlobalObjectSpace(
        nnodes=3, comm_model=FAST_ETHERNET, policy=NoMigration(),
        topology="hier:leaf=2:oversub=4",
    )
    obj = gos.alloc_array(_LARGE, home=0)
    lock = gos.alloc_lock(home=2)
    seen = {}

    def fetcher():
        ctx = ThreadContext(gos, tid=1, node=2)
        yield from ctx.compute(95_000.0)
        payload = yield from ctx.read(obj)
        seen["a"] = float(payload[0])

    def set_seven(payload):
        payload[0] = 7.0

    def shipper():
        ctx = ThreadContext(gos, tid=2, node=2)
        yield from ctx.compute(100_000.0)
        yield from ctx.acquire(lock)
        yield from ctx.ship(obj, set_seven)
        yield from ctx.compute(20_000.0)  # the fetch lands meanwhile
        payload = yield from ctx.read(obj)
        seen["b"] = float(payload[0])
        yield from ctx.release(lock)

    run_threads(gos, fetcher(), shipper())

    assert (seen["a"], seen["b"]) == (7.0, 7.0)
    assert shadow.violations == []


@pytest.mark.parametrize(
    "topology", (None, "hier:leaf=2:oversub=4", "fat-tree:edge=2:pod=2:oversub=2")
)
@pytest.mark.parametrize("flavor", ("core", "serving"))
def test_every_installed_copy_meets_the_shadow_floors(
    flavor, topology, backend, monkeypatch
):
    shadow = _install_shadow(monkeypatch)
    checks = _twins_track_dirty(monkeypatch)
    if topology is not None:
        episodes_on(monkeypatch, topology)
    for seed in episode_seeds(0, 25):
        shadow.floors.clear()  # node and object ids restart every episode
        spec = generate_program(seed, flavor=flavor)
        if topology is not None:
            spec = packed(spec)
        result = run_episode(spec=spec)
        assert result.ok, result.verdict()
    assert shadow.checked > 0
    assert shadow.floors
    assert shadow.violations == []
    assert checks
    assert [check for check in checks if check[1]] == []


def _co_located_writer_run(sync: str):
    """Node 1 runs two threads.  B holds a clean copy of ``clean`` and
    then blocks in an acquire (the lock is held on node 2 until 5 ms) or
    a barrier (node 2's party arrives at 5 ms); meanwhile A write-faults
    ``dirty``, so B's drop runs with ``dirty`` non-empty.  Returns the
    space, both objects and what B saw right after its sync point."""
    gos = GlobalObjectSpace(
        nnodes=3, comm_model=FAST_ETHERNET, policy=NoMigration()
    )
    clean = gos.alloc_array(4, home=0)
    dirty = gos.alloc_array(4, home=0)
    lock = gos.alloc_lock(home=2)
    barrier = gos.alloc_barrier(parties=2, home=2)
    engine = gos.engines[1]
    seen = {}

    def holder():
        ctx = ThreadContext(gos, tid=0, node=2)
        if sync == "acquire":
            yield from ctx.acquire(lock)
        yield from ctx.compute(5_000.0)
        if sync == "acquire":
            yield from ctx.release(lock)
        else:
            yield from ctx.barrier(barrier)

    def writer():
        ctx = ThreadContext(gos, tid=1, node=1)
        yield from ctx.compute(2_000.0)  # B is blocked by now
        payload = yield from ctx.write(dirty)
        payload[0] = 7.0
        seen["written"] = ctx.now

    def syncer():
        ctx = ThreadContext(gos, tid=2, node=1)
        yield from ctx.read(clean)
        if sync == "acquire":
            yield from ctx.acquire(lock)
        else:
            yield from ctx.barrier(barrier)
        seen["synced"] = ctx.now
        seen["cache"] = {
            oid: cached.twin is not None
            for oid, cached in engine.cache.items()
        }
        seen["dirty"] = set(engine.dirty)
        if sync == "acquire":
            yield from ctx.release(lock)

    run_threads(gos, holder(), writer(), syncer())
    return gos, clean, dirty, seen


@pytest.mark.parametrize("sync", ("acquire", "barrier"))
def test_a_drop_with_dirty_non_empty_spares_only_the_twinned_copy(
    backend, sync
):
    gos, clean, dirty, seen = _co_located_writer_run(sync)
    assert seen["written"] < seen["synced"]
    assert seen["dirty"] == {dirty.oid}
    assert seen["cache"] == {dirty.oid: True}  # the clean copy went
