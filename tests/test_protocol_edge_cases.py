"""Targeted tests for rarely-taken protocol branches."""

import numpy as np
import pytest

from repro.cluster.message import MsgCategory
from repro.core.policies import FixedThreshold, NoMigration
from repro.dsm.protocol import DiffMsg, MigrateOrderMsg, ObjRequest
from repro.memory.diff import compute_diff
from repro.dsm.redirection import HomeManagerMechanism
from repro.gos.thread import ThreadContext
from repro.sim.future import Future

from tests.conftest import make_gos, run_threads


def test_diff_forwarded_along_migration_chain():
    """A writer whose home hint went stale mid-interval has its diff
    forwarded by the obsolete home (diff_forward, not redirection)."""
    gos = make_gos(nnodes=4, policy=FixedThreshold(1))
    obj = gos.alloc_array(8, home=0)
    lock_a = gos.alloc_lock(home=0)
    lock_b = gos.alloc_lock(home=0)
    order = []

    def slow_writer():
        # writes under lock_a, holding its dirty copy while the home moves
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.acquire(lock_a)
        payload = yield from ctx.write(obj)
        payload[1] = 1.0
        # park long enough for the other writer to trigger migration
        yield from ctx.compute(50_000.0)
        yield from ctx.release(lock_a)  # diff goes to the OLD home
        order.append("slow-released")

    def migrating_writer():
        ctx = ThreadContext(gos, tid=1, node=2)
        for _ in range(3):
            yield from ctx.acquire(lock_b)
            payload = yield from ctx.write(obj)
            payload[2] += 1.0
            yield from ctx.release(lock_b)
        order.append("migrator-done")

    run_threads(gos, slow_writer(), migrating_writer())
    assert gos.current_home(obj) == 2
    assert gos.stats.events.get("diff_forward", 0) >= 1
    # nothing was lost
    final = gos.read_global(obj)
    assert final[1] == 1.0 and final[2] == 3.0


def test_version_deferred_request_served_after_diff():
    """A request demanding a version the home has not reached yet parks
    in the home entry's pending list and is served when the diff lands."""
    gos = make_gos(nnodes=3, policy=NoMigration())
    obj = gos.alloc_array(4, home=0)
    engine = gos.engines[0]
    # fabricate a request from node 2 demanding version 1
    request = ObjRequest(
        oid=obj.oid,
        requester=2,
        request_id=(2, 999),
        min_version=1,
        hops=0,
        for_write=False,
    )
    waiter = Future(label="test-wait")
    gos.engines[2]._reply_waiters[(2, 999)] = waiter
    engine._handle_obj_request(request)
    assert gos.stats.events["deferred_request"] == 1
    assert engine.homes[obj.oid].pending

    # now a writer's diff bumps the home to version 1
    lock = gos.alloc_lock(home=0)

    def writer():
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        payload[0] = 5.0
        yield from ctx.release(lock)

    run_threads(gos, writer())
    assert not engine.homes[obj.oid].pending
    assert waiter.resolved
    reply = waiter.value
    assert reply.version == 1
    assert reply.data[0] == 5.0


def test_transfer_race_deferrals_served_in_fifo_order(backend):
    """Two requests and a diff reach the announced new home before its
    home transfer lands: all three park (``deferred_request`` via
    ``pending_foreign``, ``deferred_diff`` via ``_pending_diffs``) and
    are served in arrival order once the transfer installs."""
    gos = make_gos(nnodes=4, policy=NoMigration())
    obj = gos.alloc_array(4, home=0)
    gos.write_global(obj, np.arange(4.0))
    old_home, new_home = gos.engines[0], gos.engines[1]
    version = old_home.homes[obj.oid].version
    served = []
    serve_request, handle_diff = new_home._serve_request, new_home._handle_diff

    def record_request(entry, request):
        served.append(request.request_id)
        serve_request(entry, request)

    def record_diff(msg):
        served.append(msg.request_id)
        handle_diff(msg)

    new_home._serve_request = record_request
    new_home._handle_diff = record_diff

    replies = {}
    for request_id in ((2, 901), (3, 902)):
        replies[request_id] = Future(label="test-wait")
        gos.engines[request_id[0]]._reply_waiters[request_id] = replies[
            request_id
        ]
    replies[(3, 903)] = Future(label="test-ack")
    gos.engines[3]._reply_waiters[(3, 903)] = replies[(3, 903)]

    def request(request_id):
        return ObjRequest(
            oid=obj.oid,
            requester=request_id[0],
            request_id=request_id,
            min_version=version,
            hops=0,
            for_write=False,
        )

    written = np.arange(4.0)
    written[3] = 42.0
    diff = compute_diff(obj.oid, np.arange(4.0), written)
    new_home._handle_obj_request(request((2, 901)))
    handle_diff(DiffMsg(obj.oid, 3, (3, 903), diff))
    new_home._handle_obj_request(request((3, 902)))
    events = gos.stats.events
    assert events["deferred_request"] == 2
    assert events["deferred_diff"] == 1
    assert served == []
    assert obj.oid in new_home.pending_foreign

    old_home._execute_migrate_order(MigrateOrderMsg(obj.oid, 1))
    run_threads(gos)
    assert served == [(2, 901), (3, 902), (3, 903)]
    assert not new_home.pending_foreign and not new_home._pending_diffs
    for request_id in ((2, 901), (3, 902)):
        reply = replies[request_id].value
        assert reply.version == version
        assert list(reply.data) == [0.0, 1.0, 2.0, 3.0]
    assert replies[(3, 903)].value.version == version + 1
    assert gos.current_home(obj) == 1
    assert list(gos.read_global(obj)) == [0.0, 1.0, 2.0, 42.0]


def test_home_manager_mechanism_with_manager_as_old_home():
    """Migration away from the manager node updates the map locally
    (no HOME_UPDATE message)."""
    gos = make_gos(
        nnodes=4,
        policy=FixedThreshold(1),
        mechanism=HomeManagerMechanism(manager_node=0),
    )
    obj = gos.alloc_fields(("v",), home=0)  # homed AT the manager
    lock = gos.alloc_lock(home=0)

    def writer():
        ctx = ThreadContext(gos, tid=0, node=2)
        for _ in range(3):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[0] += 1.0
            yield from ctx.release(lock)

    run_threads(gos, writer())
    assert gos.current_home(obj) == 2
    assert gos.stats.msg_count.get(MsgCategory.HOME_UPDATE, 0) == 0
    assert gos.engines[0].manager_home_map[obj.oid] == 2


def test_batch_read_miss_falls_back_to_singular_path():
    """A batched request hitting an obsolete home returns the oid as
    missing; the requester then walks the forwarding chain."""
    gos = make_gos(nnodes=4, policy=FixedThreshold(1))
    obj = gos.alloc_array(8, home=0)
    other = gos.alloc_array(8, home=0)
    lock = gos.alloc_lock(home=0)

    def writer():
        ctx = ThreadContext(gos, tid=0, node=1)
        for i in range(3):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[i] = float(i + 1)
            yield from ctx.release(lock)

    run_threads(gos, writer())
    assert gos.current_home(obj) == 1

    def batch_reader():
        ctx = ThreadContext(gos, tid=1, node=3)
        # node 3 still believes node 0 homes both objects
        yield from ctx.read_many([obj, other])
        payload = yield from ctx.read(obj)
        assert payload[0] == 1.0

    run_threads(gos, batch_reader())
    # the miss was resolved through the chain
    assert gos.stats.events.get("redir", 0) >= 1


def test_write_to_object_that_migrates_to_us_mid_fault():
    """for_write fault-in whose reply carries the home: the write lands
    as a home write with no further messages."""
    gos = make_gos(nnodes=3, policy=FixedThreshold(1))
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)

    def writer():
        ctx = ThreadContext(gos, tid=0, node=1)
        for _ in range(4):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[0] += 1.0
            yield from ctx.release(lock)

    run_threads(gos, writer())
    entry = gos.engines[1].homes[obj.oid]
    assert entry.payload[0] == 4.0
    assert entry.state.home_writes >= 1


def test_read_of_own_former_home_follows_pointer():
    """A node that migrated a home away and then reads the object chases
    its own forwarding pointer."""
    gos = make_gos(nnodes=3, policy=FixedThreshold(1))
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)

    def writer():
        ctx = ThreadContext(gos, tid=0, node=1)
        for _ in range(3):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[0] += 1.0
            yield from ctx.release(lock)

    run_threads(gos, writer())

    def old_home_reader():
        ctx = ThreadContext(gos, tid=1, node=0)
        yield from ctx.acquire(lock)
        payload = yield from ctx.read(obj)
        assert payload[0] == 3.0
        yield from ctx.release(lock)

    run_threads(gos, old_home_reader())


def test_zero_length_interval_release_is_harmless():
    gos = make_gos(nnodes=2)
    lock = gos.alloc_lock(home=0)

    def body():
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.acquire(lock)
        yield from ctx.release(lock)  # nothing written

    run_threads(gos, body())
    assert gos.stats.msg_count.get(MsgCategory.DIFF, 0) == 0


def test_two_threads_on_one_node_share_the_cache():
    """Co-located threads hit the same node cache: the second reader of
    an interval pays nothing."""
    gos = make_gos(nnodes=2, policy=NoMigration())
    obj = gos.alloc_array(8, home=0)
    gos.write_global(obj, np.arange(8.0))
    hits = []

    def reader(tid):
        ctx = ThreadContext(gos, tid=tid, node=1)
        payload = yield from ctx.read(obj)
        hits.append(payload[3])

    run_threads(gos, reader(0), reader(1))
    assert hits == [3.0, 3.0]
    assert gos.stats.msg_count[MsgCategory.OBJ_REQUEST] == 1
