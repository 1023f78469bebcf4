"""Integration tests of home migration: policies, forwarding, feedback."""

import numpy as np
import pytest

from repro.cluster.message import MsgCategory
from repro.core.policies import (
    AdaptiveThreshold,
    FixedThreshold,
    LazyFlushing,
    MigratingHome,
    BarrierMigration,
)
from repro.cluster.hockney import FAST_ETHERNET
from repro.dsm.redirection import (
    BroadcastMechanism,
    HomeManagerMechanism,
)
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext
from repro.trace.recorder import TraceRecorder

from tests.conftest import make_gos, run_threads


def single_writer_turns(gos, obj, lock, node, turns):
    """One thread performing `turns` synchronized updates from `node`."""
    ctx = ThreadContext(gos, tid=node, node=node)
    for i in range(turns):
        yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        payload[0] += 1.0
        yield from ctx.release(lock)


def test_ft1_migrates_on_second_fault():
    gos = make_gos(nnodes=4, policy=FixedThreshold(1))
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)
    run_threads(gos, single_writer_turns(gos, obj, lock, node=2, turns=4))
    # the home moved to the writer
    assert obj.oid in gos.engines[2].homes
    assert obj.oid not in gos.engines[0].homes
    assert gos.engines[0].forwards[obj.oid] == 2
    assert gos.stats.events["migration"] == 1
    # later turns were free home writes
    state = gos.engines[2].homes[obj.oid].state
    assert state.home_writes >= 2
    assert gos.engines[0].homes == {}


def test_no_migration_policy_never_moves_home():
    gos = make_gos(nnodes=4)  # NoMigration default
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)
    run_threads(gos, single_writer_turns(gos, obj, lock, node=2, turns=6))
    assert obj.oid in gos.engines[0].homes
    assert gos.stats.events["migration"] == 0


def test_migration_preserves_data():
    gos = make_gos(nnodes=4, policy=FixedThreshold(1))
    obj = gos.alloc_array(16, home=0)
    gos.write_global(obj, np.arange(16.0))
    lock = gos.alloc_lock(home=0)

    def writer():
        ctx = ThreadContext(gos, tid=0, node=3)
        for i in range(3):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[i] = 100.0 + i
            yield from ctx.release(lock)

    run_threads(gos, writer())
    final = gos.read_global(obj)
    expected = np.arange(16.0)
    expected[:3] = [100.0, 101.0, 102.0]
    assert np.array_equal(final, expected)


def test_forwarding_pointer_redirects_and_counts_hops():
    gos = make_gos(nnodes=5, policy=FixedThreshold(1))
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)
    # writer on node 2 attracts the home; then node 3 reads via node 0
    run_threads(gos, single_writer_turns(gos, obj, lock, node=2, turns=3))

    def reader():
        ctx = ThreadContext(gos, tid=9, node=3)
        payload = yield from ctx.read(obj)
        assert payload[0] == 3.0

    run_threads(gos, reader())
    assert gos.stats.events["redir"] == 1
    assert gos.stats.msg_count[MsgCategory.REDIRECT] == 1
    # the hop count reached the current home's feedback counter
    assert gos.engines[2].homes[obj.oid].state.redirections == 1


def test_redirection_chain_accumulates():
    """Home migrates 0->1->2->3; a reader with a stale hint pays 3 hops."""
    gos = make_gos(nnodes=5, policy=FixedThreshold(1))
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)

    def reader_then_wait(results):
        ctx = ThreadContext(gos, tid=8, node=4)
        payload = yield from ctx.read(obj)
        results.append(float(payload[0]))

    # walk the home along nodes 1, 2, 3
    for node in (1, 2, 3):
        run_threads(gos, single_writer_turns(gos, obj, lock, node=node, turns=3))
    results = []
    run_threads(gos, reader_then_wait(results))
    assert results == [9.0]
    # reader's request went 0 -> 1 -> 2 -> 3: three redirections
    assert gos.engines[3].homes[obj.oid].state.redirections == 3


def test_monitor_state_travels_with_home():
    gos = make_gos(nnodes=4, policy=FixedThreshold(1))
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)
    run_threads(gos, single_writer_turns(gos, obj, lock, node=1, turns=2))
    state = gos.engines[1].homes[obj.oid].state
    assert state.migrations == 1
    run_threads(gos, single_writer_turns(gos, obj, lock, node=2, turns=3))
    state2 = gos.engines[2].homes[obj.oid].state
    assert state2 is state  # the very same monitor object
    assert state2.migrations == 2


def test_adaptive_threshold_rises_with_redirections():
    gos = make_gos(nnodes=6, policy=AdaptiveThreshold())
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)
    # short two-update bursts rotating through the nodes: transient
    # single-writer patterns; with T=1 the first migrations fire, their
    # redirections then push the threshold up and inhibit later ones
    for turn in range(12):
        node = 1 + (turn % 5)
        run_threads(gos, single_writer_turns(gos, obj, lock, node=node, turns=2))
    migrations = gos.stats.events["migration"]
    assert 1 <= migrations <= 3  # fired, then the feedback inhibited it
    # negative feedback was observed and the live threshold sits above
    # the number of consecutive writes a 2-burst can accumulate
    assert gos.stats.events["redir"] >= 1
    current_home = gos.current_home(obj)
    state = gos.engines[current_home].homes[obj.oid].state
    policy = gos.policy
    live_threshold = policy.current_threshold(state, state.alpha)
    assert live_threshold > 1.0


def test_broadcast_mechanism_informs_other_nodes():
    gos = make_gos(
        nnodes=5, policy=FixedThreshold(1), mechanism=BroadcastMechanism()
    )
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)
    run_threads(gos, single_writer_turns(gos, obj, lock, node=2, turns=3))
    assert gos.stats.msg_count[MsgCategory.HOME_BCAST] == 3  # nodes 1,3,4

    def reader():
        ctx = ThreadContext(gos, tid=9, node=4)
        yield from ctx.read(obj)

    run_threads(gos, reader())
    # reader knew the new home: no redirection
    assert gos.stats.events.get("redir", 0) == 0


def test_home_manager_mechanism_resolves_via_manager():
    gos = make_gos(
        nnodes=5,
        policy=FixedThreshold(1),
        mechanism=HomeManagerMechanism(manager_node=0),
    )
    obj = gos.alloc_fields(("v",), home=1)
    lock = gos.alloc_lock(home=0)
    run_threads(gos, single_writer_turns(gos, obj, lock, node=2, turns=3))
    assert gos.stats.msg_count[MsgCategory.HOME_UPDATE] == 1

    def reader():
        ctx = ThreadContext(gos, tid=9, node=4)
        payload = yield from ctx.read(obj)
        assert payload[0] == 3.0

    run_threads(gos, reader())
    assert gos.stats.msg_count[MsgCategory.HOME_QUERY] == 1
    assert gos.stats.msg_count[MsgCategory.HOME_ANSWER] == 1


def test_jump_policy_homes_follow_every_writer():
    gos = make_gos(nnodes=4, policy=MigratingHome())
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)
    for node in (1, 2, 3, 1, 2, 3):
        run_threads(gos, single_writer_turns(gos, obj, lock, node=node, turns=1))
    # every write fault migrated the home (sequential-writer pathology)
    assert gos.stats.events["migration"] >= 5
    assert gos.read_global(obj)[0] == 6.0


def test_lazy_flushing_respects_transition_cap():
    gos = make_gos(nnodes=4, policy=LazyFlushing(max_transitions=2))
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)
    for node in (1, 2, 3, 1, 2, 3):
        run_threads(gos, single_writer_turns(gos, obj, lock, node=node, turns=1))
    assert gos.stats.events["migration"] == 2
    assert gos.read_global(obj)[0] == 6.0


def test_barrier_migration_moves_single_writer_objects_at_barrier():
    gos = make_gos(nnodes=3, policy=BarrierMigration())
    obj_a = gos.alloc_array(8, home=0)
    obj_b = gos.alloc_array(8, home=0)
    barrier = gos.alloc_barrier(parties=2, home=0)

    def writer(node, obj, value, reads_other):
        ctx = ThreadContext(gos, tid=node, node=node)
        for phase in range(3):
            payload = yield from ctx.write(obj)
            payload[phase] = value
            yield from ctx.barrier(barrier)
            other = yield from ctx.read(reads_other)
            assert other[phase] == 3.0 - value

    run_threads(
        gos,
        writer(1, obj_a, 1.0, obj_b),
        writer(2, obj_b, 2.0, obj_a),
    )
    # both single-writer objects migrated to their writers at a barrier
    assert gos.current_home(obj_a) == 1
    assert gos.current_home(obj_b) == 2
    assert gos.stats.events["migration"] == 2
    # and no redirection was paid (locations piggybacked on releases)
    assert gos.stats.events.get("redir", 0) == 0


def test_multiwriter_object_never_migrates_under_at():
    gos = make_gos(nnodes=4, policy=AdaptiveThreshold())
    obj = gos.alloc_array(8, home=0)
    barrier = gos.alloc_barrier(parties=2, home=0)

    def writer(node, index):
        ctx = ThreadContext(gos, tid=node, node=node)
        for phase in range(5):
            payload = yield from ctx.write(obj)
            payload[index] += 1.0
            yield from ctx.barrier(barrier)

    run_threads(gos, writer(1, 1), writer(2, 2))
    # Interleaved writers never build a chain longer than 1, so at most
    # the initial T=1 migration fires; afterwards the home stays with one
    # of the writers (the paper's point: in the multiple-writer case it
    # does not matter which writer is the home, §3.1) and the home never
    # thrashes between them.
    assert gos.stats.events["migration"] <= 1
    assert gos.current_home(obj) in (0, 1, 2)
    final = gos.read_global(obj)
    assert final[1] == 5.0 and final[2] == 5.0


def _add_one(payload):
    payload[0] += 1.0


#: trigger -> (policy, expected home_install origin at the new home)
HAND_OFF_TRIGGERS = {
    "fault": (lambda: FixedThreshold(1), "reply-mig"),
    "ship": (lambda: FixedThreshold(1), "reply-mig"),
    "barrier": (BarrierMigration, "transfer"),
}


@pytest.mark.parametrize("trigger", sorted(HAND_OFF_TRIGGERS))
def test_one_hand_off_for_every_trigger(trigger, backend):
    """A served fault (FT1), consecutive ships and a barrier order
    (JiaJia) all move the home 0 -> 1 through the same handshake."""
    make_policy, origin = HAND_OFF_TRIGGERS[trigger]
    tracer = TraceRecorder(
        kinds=("migration", "home_install", "span_open", "span_close")
    )
    gos = GlobalObjectSpace(
        nnodes=3, comm_model=FAST_ETHERNET, policy=make_policy(), tracer=tracer
    )
    obj = gos.alloc_fields(("v",), home=0)
    old, new = gos.engines[0], gos.engines[1]
    monitor = old.homes[obj.oid].state

    # Node 2 faults only once both updates are done, through its stale
    # hint: the request reaches the old home and must chase the home to
    # the new one.
    seen = []

    def stale_hint_reader():
        ctx = ThreadContext(gos, tid=2, node=2)
        yield from ctx.compute(1_000_000.0)
        assert gos.engines[2].home_hint.get(obj.oid) is None
        payload = yield from ctx.read(obj)
        seen.append(float(payload[0]))

    def trigger_body():
        ctx = ThreadContext(gos, tid=1, node=1)
        lock = gos.alloc_lock(home=0)
        if trigger == "fault":
            for _ in range(2):
                yield from ctx.acquire(lock)
                payload = yield from ctx.write(obj)
                payload[0] += 1.0
                yield from ctx.release(lock)
        elif trigger == "ship":
            yield from ctx.acquire(lock)
            for _ in range(2):
                yield from ctx.ship(obj, _add_one)
            yield from ctx.release(lock)
        else:
            barrier = gos.alloc_barrier(parties=1, home=0)
            for _ in range(2):
                payload = yield from ctx.write(obj)
                payload[0] += 1.0
                yield from ctx.barrier(barrier)

    run_threads(gos, stale_hint_reader(), trigger_body())

    assert old.forwards[obj.oid] == 1 and obj.oid not in old.homes
    cached = old.cache.get(obj.oid)
    assert cached is not None
    assert new.homes[obj.oid].state is monitor
    assert gos.stats.events["mig"] == 1
    assert gos.stats.events["migration"] == 1
    assert len(tracer.of_kind("migration", obj.oid)) == 1
    installs = [
        e for e in tracer.of_kind("home_install", obj.oid)
        if e.detail["origin"] != "initial"
    ]
    assert [(e.node, e.detail["origin"]) for e in installs] == [(1, origin)]
    for kind in ("span_open", "span_close"):
        spans = [
            e for e in tracer.of_kind(kind, obj.oid)
            if e.detail["op_kind"] == "migration"
        ]
        assert len(spans) == 1, kind
    # the stale-hint request was redirected once and served at the new home
    events = gos.stats.events
    assert events["redir"] == 1
    assert monitor.redirections == 1
    assert seen == [2.0]
    assert gos.read_global(obj)[0] == 2.0


# -- LazyFlushing's copyset, end to end (3 nodes, object homed at node 0) ------


def _reader_turn(gos, obj, lock, node):
    """One synchronized read from `node` (a read fault at the home)."""
    ctx = ThreadContext(gos, tid=node, node=node)
    yield from ctx.acquire(lock)
    yield from ctx.read(obj)
    yield from ctx.release(lock)


def _lf_cluster():
    gos = make_gos(nnodes=3, policy=LazyFlushing())
    return gos, gos.alloc_fields(("v",), home=0), gos.alloc_lock(home=0)


def test_lazy_flushing_migrates_to_sole_reader_writer(backend):
    gos, obj, lock = _lf_cluster()
    run_threads(gos, _reader_turn(gos, obj, lock, node=1))
    assert gos.current_home(obj) == 0  # a read request never migrates
    # node 1 is the only node to have read: its write fault moves the home
    run_threads(gos, single_writer_turns(gos, obj, lock, node=1, turns=1))
    assert gos.current_home(obj) == 1
    assert gos.stats.events["migration"] == 1
    assert gos.read_global(obj)[0] == 1.0


def test_lazy_flushing_stays_once_a_second_node_read(backend):
    gos, obj, lock = _lf_cluster()
    run_threads(gos, _reader_turn(gos, obj, lock, node=2))
    run_threads(gos, _reader_turn(gos, obj, lock, node=1))
    run_threads(gos, single_writer_turns(gos, obj, lock, node=1, turns=2))
    assert gos.current_home(obj) == 0
    assert gos.stats.events["migration"] == 0
    assert gos.read_global(obj)[0] == 2.0


def test_lazy_flushing_copyset_resets_at_migration(backend):
    gos, obj, lock = _lf_cluster()
    run_threads(gos, single_writer_turns(gos, obj, lock, node=1, turns=1))
    assert gos.current_home(obj) == 1
    # node 1's read before the hand-off is forgotten: node 2 is now the
    # only reader since the last migration, so its write fault moves the
    # home again
    run_threads(gos, single_writer_turns(gos, obj, lock, node=2, turns=1))
    assert gos.current_home(obj) == 2
    assert gos.stats.events["migration"] == 2
    assert gos.read_global(obj)[0] == 2.0
