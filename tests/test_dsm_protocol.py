"""Integration tests of the HLRC protocol engine (no migration policy)."""

import numpy as np
import pytest

from repro.cluster.message import MsgCategory
from repro.gos.thread import ThreadContext

from tests.conftest import make_gos, run_threads


def test_home_access_is_free_and_trapped(gos):
    obj = gos.alloc_array(8, home=0)
    lock = gos.alloc_lock(home=1)
    ctx = ThreadContext(gos, tid=0, node=0)

    def body():
        yield from ctx.acquire(lock)
        payload = yield from ctx.read(obj)
        assert payload.shape == (8,)
        payload = yield from ctx.write(obj)
        payload[0] = 1.0
        yield from ctx.release(lock)

    run_threads(gos, body())
    # no object traffic: the accessor is the home
    assert gos.stats.msg_count[MsgCategory.OBJ_REQUEST] == 0
    assert gos.stats.msg_count[MsgCategory.DIFF] == 0
    # but the monitor trapped the home write
    state = gos.engines[0].homes[obj.oid].state
    assert state.home_writes == 1


def test_remote_read_faults_once_per_interval(gos):
    obj = gos.alloc_array(8, home=0)
    gos.write_global(obj, np.arange(8.0))
    ctx = ThreadContext(gos, tid=0, node=2)
    seen = []

    def body():
        first = yield from ctx.read(obj)
        seen.append(first.copy())
        again = yield from ctx.read(obj)
        assert again is first  # cache hit returns the same payload

    run_threads(gos, body())
    assert np.array_equal(seen[0], np.arange(8.0))
    assert gos.stats.msg_count[MsgCategory.OBJ_REQUEST] == 1
    assert gos.stats.events["obj"] == 1
    assert gos.engines[0].homes[obj.oid].state.remote_reads == 1


def test_write_flush_applies_diff_at_home(gos):
    obj = gos.alloc_array(64, home=0)
    lock = gos.alloc_lock(home=0)
    ctx = ThreadContext(gos, tid=0, node=3)

    def body():
        yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        payload[2] = 42.0
        payload[5] = -1.0
        yield from ctx.release(lock)

    run_threads(gos, body())
    home = gos.engines[0].homes[obj.oid]
    assert home.payload[2] == 42.0
    assert home.payload[5] == -1.0
    assert home.version == 1
    assert home.state.remote_writes == 1
    assert gos.stats.events["diff"] == 1
    # diff carried only the two changed elements (RLE-sized)
    diff_bytes = gos.stats.msg_bytes[MsgCategory.DIFF]
    assert diff_bytes < obj.size_bytes


def test_clean_release_sends_no_diff(gos):
    obj = gos.alloc_array(8, home=0)
    lock = gos.alloc_lock(home=0)
    ctx = ThreadContext(gos, tid=0, node=1)

    def body():
        yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        payload[0] = payload[0]  # no actual change
        yield from ctx.release(lock)

    run_threads(gos, body())
    assert gos.stats.msg_count[MsgCategory.DIFF] == 0


def test_acquire_invalidates_cached_copies(gos):
    """Java consistency: every synchronization re-faults cached objects."""
    obj = gos.alloc_array(8, home=0)
    lock = gos.alloc_lock(home=0)
    ctx = ThreadContext(gos, tid=0, node=1)

    def body():
        yield from ctx.read(obj)
        yield from ctx.acquire(lock)
        yield from ctx.read(obj)  # must re-fault
        yield from ctx.release(lock)

    run_threads(gos, body())
    assert gos.stats.msg_count[MsgCategory.OBJ_REQUEST] == 2


def test_lock_passes_updates_between_writers(gos):
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)
    results = []

    def incrementer(node, times):
        ctx = ThreadContext(gos, tid=node, node=node)
        for _ in range(times):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[0] += 1
            yield from ctx.release(lock)
        results.append(node)

    run_threads(gos, incrementer(1, 10), incrementer(2, 10), incrementer(3, 10))
    final = gos.engines[0].homes[obj.oid].payload[0]
    assert final == 30.0


def test_multiple_writers_disjoint_elements_merge(gos):
    """TreadMarks-style multiple-writer: concurrent diffs merge at home."""
    obj = gos.alloc_array(8, home=0)
    barrier = gos.alloc_barrier(parties=2, home=0)

    def writer(node, index):
        ctx = ThreadContext(gos, tid=node, node=node)
        payload = yield from ctx.write(obj)
        payload[index] = float(node)
        yield from ctx.barrier(barrier)
        merged = yield from ctx.read(obj)
        assert merged[1] == 1.0
        assert merged[2] == 2.0

    run_threads(gos, writer(1, 1), writer(2, 2))
    home = gos.engines[0].homes[obj.oid]
    assert home.payload[1] == 1.0 and home.payload[2] == 2.0
    assert home.version == 2


def test_barrier_separates_phases(gos):
    obj = gos.alloc_array(4, home=0)
    barrier = gos.alloc_barrier(parties=2, home=0)
    observed = []

    def producer():
        ctx = ThreadContext(gos, tid=0, node=1)
        payload = yield from ctx.write(obj)
        payload[0] = 7.0
        yield from ctx.barrier(barrier)

    def consumer():
        ctx = ThreadContext(gos, tid=1, node=2)
        yield from ctx.barrier(barrier)
        payload = yield from ctx.read(obj)
        observed.append(payload[0])

    run_threads(gos, producer(), consumer())
    assert observed == [7.0]


def test_barrier_multiple_rounds(gos):
    obj = gos.alloc_fields(("v",), home=0)
    barrier = gos.alloc_barrier(parties=2, home=0)
    rounds = 5
    trace = []

    def body(tid, node):
        ctx = ThreadContext(gos, tid=tid, node=node)
        for phase in range(rounds):
            if phase % 2 == tid:
                payload = yield from ctx.write(obj)
                payload[0] = phase * 10 + tid
            yield from ctx.barrier(barrier)
            payload = yield from ctx.read(obj)
            trace.append((tid, phase, float(payload[0])))

    run_threads(gos, body(0, 1), body(1, 2))
    # both threads observe the same value after each barrier
    for phase in range(rounds):
        values = {v for t, p, v in trace if p == phase}
        assert len(values) == 1
        assert values == {phase * 10 + (phase % 2)}


def test_read_many_batches_by_home(gos):
    objs = [gos.alloc_array(8, home=i % 4, label=f"o{i}") for i in range(8)]
    for i, obj in enumerate(objs):
        gos.write_global(obj, np.full(8, float(i)))
    ctx = ThreadContext(gos, tid=0, node=0)

    def body():
        yield from ctx.read_many(objs)
        for i, obj in enumerate(objs):
            payload = yield from ctx.read(obj)
            assert payload[0] == float(i)

    run_threads(gos, body())
    # homes 1, 2, 3 each get exactly one batched request (home 0 is local)
    assert gos.stats.msg_count[MsgCategory.OBJ_REQUEST] == 3
    assert gos.stats.events["obj"] == 6  # six remote objects served


def test_read_many_with_all_local_is_free(gos):
    objs = [gos.alloc_array(4, home=0) for _ in range(3)]
    ctx = ThreadContext(gos, tid=0, node=0)

    def body():
        yield from ctx.read_many(objs)

    run_threads(gos, body())
    assert gos.stats.total_messages() == 0


def test_home_write_version_visible_after_lock(gos):
    obj = gos.alloc_fields(("v",), home=1)
    lock = gos.alloc_lock(home=0)
    values = []

    def home_writer():
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        payload[0] = 5.0
        yield from ctx.release(lock)

    def remote_reader():
        ctx = ThreadContext(gos, tid=1, node=2)
        # first fault-in may precede the write; then synchronize and re-read
        yield from ctx.read(obj)
        yield from ctx.acquire(lock)
        payload = yield from ctx.read(obj)
        values.append(float(payload[0]))
        yield from ctx.release(lock)

    run_threads(gos, home_writer(), remote_reader())
    assert values == [5.0]


def test_deadlock_on_unreleased_lock(gos):
    lock = gos.alloc_lock(home=0)

    def holder():
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.acquire(lock)
        # never releases

    def waiter():
        ctx = ThreadContext(gos, tid=1, node=2)
        yield from ctx.acquire(lock)

    from repro.sim.errors import DeadlockError

    with pytest.raises(DeadlockError):
        run_threads(gos, holder(), waiter())
