"""Tests for the homeless (TreadMarks-style) LRC baseline."""

import numpy as np
import pytest

from repro.apps import Asp, SingleWriterBenchmark, Sor
from repro.cluster.hockney import FAST_ETHERNET
from repro.cluster.message import MsgCategory
from repro.gos.homeless import HomelessObjectSpace
from repro.gos.jvm import DistributedJVM
from repro.gos.thread import ThreadContext

from tests.conftest import run_threads


def homeless_jvm(nodes=4):
    return DistributedJVM(
        nodes=nodes, comm_model=FAST_ETHERNET, protocol="homeless"
    )


def test_protocol_name_validation():
    with pytest.raises(ValueError):
        DistributedJVM(nodes=2, comm_model=FAST_ETHERNET, protocol="bogus")


def test_retry_lock_discipline_rejected_at_construction():
    """The homeless thread side has no retry loop: asking for one fails
    when the JVM is built instead of running FIFO without a word."""
    with pytest.raises(ValueError, match="needs the home-based protocol"):
        DistributedJVM(
            nodes=2,
            comm_model=FAST_ETHERNET,
            protocol="homeless",
            lock_discipline="retry",
        )


def _homeless_sor_16(**jvm_kwargs):
    app = Sor(size=32, iterations=3)
    result = DistributedJVM(
        nodes=16, comm_model=FAST_ETHERNET, protocol="homeless", **jvm_kwargs
    ).run(app)
    app.verify(result.output)
    return result


def test_release_fanout_relays_homeless_barrier_releases():
    """The shared barrier manager relays homeless releases too: still one
    copy per non-root node per round, but no longer one N-1 burst."""
    direct = _homeless_sor_16()
    relay = _homeless_sor_16(release_fanout=4)
    for result in (direct, relay):
        rounds = result.stats.events["barrier_round"]
        assert rounds > 0
        assert result.stats.msg_count[MsgCategory.BARRIER_RELEASE] == (
            15 * rounds
        )
    assert relay.execution_time_us < direct.execution_time_us


def test_homeless_runs_on_a_hierarchical_topology():
    flat = _homeless_sor_16()
    hier = _homeless_sor_16(topology="hier:leaf=4:oversub=4:hop=2.5")
    assert hier.execution_time_us > flat.execution_time_us


def test_result_reports_homeless():
    result = homeless_jvm(3).run(Sor(size=9, iterations=1))
    assert result.policy_name == "HOMELESS"


def test_initial_image_shared_without_messages():
    gos = HomelessObjectSpace(3, FAST_ETHERNET)
    obj = gos.alloc_array(4)
    gos.write_global(obj, np.array([1.0, 2.0, 3.0, 4.0]))
    seen = []

    def reader(node):
        ctx = ThreadContext(gos, tid=node, node=node)
        payload = yield from ctx.read(obj)
        seen.append(list(payload))

    run_threads(gos, reader(0), reader(1), reader(2))
    assert seen == [[1.0, 2.0, 3.0, 4.0]] * 3
    assert gos.stats.total_messages() == 0  # identical initial images


def test_diffs_fetched_on_demand_not_pushed():
    gos = HomelessObjectSpace(3, FAST_ETHERNET)
    obj = gos.alloc_array(4)
    lock = gos.alloc_lock(home=0)

    def writer():
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        payload[0] = 9.0
        yield from ctx.release(lock)

    run_threads(gos, writer())
    # release sent NO diff anywhere: the diff stays at the writer
    assert gos.stats.msg_count.get(MsgCategory.DIFF, 0) == 0
    assert gos.engines[1].history[obj.oid][0].diff.nchanged == 1

    def reader(values):
        ctx = ThreadContext(gos, tid=1, node=2)
        yield from ctx.acquire(lock)
        payload = yield from ctx.read(obj)
        values.append(float(payload[0]))
        yield from ctx.release(lock)

    values = []
    run_threads(gos, reader(values))
    assert values == [9.0]
    assert gos.stats.events["homeless_fetch"] == 1


def test_fetch_from_multiple_writers_multiple_round_trips():
    """The paper's §1 pathology: a fault needs one round trip per writer."""
    gos = HomelessObjectSpace(4, FAST_ETHERNET)
    obj = gos.alloc_array(4)
    lock = gos.alloc_lock(home=0)

    def writer(node, index):
        ctx = ThreadContext(gos, tid=node, node=node)
        yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        payload[index] = float(node)
        yield from ctx.release(lock)

    run_threads(gos, writer(1, 1), writer(2, 2))

    def reader(values):
        ctx = ThreadContext(gos, tid=9, node=3)
        yield from ctx.acquire(lock)
        payload = yield from ctx.read(obj)
        values.append(list(payload))
        yield from ctx.release(lock)

    values = []
    fetches_before = gos.stats.events["homeless_fetch"]
    run_threads(gos, reader(values))
    assert values[0][1] == 1.0 and values[0][2] == 2.0
    assert gos.stats.events["homeless_fetch"] - fetches_before == 2


def test_diff_memory_accumulates():
    """No GC: every flushed diff stays at its writer (the memory cost the
    paper cites for homeless protocols)."""
    gos = HomelessObjectSpace(2, FAST_ETHERNET)
    obj = gos.alloc_array(16)
    lock = gos.alloc_lock(home=0)

    def writer():
        ctx = ThreadContext(gos, tid=0, node=1)
        for i in range(10):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[i] = float(i + 1)
            yield from ctx.release(lock)

    run_threads(gos, writer())
    assert len(gos.engines[1].history[obj.oid]) == 10
    assert gos.stats.events["homeless_diff_bytes"] > 0


def test_serialized_writes_apply_in_causal_order():
    gos = HomelessObjectSpace(4, FAST_ETHERNET)
    obj = gos.alloc_fields(("v",))
    lock = gos.alloc_lock(home=0)

    def incrementer(node, times):
        ctx = ThreadContext(gos, tid=node, node=node)
        for _ in range(times):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[0] += 1.0
            yield from ctx.release(lock)

    run_threads(gos, incrementer(1, 5), incrementer(2, 5), incrementer(3, 5))
    assert gos.read_global(obj)[0] == 15.0


@pytest.mark.parametrize(
    "app_factory",
    [
        lambda: SingleWriterBenchmark(total_updates=64, repetition=4),
        lambda: Sor(size=16, iterations=2),
        lambda: Asp(size=16),
    ],
)
def test_applications_verify_on_homeless_protocol(app_factory):
    app = app_factory()
    result = homeless_jvm(5).run(app)
    app.verify(result.output)


def test_no_migrations_reported():
    result = homeless_jvm(3).run(Sor(size=9, iterations=1))
    assert result.migrations == 0


def test_shipping_unsupported_with_clear_error():
    gos = HomelessObjectSpace(2, FAST_ETHERNET)
    obj = gos.alloc_fields(("v",))

    def body():
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.ship(obj, lambda p: None)

    from repro.sim.errors import ProcessFailed

    with pytest.raises(ProcessFailed) as err:
        run_threads(gos, body())
    assert isinstance(err.value.original, NotImplementedError)
