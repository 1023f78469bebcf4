"""Tests for the protocol trace subsystem."""

import pytest

from repro.apps import SingleWriterBenchmark
from repro.cluster.hockney import FAST_ETHERNET
from repro.core.policies import AdaptiveThreshold, FixedThreshold
from repro.gos.jvm import DistributedJVM
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext
from repro.trace import TraceRecorder
from repro.trace.events import TraceEvent

from tests.conftest import run_threads


def test_event_kind_validation():
    with pytest.raises(ValueError):
        TraceEvent(time_us=0.0, kind="nope", oid=1, node=0)
    with pytest.raises(ValueError):
        TraceRecorder(kinds=["bogus"])


def test_kind_filtering():
    recorder = TraceRecorder(kinds=["migration"])
    recorder.record("migration", 1.0, oid=1, node=0, new_home=2)
    recorder.record("redirect", 2.0, oid=1, node=0)
    assert len(recorder) == 1
    assert not recorder.wants("redirect")


def _traced_run(policy):
    tracer = TraceRecorder()
    app = SingleWriterBenchmark(total_updates=128, repetition=8)
    jvm = DistributedJVM(
        nodes=5, comm_model=FAST_ETHERNET, policy=policy, tracer=tracer
    )
    result = jvm.run(app)
    app.verify(result.output)
    return tracer, result, app


def test_migration_events_match_stats():
    tracer, result, _app = _traced_run(AdaptiveThreshold())
    assert len(tracer.migrations()) == result.migrations
    for event in tracer.migrations():
        assert event.detail["old_home"] == event.node
        assert event.detail["new_home"] != event.node
        assert event.time_us > 0


def test_redirect_events_match_stats():
    tracer, result, _app = _traced_run(FixedThreshold(1))
    assert len(tracer.of_kind("redirect")) == result.stats.events["redir"]


def test_home_path_reconstruction():
    tracer, result, app = _traced_run(AdaptiveThreshold())
    gos = result.gos
    oid = app.counter.oid
    path = tracer.home_path(oid, initial_home=0)
    assert path[0] == 0
    assert path[-1] == gos.current_home(app.counter)
    # consecutive entries always differ (a migration moves the home)
    assert all(a != b for a, b in zip(path, path[1:]))


def test_decision_events_capture_threshold_inputs():
    tracer, _result, app = _traced_run(AdaptiveThreshold())
    decisions = tracer.of_kind("decision", app.counter.oid)
    assert decisions, "no decision events captured"
    for event in decisions:
        detail = event.detail
        assert detail["threshold"] >= 1.0
        assert detail["consecutive"] >= 0
        assert isinstance(detail["migrated"], bool)
    # at least one decision fired and one declined
    outcomes = {d.detail["migrated"] for d in decisions}
    assert outcomes == {True, False}


def test_threshold_series_is_time_ordered():
    tracer, _result, app = _traced_run(AdaptiveThreshold())
    series = tracer.threshold_series(app.counter.oid)
    assert series
    times = [t for t, _ in series]
    assert times == sorted(times)


def test_tracing_does_not_change_behaviour():
    app1 = SingleWriterBenchmark(total_updates=128, repetition=4)
    plain = DistributedJVM(
        nodes=5, comm_model=FAST_ETHERNET, policy=AdaptiveThreshold()
    ).run(app1)
    app2 = SingleWriterBenchmark(total_updates=128, repetition=4)
    traced = DistributedJVM(
        nodes=5,
        comm_model=FAST_ETHERNET,
        policy=AdaptiveThreshold(),
        tracer=TraceRecorder(),
    ).run(app2)
    assert plain.execution_time_us == traced.execution_time_us
    assert plain.stats.snapshot() == traced.stats.snapshot()


def test_empty_recorder_queries():
    recorder = TraceRecorder()
    assert recorder.migrations() == []
    assert recorder.of_kind("decision") == []
    assert recorder.threshold_series(1) == []
    assert recorder.home_path(1, initial_home=3) == [3]
    assert len(recorder) == 0


def test_threshold_series_skips_missing_threshold():
    recorder = TraceRecorder()
    recorder.record("decision", 1.0, oid=1, node=0, threshold=2.0)
    recorder.record("decision", 2.0, oid=1, node=0)  # no threshold detail
    recorder.record("decision", 3.0, oid=1, node=0, threshold=None)
    recorder.record("decision", 4.0, oid=1, node=0, threshold=3.0)
    assert recorder.threshold_series(1) == [(1.0, 2.0), (4.0, 3.0)]


def test_home_path_with_migrations_filtered_out():
    recorder = TraceRecorder(kinds=["decision"])
    recorder.record("migration", 1.0, oid=1, node=0, new_home=2)
    assert recorder.home_path(1, initial_home=0) == [0]


def test_jiajia_barrier_migrations_traced():
    from repro.apps import Sor
    from repro.core.policies import make_policy

    tracer = TraceRecorder(kinds=["migration"])
    app = Sor(size=12, iterations=2)
    result = DistributedJVM(
        nodes=3,
        comm_model=FAST_ETHERNET,
        policy=make_policy("JIAJIA"),
        tracer=tracer,
    ).run(app)
    app.verify(result.output)
    assert len(tracer.migrations()) == result.migrations > 0


def test_ship_decisions_traced():
    # The tracer is a construction argument: engines resolve which trace
    # kinds are wanted once, when they are built.
    tracer = TraceRecorder()
    gos = GlobalObjectSpace(
        nnodes=3, comm_model=FAST_ETHERNET, policy=FixedThreshold(2),
        tracer=tracer,
    )
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)

    def body():
        ctx = ThreadContext(gos, tid=0, node=1)
        for _ in range(3):
            yield from ctx.acquire(lock)
            yield from ctx.ship(obj, lambda p: p.__setitem__(0, p[0] + 1))
            yield from ctx.release(lock)

    run_threads(gos, body())
    decisions = tracer.of_kind("decision", obj.oid)
    assert decisions
