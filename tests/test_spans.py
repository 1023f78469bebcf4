"""Causal span layer: unit behaviour, live-run trees, digest safety.

Three layers of coverage:

* ``SpanTracer`` in isolation — id allocation, enable gating, event
  shape, kind validation, retro-dated ``completed`` spans, the optional
  wall-clock hook;
* live runs — every span a real ASP (barriers) and synthetic-benchmark
  (locks) run emits opens exactly once, closes exactly once, and links
  children to already-open parents, i.e. the causal tree reconstructs;
* the hard determinism gate — the pinned ASP/AT/4 digest is unchanged
  with span recording fully enabled (instrumentation must be
  observation-only);
* the invariant checker's span lifecycle checks flag each corruption
  class (orphan child, double open, double close, close-without-open,
  kind mismatch, never closed).
"""

import importlib.util
import warnings
from pathlib import Path

import pytest

from repro.apps import Asp
from repro.apps.synthetic import SingleWriterBenchmark
from repro.bench.executor import ObsSpec, RunSpec, run_spec
from repro.bench.runner import make_mechanism, make_policy
from repro.check.invariants import InvariantChecker
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.jvm import DistributedJVM
from repro.obs.export import JsonlTraceWriter
from repro.obs.spans import SPAN_KINDS, SpanTracer
from repro.trace.events import TraceEvent
from repro.trace.recorder import TraceRecorder

ROOT = Path(__file__).resolve().parent.parent


# -- SpanTracer unit behaviour ------------------------------------------------


def test_span_tracer_disabled_without_span_kinds():
    """A kind-filtered recorder (e.g. the digest's) disables the tracer."""
    recorder = TraceRecorder(kinds=("migration",))
    spans = SpanTracer(recorder)
    assert spans.enabled is False


def test_span_tracer_allocates_sequential_unique_ids():
    recorder = TraceRecorder()
    spans = SpanTracer(recorder)
    assert spans.enabled is True
    a = spans.open("read_miss", 10.0, oid=1, node=0)
    b = spans.open("write_miss", 11.0, oid=2, node=1, parent=a)
    assert (a, b) == (0, 1)
    assert spans.issued == 2
    opens = recorder.of_kind("span_open")
    assert [e.detail["op"] for e in opens] == [0, 1]
    assert opens[0].detail["parent"] is None
    assert opens[1].detail["parent"] == a
    assert opens[1].detail["op_kind"] == "write_miss"


def test_span_tracer_close_records_matching_event():
    recorder = TraceRecorder()
    spans = SpanTracer(recorder)
    op = spans.open("lock_acquire", 5.0, oid=7, node=3, home=2)
    spans.close(op, "lock_acquire", 9.5, oid=7, node=3)
    closes = recorder.of_kind("span_close")
    assert len(closes) == 1
    assert closes[0].detail == {"op": op, "op_kind": "lock_acquire"}
    assert closes[0].time_us == 9.5
    # the open carried the extra detail
    assert recorder.of_kind("span_open")[0].detail["home"] == 2


def test_span_tracer_rejects_unknown_kind():
    spans = SpanTracer(TraceRecorder())
    with pytest.raises(ValueError, match="unknown span kind"):
        spans.open("disk_seek", 0.0, oid=0, node=0)
    op = spans.open("read_miss", 0.0, oid=0, node=0)
    with pytest.raises(ValueError, match="unknown span kind"):
        spans.close(op, "disk_seek", 1.0, oid=0, node=0)


def test_span_tracer_completed_is_retro_dated():
    """completed() opens at the earlier send time, closes at arrival."""
    recorder = TraceRecorder()
    spans = SpanTracer(recorder)
    op = spans.completed(
        "redirect_hop", 100.0, 140.0, oid=4, node=2, parent=None, target=5
    )
    opens = recorder.of_kind("span_open")
    closes = recorder.of_kind("span_close")
    assert opens[0].time_us == 100.0 and closes[0].time_us == 140.0
    assert opens[0].detail["op"] == closes[0].detail["op"] == op
    assert opens[0].detail["target"] == 5


def test_span_tracer_wall_clock_hook_annotates_events():
    """The injected clock stamps wall_s; absent by default."""
    recorder = TraceRecorder()
    ticks = iter([1.5, 2.5])
    spans = SpanTracer(recorder, wall_clock=lambda: next(ticks))
    op = spans.open("barrier_wait", 0.0, oid=0, node=0)
    spans.close(op, "barrier_wait", 1.0, oid=0, node=0)
    assert recorder.of_kind("span_open")[0].detail["wall_s"] == 1.5
    assert recorder.of_kind("span_close")[0].detail["wall_s"] == 2.5
    bare = SpanTracer(TraceRecorder())
    bare.open("barrier_wait", 0.0, oid=0, node=0)
    assert "wall_s" not in bare.tracer.of_kind("span_open")[0].detail


# -- the two-part tracer protocol: record-only tracers vs span sinks ---------


def _scripted(spans):
    """One open/child-open/close/completed script, wall-clock hook on."""
    a = spans.open("lock_acquire", 5.0, 7, 3, home=2)
    b = spans.open("read_miss", 6.0, 8, 1, parent=a, version=4)
    spans.close(b, "read_miss", 8.5, 8, 1, hops=1)
    c = spans.completed("redirect_hop", 6.5, 7.5, 8, 1, parent=b, target=5)
    spans.close(a, "lock_acquire", 9.0, 7, 3)
    return a, b, c


def _clock():
    ticks = iter(range(100, 200))
    return lambda: next(ticks)


#: What the script above records through ``record(...)`` — kinds, times
#: and the ``detail`` items *in order* — pinned from the commit before
#: span sinks existed: the JSONL exporter, ``repro-bench analyze`` and
#: every trace digest read exactly this layout.
SCRIPT_EVENTS = [
    ("span_open", 5.0, 7, 3,
     [("op", 0), ("op_kind", "lock_acquire"), ("parent", None),
      ("home", 2), ("wall_s", 100)]),
    ("span_open", 6.0, 8, 1,
     [("op", 1), ("op_kind", "read_miss"), ("parent", 0),
      ("version", 4), ("wall_s", 101)]),
    ("span_close", 8.5, 8, 1,
     [("op", 1), ("op_kind", "read_miss"), ("hops", 1), ("wall_s", 102)]),
    ("span_open", 6.5, 8, 1,
     [("op", 2), ("op_kind", "redirect_hop"), ("parent", 1),
      ("target", 5), ("wall_s", 103)]),
    ("span_close", 7.5, 8, 1,
     [("op", 2), ("op_kind", "redirect_hop"), ("wall_s", 104)]),
    ("span_close", 9.0, 7, 3,
     [("op", 0), ("op_kind", "lock_acquire"), ("wall_s", 105)]),
]


class _RecordOnly:
    """A third-party duck type: ``wants``/``record`` and nothing else."""

    def __init__(self):
        self.seen = []

    def wants(self, kind):
        return True

    def record(self, kind, time_us, oid, node, **detail):
        self.seen.append((kind, time_us, oid, node, list(detail.items())))


class _Sink:
    """A span consumer: the span pair of methods, no trace events."""

    def __init__(self):
        self.seen = []

    def wants(self, kind):
        return False

    def record(self, *args, **kwargs):
        raise AssertionError("a span sink must never be sent record()")

    def span_open(self, op, op_kind, time_us, oid, node, parent, detail):
        self.seen.append(
            ("open", op, op_kind, time_us, oid, node, parent, dict(detail))
        )

    def span_close(self, op, op_kind, time_us, oid, node, detail):
        self.seen.append(
            ("close", op, op_kind, time_us, oid, node, dict(detail))
        )


def test_record_only_tracer_gets_the_pinned_event_sequence():
    tracer = _RecordOnly()
    spans = SpanTracer(tracer, wall_clock=_clock())
    assert spans.enabled is True
    assert _scripted(spans) == (0, 1, 2)
    assert tracer.seen == SCRIPT_EVENTS


def test_trace_recorder_gets_the_pinned_event_sequence():
    recorder = TraceRecorder()
    _scripted(SpanTracer(recorder, wall_clock=_clock()))
    assert [
        (e.kind, e.time_us, e.oid, e.node, list(e.detail.items()))
        for e in recorder.events
    ] == SCRIPT_EVENTS


def test_span_sink_gets_the_same_values_positionally():
    """Same script, same values — as arguments, never through record()."""
    sink = _Sink()
    spans = SpanTracer(sink, wall_clock=_clock())
    assert spans.enabled is True  # the pair of methods enables it
    assert _scripted(spans) == (0, 1, 2)
    assert spans.issued == 3
    expected = []
    for kind, time_us, oid, node, items in SCRIPT_EVENTS:
        detail = dict(items)
        op, op_kind = detail.pop("op"), detail.pop("op_kind")
        if kind == "span_open":
            parent = detail.pop("parent")
            expected.append(
                ("open", op, op_kind, time_us, oid, node, parent, detail)
            )
        else:
            expected.append(("close", op, op_kind, time_us, oid, node, detail))
    assert sink.seen == expected


def test_half_a_sink_is_a_record_only_tracer():
    """span_open without span_close is not a sink: events go to record."""

    class HalfSink(_RecordOnly):
        def span_open(self, *args):
            raise AssertionError("half a span pair must not be called")

    tracer = HalfSink()
    _scripted(SpanTracer(tracer, wall_clock=_clock()))
    assert tracer.seen == SCRIPT_EVENTS


@pytest.mark.parametrize("half", ["span_open", "span_close"])
def test_half_span_pair_filter_rejected(half, tmp_path):
    """One span kind without the other used to disable spans silently."""
    missing = {"span_open": "span_close", "span_close": "span_open"}[half]
    kinds = ("migration", half)
    with pytest.raises(ValueError, match=f"add '{missing}'"):
        TraceRecorder(kinds=kinds)
    path = tmp_path / "half.jsonl"
    with pytest.raises(ValueError, match=f"add '{missing}'"):
        JsonlTraceWriter(str(path), kinds=kinds)
    assert not path.exists()  # rejected before the file is created
    spec = RunSpec(
        app="asp", app_kwargs={"size": 8}, policy="AT", nodes=2,
        obs=ObsSpec(trace_path=str(path), trace_kinds=kinds),
    )
    with pytest.raises(ValueError, match=f"add '{missing}'"):
        run_spec(spec)
    assert not path.exists()


# -- live-run causal trees ----------------------------------------------------


def _run_with_spans(app, nodes=4, policy="AT"):
    tracer = TraceRecorder()
    jvm = DistributedJVM(
        nodes=nodes,
        comm_model=FAST_ETHERNET,
        policy=make_policy(policy),
        mechanism=make_mechanism("forwarding-pointer"),
        tracer=tracer,
    )
    jvm.run(app)
    return tracer


def _assert_well_formed(tracer):
    """Every span opens once, closes once, and parents are already open."""
    seen: dict[int, str] = {}
    closed: set[int] = set()
    for event in tracer.events:
        if event.kind == "span_open":
            op = event.detail["op"]
            assert op not in seen, f"op {op} opened twice"
            parent = event.detail["parent"]
            assert parent is None or parent in seen, (
                f"op {op} links to unknown parent {parent}"
            )
            assert event.detail["op_kind"] in SPAN_KINDS
            seen[op] = event.detail["op_kind"]
        elif event.kind == "span_close":
            op = event.detail["op"]
            assert op in seen, f"close of unopened op {op}"
            assert op not in closed, f"op {op} closed twice"
            assert event.detail["op_kind"] == seen[op]
            closed.add(op)
    assert set(seen) == closed, (
        f"unclosed spans: {sorted(set(seen) - closed)[:10]}"
    )
    return seen


def test_asp_run_produces_balanced_span_tree():
    tracer = _run_with_spans(Asp(size=24))
    kinds = _assert_well_formed(tracer)
    by_kind = {}
    for kind in kinds.values():
        by_kind[kind] = by_kind.get(kind, 0) + 1
    # ASP is barrier-synchronised: misses, flushes, migrations, barriers
    for expected in ("read_miss", "write_miss", "migration",
                     "barrier_wait", "diff_flush"):
        assert by_kind.get(expected, 0) > 0, (expected, by_kind)


def test_synthetic_run_produces_lock_spans():
    tracer = _run_with_spans(
        SingleWriterBenchmark(total_updates=64, repetition=4), nodes=4
    )
    kinds = _assert_well_formed(tracer)
    by_kind = set(kinds.values())
    assert "lock_acquire" in by_kind and "lock_release" in by_kind


def test_migration_spans_link_to_triggering_fault():
    """Migration spans opened while serving a fault carry its parent id."""
    tracer = _run_with_spans(Asp(size=24))
    opens = {
        e.detail["op"]: e for e in tracer.events if e.kind == "span_open"
    }
    parented = [
        e for e in opens.values()
        if e.detail["op_kind"] == "migration"
        and e.detail["parent"] is not None
    ]
    assert parented, "no fault-triggered migration in the pinned workload"
    for event in parented:
        parent = opens[event.detail["parent"]]
        assert parent.detail["op_kind"] in (
            "read_miss", "write_miss", "ship"
        )


def test_redirect_hops_nest_under_their_fault():
    tracer = _run_with_spans(Asp(size=24))
    opens = {
        e.detail["op"]: e for e in tracer.events if e.kind == "span_open"
    }
    hops = [
        e for e in opens.values()
        if e.detail["op_kind"] == "redirect_hop"
    ]
    assert hops, "expected redirection hops under the AT policy"
    for event in hops:
        assert event.detail["parent"] is not None
        parent = opens[event.detail["parent"]]
        assert parent.detail["op_kind"] in (
            "read_miss", "write_miss", "ship"
        )


# -- determinism: spans are observation-only ---------------------------------


def _digest_module():
    spec = importlib.util.spec_from_file_location(
        "tdd", ROOT / "tests" / "test_determinism_digest.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digest_unchanged_with_spans_enabled():
    """The pinned digest must not move when span recording is on.

    The digest's own harness records migrations only (spans disabled);
    re-running the identical workload with an unfiltered recorder proves
    the instrumentation never perturbs stats, scheduling or timing.
    """
    mod = _digest_module()
    tracer = TraceRecorder()
    jvm = DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=make_policy("AT"),
        mechanism=make_mechanism("forwarding-pointer"),
        tracer=tracer,
    )
    result = jvm.run(Asp(size=64))
    payload = {
        "stats": result.stats.snapshot(),
        "time_us": result.execution_time_us,
        "migrations": [
            [
                event.time_us,
                event.oid,
                event.node,
                event.detail.get("old_home"),
                event.detail.get("new_home"),
            ]
            for event in tracer.migrations()
        ],
    }
    assert mod._digest(payload) == mod.EXPECTED_DIGEST
    _assert_well_formed(tracer)


# -- bounded recorders: dropped spans are never silent ------------------------


def test_dropped_spans_counted_and_warned():
    tracer = TraceRecorder(max_events=50)
    jvm = DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=make_policy("AT"),
        mechanism=make_mechanism("forwarding-pointer"),
        tracer=tracer,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jvm.run(Asp(size=24))
    assert tracer.dropped_spans > 0
    assert tracer.dropped >= tracer.dropped_spans
    dropped_warnings = [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "dropped" in str(w.message)
    ]
    assert len(dropped_warnings) == 1
    assert str(tracer.dropped_spans) in str(dropped_warnings[0].message)


def test_unbounded_recorder_drops_nothing():
    tracer = _run_with_spans(Asp(size=24))
    assert tracer.dropped == 0 and tracer.dropped_spans == 0


# -- invariant checker: span lifecycle ---------------------------------------


def _feed(checker, events):
    for kind, time_us, detail in events:
        checker.on_event(
            TraceEvent(time_us=time_us, kind=kind, oid=0, node=0,
                       detail=detail)
        )


def test_checker_accepts_clean_span_stream():
    checker = InvariantChecker(nnodes=4)
    _feed(checker, [
        ("span_open", 0.0, {"op": 0, "op_kind": "read_miss",
                            "parent": None}),
        ("span_open", 1.0, {"op": 1, "op_kind": "migration", "parent": 0}),
        ("span_close", 2.0, {"op": 1, "op_kind": "migration"}),
        ("span_close", 3.0, {"op": 0, "op_kind": "read_miss"}),
    ])
    assert checker.finish() == []


def test_checker_flags_orphan_child():
    checker = InvariantChecker(nnodes=4)
    _feed(checker, [
        ("span_open", 0.0, {"op": 5, "op_kind": "migration",
                            "parent": 99}),
        ("span_close", 1.0, {"op": 5, "op_kind": "migration"}),
    ])
    assert any("parent" in v for v in checker.finish())


def test_checker_flags_duplicate_open():
    checker = InvariantChecker(nnodes=4)
    _feed(checker, [
        ("span_open", 0.0, {"op": 3, "op_kind": "read_miss",
                            "parent": None}),
        ("span_open", 1.0, {"op": 3, "op_kind": "read_miss",
                            "parent": None}),
    ])
    assert any("opened twice" in v for v in checker.violations)


def test_checker_flags_double_close_and_unmatched_close():
    checker = InvariantChecker(nnodes=4)
    _feed(checker, [
        ("span_open", 0.0, {"op": 1, "op_kind": "read_miss",
                            "parent": None}),
        ("span_close", 1.0, {"op": 1, "op_kind": "read_miss"}),
        ("span_close", 2.0, {"op": 1, "op_kind": "read_miss"}),
        ("span_close", 3.0, {"op": 42, "op_kind": "read_miss"}),
    ])
    violations = checker.violations
    assert any("closed" in v and "1" in v for v in violations)
    assert any("42" in v for v in violations)


def test_checker_flags_kind_mismatch():
    checker = InvariantChecker(nnodes=4)
    _feed(checker, [
        ("span_open", 0.0, {"op": 2, "op_kind": "read_miss",
                            "parent": None}),
        ("span_close", 1.0, {"op": 2, "op_kind": "write_miss"}),
    ])
    assert any(
        "opened as 'read_miss'" in v and "closed as 'write_miss'" in v
        for v in checker.violations
    )


def test_checker_flags_never_closed_span():
    checker = InvariantChecker(nnodes=4)
    _feed(checker, [
        ("span_open", 0.0, {"op": 9, "op_kind": "barrier_wait",
                            "parent": None}),
    ])
    assert checker.violations == []
    assert any("never" in v or "close" in v for v in checker.finish())
