"""Causal span layer: unit behaviour, live-run trees, digest safety.

Three layers of coverage:

* ``SpanTracer`` in isolation — id allocation, enable gating, event
  shape, retro-dated ``completed`` spans, call-site guards, and a static
  scan of every call site's kind;
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

import ast
import warnings
from pathlib import Path

import pytest

from repro.apps import Asp, ServingSpec
from repro.apps.synthetic import SingleWriterBenchmark
from repro.bench.executor import ObsSpec, RunSpec, run_spec
from repro.core.policies import make_policy
from repro.dsm.redirection import make_mechanism
from repro.bench.serving import run_serving
from repro.check.invariants import InvariantChecker
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos import space as space_module
from repro.gos.jvm import DistributedJVM
from repro.obs.export import JsonlTraceWriter
from repro.obs.spans import SPAN_KINDS, SpanTracer, span_guard
from repro.trace.events import TraceEvent
from repro.trace.recorder import TraceRecorder
from tests.test_pins import PINS, determinism_payload, digest

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


#: The ``SpanTracer`` methods whose kind argument the static scan
#: checks -> position of the kind among the arguments (``span_guard``
#: takes it second).
_KIND_ARG = {"open": 0, "close": 1, "completed": 0}


def call_site_kinds(source: str, filename: str = "<src>"):
    """``(line, kind)`` of every string literal passed as the kind of a
    ``span_guard``, ``.open``, ``.close`` or ``.completed`` call."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "span_guard":
            position = 1
        elif isinstance(func, ast.Attribute) and func.attr in _KIND_ARG:
            position = _KIND_ARG[func.attr]
        else:
            continue
        if len(node.args) > position:
            arg = node.args[position]
            found.extend(
                (sub.lineno, sub.value)
                for sub in ast.walk(arg)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            )
    return found


def test_every_call_site_kind_is_a_span_kind():
    """``SpanTracer.open``/``close``/``completed`` check no kind per call:
    every literal kind in ``src/repro`` is checked here, statically."""
    seen = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for line, kind in call_site_kinds(path.read_text(encoding="utf-8")):
            assert kind in SPAN_KINDS, (
                f"{path.relative_to(ROOT)}:{line}: unknown span kind {kind!r}"
            )
            seen.add(kind)
    assert seen == SPAN_KINDS  # every kind has a checked call site


def test_call_site_scan_catches_a_misspelt_kind():
    source = (
        "sp = span_guard(spans, 'read_mis')\n"
        "op = sp.open('lock_acquire', now, oid, node)\n"
        "sp.close(op, 'lock_aquire', now, oid, node)\n"
        "sp.completed('request', t0, t1, oid, node, cls='get')\n"
        "handle.close()\n"
    )
    kinds = call_site_kinds(source)
    assert kinds == [
        (1, "read_mis"), (2, "lock_acquire"), (3, "lock_aquire"),
        (4, "request"),
    ]
    assert [k for _, k in kinds if k not in SPAN_KINDS] == [
        "read_mis", "lock_aquire"
    ]


def test_span_guard_rejects_unknown_kind_even_without_a_tracer():
    """A misspelt call-site kind fails loudly instead of never opening."""
    spans = SpanTracer(TraceRecorder())
    for tracer in (None, spans):
        with pytest.raises(ValueError) as err:
            span_guard(tracer, "read_mis")
        message = str(err.value)
        assert "\n" not in message
        assert "'read_mis'" in message
        assert all(kind in message for kind in SPAN_KINDS)
    assert span_guard(None, "read_miss") is None
    assert span_guard(spans, "read_miss") is spans


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


# -- the two-part tracer protocol: record-only tracers vs span sinks ---------


def _scripted(spans):
    """One open/child-open/close/completed script."""
    a = spans.open("lock_acquire", 5.0, 7, 3, home=2)
    b = spans.open("read_miss", 6.0, 8, 1, parent=a, version=4)
    spans.close(b, "read_miss", 8.5, 8, 1, hops=1)
    c = spans.completed("redirect_hop", 6.5, 7.5, 8, 1, parent=b, target=5)
    spans.close(a, "lock_acquire", 9.0, 7, 3)
    return a, b, c


#: What the script above records through ``record(...)`` — kinds, times
#: and the ``detail`` items *in order* — pinned from the commit before
#: span sinks existed: the JSONL exporter, ``repro-bench analyze`` and
#: every trace digest read exactly this layout.
SCRIPT_EVENTS = [
    ("span_open", 5.0, 7, 3,
     [("op", 0), ("op_kind", "lock_acquire"), ("parent", None),
      ("home", 2)]),
    ("span_open", 6.0, 8, 1,
     [("op", 1), ("op_kind", "read_miss"), ("parent", 0),
      ("version", 4)]),
    ("span_close", 8.5, 8, 1,
     [("op", 1), ("op_kind", "read_miss"), ("hops", 1)]),
    ("span_open", 6.5, 8, 1,
     [("op", 2), ("op_kind", "redirect_hop"), ("parent", 1),
      ("target", 5)]),
    ("span_close", 7.5, 8, 1,
     [("op", 2), ("op_kind", "redirect_hop")]),
    ("span_close", 9.0, 7, 3,
     [("op", 0), ("op_kind", "lock_acquire")]),
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
    spans = SpanTracer(tracer)
    assert spans.enabled is True
    assert _scripted(spans) == (0, 1, 2)
    assert tracer.seen == SCRIPT_EVENTS


def test_trace_recorder_gets_the_pinned_event_sequence():
    recorder = TraceRecorder()
    _scripted(SpanTracer(recorder))
    assert [
        (e.kind, e.time_us, e.oid, e.node, list(e.detail.items()))
        for e in recorder.events
    ] == SCRIPT_EVENTS


def test_span_sink_gets_the_same_values_positionally():
    """Same script, same values — as arguments, never through record()."""
    sink = _Sink()
    spans = SpanTracer(sink)
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


class _CompletingSink(_Sink):
    """A span sink that also takes completed spans in one call."""

    def span_completed(self, op, op_kind, open_us, close_us, oid, node,
                       parent, detail):
        self.seen.append(("completed", op, op_kind, open_us, close_us, oid,
                          node, parent, dict(detail)))


def test_completed_span_reaches_a_sink_in_one_call():
    """A sink with ``span_completed`` gets a completed span once, at its
    close; without it (above) the same span arrives as open + close."""
    sink = _CompletingSink()
    assert _scripted(SpanTracer(sink)) == (0, 1, 2)
    assert [event[0] for event in sink.seen] == [
        "open", "open", "close", "completed", "close"
    ]
    assert sink.seen[3] == (
        "completed", 2, "redirect_hop", 6.5, 7.5, 8, 1, 1, {"target": 5}
    )


def test_half_a_sink_is_a_record_only_tracer():
    """span_open without span_close is not a sink: events go to record."""

    class HalfSink(_RecordOnly):
        def span_open(self, *args):
            raise AssertionError("half a span pair must not be called")

    tracer = HalfSink()
    _scripted(SpanTracer(tracer))
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


# -- declared span kinds: a kind no consumer takes is never opened ----------


class _KindSink(_Sink):
    """A span sink that declares the kinds it reads."""

    def __init__(self, kinds):
        super().__init__()
        self.span_kinds = frozenset(kinds)


def test_declared_kinds_resolve_once():
    sink = _KindSink({"request", "barrier_wait"})
    spans = SpanTracer(sink)
    assert spans.kinds == {"request", "barrier_wait"}
    assert spans.enabled is True
    assert span_guard(spans, "request") is spans
    assert span_guard(spans, "diff_flush") is None
    assert span_guard(None, "request") is None
    # no declaration: a sink takes every kind; so does a recorder
    assert SpanTracer(_Sink()).kinds == SPAN_KINDS
    assert SpanTracer(TraceRecorder()).kinds == SPAN_KINDS
    assert SpanTracer(_RecordOnly()).kinds == SPAN_KINDS
    assert SpanTracer(TraceRecorder(kinds=("migration",))).kinds == set()
    empty = SpanTracer(_KindSink(()))
    assert empty.enabled is False
    assert span_guard(empty, "request") is None


def test_unknown_declared_kind_rejected_at_construction():
    with pytest.raises(ValueError, match=r"unknown span kinds \['disk_seek'\]"):
        SpanTracer(_KindSink({"read_miss", "disk_seek"}))


def _kind_episode(name):
    if name == "asp":
        return Asp(size=24)
    return SingleWriterBenchmark(
        total_updates=64, repetition=4, use_shipping=name == "ship"
    )


#: The span kinds each small AT/4 episode opens (a live run per kind).
KIND_EPISODES = {
    "read_miss": "asp",
    "write_miss": "asp",
    "redirect_hop": "asp",
    "diff_flush": "asp",
    "migration": "asp",
    "barrier_wait": "asp",
    "lock_acquire": "locks",
    "lock_release": "locks",
    "ship": "ship",
}


def _run_with(tracer, episode):
    jvm = DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=make_policy("AT"),
        mechanism=make_mechanism("forwarding-pointer"),
        tracer=tracer,
    )
    return jvm.run(_kind_episode(episode))


@pytest.mark.parametrize("kind", sorted(KIND_EPISODES))
def test_sink_receives_only_its_declared_kind(kind):
    """Each call-site family's guard: a sink declaring one kind gets
    exactly the spans of that kind a full recorder sees, no other kind
    is opened (``issued`` counts only opened spans), and virtual time
    does not move."""
    episode = KIND_EPISODES[kind]
    recorder = TraceRecorder()
    full = _run_with(recorder, episode)
    _assert_well_formed(recorder)
    opened = [
        e for e in recorder.of_kind("span_open")
        if e.detail["op_kind"] == kind
    ]
    assert opened, f"{episode} opens no {kind} span"

    sink = _KindSink({kind})
    result = _run_with(sink, episode)
    assert {event[2] for event in sink.seen} == {kind}
    opens = [event for event in sink.seen if event[0] == "open"]
    closes = [event for event in sink.seen if event[0] == "close"]
    assert len(opens) == len(closes) == len(opened)
    assert result.gos.spans.issued == len(opened)
    assert [event[3] for event in opens] == [e.time_us for e in opened]
    assert result.execution_time_us == full.execution_time_us
    assert result.stats.snapshot() == full.stats.snapshot()


def test_serving_run_opens_only_requests_and_barrier_waits(monkeypatch):
    """The SLO collector reads two kinds, so a serving run opens exactly
    one span per request and one per barrier wait."""
    tracers = []

    class Capturing(SpanTracer):
        __slots__ = ()

        def __init__(self, tracer):
            super().__init__(tracer)
            tracers.append(self)

    monkeypatch.setattr(space_module, "SpanTracer", Capturing)
    sspec = ServingSpec(seed=0, nodes=4, keys=12, phases=2)
    report = run_serving(sspec)
    (spans,) = tracers
    assert spans.kinds == {"request", "barrier_wait"}
    barrier_waits = sspec.nthreads * sspec.phases
    assert report["spans"] == {
        "opened": report["requests"], "closed": report["requests"]
    }
    assert spans.issued == report["requests"] + barrier_waits


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


def test_digest_unchanged_with_spans_enabled():
    """The pinned digest must not move when span recording is on.

    The manifest's determinism pin records migrations only (spans
    disabled); re-running the identical workload with an unfiltered
    recorder proves the instrumentation never perturbs stats, scheduling
    or timing.
    """
    tracer = TraceRecorder()
    assert digest(determinism_payload(tracer)) == PINS["determinism"][1]
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
