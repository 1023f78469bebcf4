"""Pinned observation output of small metered runs, under both backends.

Four 4-node runs are metered through ``DistributedJVM(metrics=)``:

* ``synthetic_at4`` — the single-writer pattern under AT (locks,
  Eq-2 decisions, migrations);
* ``synthetic_ship_at4`` — the same with method shipping (ship
  decisions);
* ``sor_at4`` — red-black SOR under AT (barriers, barrier-epoch GC
  gauges, diffs);
* ``sor_homeless4`` — SOR on the homeless protocol (no ``dsm_*``
  instrument at all).

Each run's full :meth:`MetricsRegistry.snapshot` — names, labels,
bucket bounds, empty instruments and every value — is compared as
canonical JSON text against ``tests/pins/obs_stream/<run>.metrics.json``.
So is the debug-level run log of ``sor_at4``, and the event lines of a
``kinds=("migration", "decision")`` JSONL trace written next to the
metrics of ``synthetic_at4`` (the header line names the backend and
kernel build, so it is left out).

Regenerate the pins (only for an intended change of what is observed)::

    PYTHONPATH=src python tests/test_obs_stream.py
"""

from __future__ import annotations

import inspect
import io
import json
import pathlib

import pytest

import repro.dsm
from repro.apps import SingleWriterBenchmark, Sor
from repro.cluster.hockney import FAST_ETHERNET
from repro.core.policies import AdaptiveThreshold
from repro.dsm.protocol import DsmEngine
from repro.gos.jvm import DistributedJVM
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext
from repro.obs.export import JsonlTraceWriter
from repro.obs.logging import RunLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import LogSink, MetricsSink, TraceFanout, observer
from repro.obs.spans import SPAN_KINDS, SpanTracer
from repro.trace.recorder import TraceRecorder

PINS = pathlib.Path(__file__).parent / "pins" / "obs_stream"

#: run name -> (application factory, protocol)
RUNS = {
    "synthetic_at4": (
        lambda: SingleWriterBenchmark(total_updates=64, repetition=4),
        "home-based",
    ),
    "synthetic_ship_at4": (
        lambda: SingleWriterBenchmark(
            total_updates=64, repetition=4, use_shipping=True
        ),
        "home-based",
    ),
    "sor_at4": (lambda: Sor(size=16, iterations=4), "home-based"),
    "sor_homeless4": (lambda: Sor(size=16, iterations=4), "homeless"),
}

TRACE_KINDS = ("migration", "decision")


def _run(name: str, **obs) -> None:
    make_app, protocol = RUNS[name]
    DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=None if protocol == "homeless" else AdaptiveThreshold(),
        protocol=protocol,
        **obs,
    ).run(make_app())


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1) + "\n"


def metrics_text(name: str) -> str:
    metrics = MetricsRegistry()
    _run(name, metrics=metrics)
    return _canonical(metrics.snapshot())


def log_text() -> str:
    stream = io.StringIO()
    _run("sor_at4", logger=RunLogger(level="debug", stream=stream))
    return stream.getvalue()


def trace_and_metrics_text(path: pathlib.Path) -> tuple[str, str]:
    metrics = MetricsRegistry()
    with JsonlTraceWriter(str(path), kinds=TRACE_KINDS) as writer:
        _run("synthetic_at4", tracer=writer, metrics=metrics)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(lines[1:]), _canonical(metrics.snapshot())


def _pin(filename: str) -> str:
    return (PINS / filename).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_metrics_snapshot_is_pinned(backend, name):
    assert metrics_text(name) == _pin(f"{name}.metrics.json")


def test_homeless_run_has_no_dsm_instruments():
    snapshot = json.loads(_pin("sor_homeless4.metrics.json"))
    names = {
        entry["name"]
        for section in snapshot.values()
        for entry in section
    }
    assert names and not any(name.startswith("dsm_") for name in names)


def test_debug_log_is_pinned(backend):
    assert log_text() == _pin("sor_at4.debug.log")


def test_trace_next_to_metrics_is_pinned(backend, tmp_path):
    trace, metrics = trace_and_metrics_text(tmp_path / "run.jsonl")
    assert trace == _pin("synthetic_at4.trace.jsonl")
    assert metrics == _pin("synthetic_at4.metrics.json")


def test_engines_take_no_metrics_or_logger():
    for cls in (DsmEngine, GlobalObjectSpace):
        params = inspect.signature(cls).parameters
        assert "metrics" not in params and "logger" not in params
    for module in pathlib.Path(repro.dsm.__file__).parent.glob("*.py"):
        source = module.read_text(encoding="utf-8")
        assert "self.metrics" not in source, module.name
        assert "self.logger" not in source, module.name


def test_metrics_sink_as_the_tracer():
    """Without the JVM: the sink is a plain tracer of one object space."""
    metrics = MetricsRegistry()
    gos = GlobalObjectSpace(
        nnodes=2,
        comm_model=FAST_ETHERNET,
        policy=AdaptiveThreshold(),
        tracer=MetricsSink(metrics),
    )
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)

    def body():
        ctx = ThreadContext(gos, tid=0, node=1)
        for _ in range(8):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[0] += 1
            yield from ctx.release(lock)

    gos.sim.spawn(body(), name="writer")
    gos.sim.run()
    assert metrics.counter_total("dsm_migrations_total") == (
        gos.migration_count()
    ) > 0
    assert metrics.histogram("dsm_lock_epoch_us", node=1).count == 8
    assert metrics.histogram("dsm_fault_in_us", node=1).count > 0


def test_fanout_routes_each_kind_to_the_tracers_that_want_it():
    migrations = TraceRecorder(kinds=("migration",))
    decisions = TraceRecorder(kinds=("decision",))
    fanout = observer(None, migrations, decisions)
    assert isinstance(fanout, TraceFanout)
    assert fanout.wants("migration") and fanout.wants("decision")
    assert not fanout.wants("ship")
    fanout.record("migration", 1.0, 7, 0, old_home=0, new_home=1)
    fanout.record("ship", 2.0, 7, 0, home=0, requester=1)
    assert [e.kind for e in migrations.events] == ["migration"]
    assert decisions.events == []
    assert observer(None, migrations) is migrations
    assert observer(None, None) is None


class _SpanReader:
    """A span sink declaring ``kinds``, keeping what reaches it."""

    def __init__(self, kinds):
        self.span_kinds = frozenset(kinds)
        self.seen = []

    def wants(self, kind):
        return False

    def span_open(self, op, op_kind, *rest):
        self.seen.append(("open", op, op_kind))

    def span_close(self, op, op_kind, *rest):
        self.seen.append(("close", op, op_kind))

    def span_completed(self, op, op_kind, *rest):
        self.seen.append(("completed", op, op_kind))


def _span_script(spans):
    a = spans.open("lock_acquire", 5.0, 7, 3, home=2)
    b = spans.open("read_miss", 6.0, 8, 1, parent=a)
    spans.close(b, "read_miss", 8.5, 8, 1)
    spans.completed("redirect_hop", 6.5, 7.5, 8, 1, parent=b, target=5)
    spans.completed("request", 1.0, 9.0, 8, 1, cls="get", epoch=0, tid=0)
    spans.close(a, "lock_acquire", 9.0, 7, 3)


def _events(recorder):
    return [
        (e.kind, e.time_us, e.oid, e.node, list(e.detail.items()))
        for e in recorder.events
    ]


def test_fanout_forwards_spans_to_the_tracers_that_read_them():
    """Each span kind reaches only the tracers reading it; a recorder
    beside span sinks records what it records alone."""
    alone = TraceRecorder()
    _span_script(SpanTracer(alone))
    recorder, misses, requests = (
        TraceRecorder(), _SpanReader({"read_miss"}), _SpanReader({"request"})
    )
    fanout = observer(misses, recorder, requests)
    assert fanout.span_kinds == SPAN_KINDS  # the recorder reads every kind
    _span_script(SpanTracer(fanout))
    assert _events(recorder) == _events(alone)
    assert misses.seen == [("open", 1, "read_miss"), ("close", 1, "read_miss")]
    assert requests.seen == [("completed", 3, "request")]
    # sinks only: the union of their kinds is opened, nothing else
    sinks = observer(misses, requests)
    assert sinks.span_kinds == {"read_miss", "request"}
    assert SpanTracer(sinks).kinds == {"read_miss", "request"}


def test_fanout_binds_the_one_span_reader_in_place():
    """Metrics beside the run log: the sink's own span calls are the
    fanout's, so a span costs it no forwarding frame."""
    sink = MetricsSink(MetricsRegistry(), nodes=2)
    fanout = observer(sink, LogSink(RunLogger(level="info")))
    assert isinstance(fanout, TraceFanout)
    assert fanout.span_kinds == MetricsSink.span_kinds
    assert fanout.span_open == sink.span_open
    assert fanout.span_close == sink.span_close


if __name__ == "__main__":  # regenerate the pins
    import tempfile

    PINS.mkdir(parents=True, exist_ok=True)
    for run_name in sorted(RUNS):
        (PINS / f"{run_name}.metrics.json").write_text(
            metrics_text(run_name), encoding="utf-8"
        )
    (PINS / "sor_at4.debug.log").write_text(log_text(), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        trace_text, _ = trace_and_metrics_text(
            pathlib.Path(tmp) / "run.jsonl"
        )
    (PINS / "synthetic_at4.trace.jsonl").write_text(
        trace_text, encoding="utf-8"
    )
