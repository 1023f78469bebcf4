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
from repro.obs.sinks import MetricsSink, TraceFanout, observer
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


def test_fanout_rejects_a_span_consuming_tracer():
    class SpanConsumer:
        def wants(self, kind):
            return False

        def span_open(self, *args):
            pass

        def span_close(self, *args):
            pass

    with pytest.raises(ValueError, match="only tracer"):
        TraceFanout([SpanConsumer(), MetricsSink(MetricsRegistry())])


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
