"""Microbenchmarks of telemetry overhead: disabled vs enabled paths.

The observability layer's contract is that *disabled* instrumentation is
free (one ``is not None`` check per site).  Enabled, the engines' trace
stream feeds the metrics and log sinks.  These benches time the event
loop and one end-to-end DSM operation with telemetry off and on, so a
regression in the guard structure shows up as a disabled-path slowdown.
"""

import io

from repro.cluster.hockney import FAST_ETHERNET
from repro.core.policies import AdaptiveThreshold
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext
from repro.obs.logging import RunLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import LogSink, MetricsSink, observer
from repro.sim.engine import make_simulator


def _run_10k_events():
    sim = make_simulator()
    for i in range(10_000):
        sim.schedule(float(i % 97), lambda: None)
    return sim.run()


def test_event_loop(benchmark):
    """Baseline drain — must match test_microbench's event-loop figure."""
    benchmark(_run_10k_events)


def _dsm_increment_ops(tracer):
    gos = GlobalObjectSpace(
        nnodes=2,
        comm_model=FAST_ETHERNET,
        policy=AdaptiveThreshold(),
        tracer=tracer,
    )
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)

    def body():
        ctx = ThreadContext(gos, tid=0, node=1)
        for _ in range(100):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[0] += 1
            yield from ctx.release(lock)

    gos.sim.spawn(body(), name="bench")
    return gos.sim.run()


def test_dsm_ops_telemetry_off(benchmark):
    """The hot protocol path with no tracer."""
    benchmark(_dsm_increment_ops, None)


def test_dsm_ops_telemetry_on(benchmark):
    """The same ops with the metrics and debug-log sinks (an in-memory
    stream) on the trace stream."""

    def run():
        return _dsm_increment_ops(
            observer(
                MetricsSink(MetricsRegistry(), nodes=2),
                LogSink(RunLogger(level="debug", stream=io.StringIO())),
            )
        )

    benchmark(run)
