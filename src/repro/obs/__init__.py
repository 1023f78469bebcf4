"""Run-wide observability: one trace stream and the sinks folding it.

The paper's argument is telemetry-shaped — threshold series, migration
counts, message breakdowns — and this subpackage makes the reproduction
observable *while it runs* instead of only post-hoc.  The protocol
engines have one observation output, the trace stream (events and
spans, ``tracer.wants``/``tracer.record``); metrics, the run log, JSONL
files and SLO reports are all consumers of it:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters/gauges/histograms with mergeable snapshots (cross-process
  aggregation for parallel sweeps);
* :mod:`repro.obs.export` — a streaming :class:`JsonlTraceWriter`
  (bounded-memory alternative to the in-memory
  :class:`~repro.trace.recorder.TraceRecorder`) and its reader
  :func:`iter_trace`;
* :mod:`repro.obs.sinks` — :class:`MetricsSink` and :class:`LogSink`,
  which fold the stream into a registry and a :class:`RunLogger`, and
  :func:`observer`, which fans one stream out to several tracers;
* :mod:`repro.obs.logging` — a structured, level-gated
  :class:`RunLogger`;
* :mod:`repro.obs.spans` — :class:`SpanTracer`: causal operation spans
  with run-unique op ids threaded through protocol messages
  (``span_open``/``span_close`` trace events, virtual-time extents);
* :mod:`repro.obs.hist` — :class:`LatencyHistogram`: deterministic
  mergeable HDR-style log-bucket histograms with exact-rank
  p50/p95/p99/p999, plus :class:`EpochSeries` throughput counters.

Everything is opt-in: the engines carry a ``None`` tracer by default
and every emit site sits behind a cheap ``is not None`` (or pre-hoisted
boolean) guard, so a run with telemetry disabled pays nothing
measurable.  ``DistributedJVM(metrics=, logger=)`` attaches the sinks;
a :class:`MetricsSink` can also be passed as the tracer directly.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".export": ["JsonlTraceWriter", "TRACE_SCHEMA", "iter_trace"],
    ".hist": ["EpochSeries", "LatencyHistogram"],
    ".logging": ["LEVELS", "RunLogger"],
    ".metrics": [
        "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram", "MetricsRegistry",
    ],
    ".sinks": ["LogSink", "MetricsSink", "TraceFanout", "observer"],
    ".spans": ["SPAN_KINDS", "SpanTracer"],
})
