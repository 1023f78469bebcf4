"""Sinks on the engines' one observation output, the trace stream.

The protocol engines emit only trace events
(``wants(kind)``/``record(kind, time_us, oid, node, **detail)``) and
spans (:mod:`repro.obs.spans`).  Metrics and the run log are sinks
folding that stream: :class:`MetricsSink` into a
:class:`~repro.obs.metrics.MetricsRegistry` (``docs/API.md`` "Metrics"
maps each instrument to its events), :class:`LogSink` into a
:class:`~repro.obs.logging.RunLogger`.  :func:`observer` gives a run the
one tracer its engines emit into.
"""

from __future__ import annotations

from repro.obs.metrics import DEFAULT_BUCKETS
from repro.obs.spans import span_consumer
from repro.trace.events import KINDS

__all__ = ["LogSink", "MetricsSink", "TraceFanout", "observer"]

#: Bucket bounds of ``dsm_redirect_chain_length`` (hops, not µs).
REDIRECT_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64)

#: Per-node histograms and their bucket bounds.
_NODE_HISTOGRAMS = {
    "dsm_fault_in_us": DEFAULT_BUCKETS,
    "dsm_diff_bytes": DEFAULT_BUCKETS,
    "dsm_lock_epoch_us": DEFAULT_BUCKETS,
    "dsm_barrier_interval_us": DEFAULT_BUCKETS,
    "dsm_redirect_chain_length": REDIRECT_BUCKETS,
}

#: Logged kinds: level and fields, in line order after ``sim_us``.
_LOG_LINES = {
    "migration": ("info", ("oid", "old_home", "new_home", "frozen_threshold")),
    "decision": (
        "debug",
        ("node", "oid", "requester", "threshold", "consecutive", "migrated"),
    ),
}


class MetricsSink:
    """Folds the trace stream into a :class:`MetricsRegistry`.

    It reads spans as a span sink (:mod:`repro.obs.spans`) of the miss
    and lock kinds only, so no other kind is opened for it, and the
    other instruments' trace events through ``record``.  Each per-node
    instrument is resolved once.  ``nodes`` pre-creates every node's
    histograms and migration counter, so a snapshot lists them even
    where nothing was observed.  One sink serves one run: it pairs
    miss-span opens with their closes, and each lock acquire with the
    same node's next release of that lock.
    """

    span_kinds = frozenset(
        {"read_miss", "write_miss", "lock_acquire", "lock_release"}
    )

    def __init__(self, registry, nodes: int = 0) -> None:
        self.registry = registry
        #: name -> node -> histogram
        self._hists: dict[str, dict] = {name: {} for name in _NODE_HISTOGRAMS}
        for node in range(nodes):
            registry.counter("dsm_migrations_total", node=node)
            for name, buckets in _NODE_HISTOGRAMS.items():
                self._hists[name][node] = registry.histogram(
                    name, buckets, node=node)
        self._misses: dict[int, float] = {}  # op -> open time
        self._lock_held: dict[tuple[int, int], float] = {}  # (node, lock)
        self._last_round: dict[tuple[int, int], float] = {}  # (node, barrier)
        self._fold = {
            "decision": self._decision,
            "migration": self._migration,
            "diff_apply": self._diff_apply,
            "serve": self._serve,
            "barrier_epoch": self._barrier_epoch,
        }

    def wants(self, kind: str) -> bool:
        return kind in self._fold

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **detail
    ) -> None:
        fold = self._fold.get(kind)
        if fold is not None:
            fold(time_us, oid, node, detail)

    def _observe(self, name: str, node: int, value: float) -> None:
        hist = self._hists[name].get(node)
        if hist is None:  # resolved once per (name, node)
            hist = self._hists[name][node] = self.registry.histogram(
                name, _NODE_HISTOGRAMS[name], node=node)
        hist.observe(value)

    def span_open(self, op, op_kind, time_us, oid, node, parent, detail):
        if op_kind == "lock_release":
            acquired = self._lock_held.pop((node, oid), None)
            if acquired is not None:
                self._observe("dsm_lock_epoch_us", node, time_us - acquired)
        elif op_kind != "lock_acquire":  # a miss
            self._misses[op] = time_us

    def span_close(self, op, op_kind, time_us, oid, node, detail):
        if op_kind == "lock_acquire":
            self._lock_held[(node, oid)] = time_us
        elif op_kind != "lock_release":  # a miss
            opened = self._misses.pop(op, None)
            if opened is not None:
                self._observe("dsm_fault_in_us", node, time_us - opened)

    def _decision(self, time_us, oid, node, detail) -> None:
        if detail["threshold"] is not None:
            self.registry.gauge("dsm_threshold", oid=oid).set(
                detail["threshold"]
            )
        self.registry.counter(
            "dsm_decisions_total", node=node, migrated=detail["migrated"]
        ).inc()

    def _migration(self, time_us, oid, node, detail) -> None:
        self.registry.counter("dsm_migrations_total", node=node).inc()

    def _diff_apply(self, time_us, oid, node, detail) -> None:
        self._observe("dsm_diff_bytes", node, detail["size_bytes"])

    def _serve(self, time_us, oid, node, detail) -> None:
        self._observe("dsm_redirect_chain_length", node, detail["hops"])

    def _barrier_epoch(self, time_us, oid, node, detail) -> None:
        if detail["role"] == "gc":
            self.registry.gauge("dsm_cache_entries", node=node).set(
                detail["cache_entries"]
            )
            return
        previous = self._last_round.get((node, oid))
        self._last_round[(node, oid)] = time_us
        if previous is not None:
            self._observe("dsm_barrier_interval_us", node, time_us - previous)


class LogSink:
    """Writes each migration (info) and Eq-2 decision (debug) as one
    :class:`~repro.obs.logging.RunLogger` line, stamped ``sim_us=`` with
    the event time; it wants only the kinds its logger's level emits."""

    def __init__(self, logger) -> None:
        self.logger = logger
        self._lines = {
            kind: line
            for kind, line in _LOG_LINES.items()
            if logger.enabled_for(line[0])
        }

    def wants(self, kind: str) -> bool:
        return kind in self._lines

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **detail
    ) -> None:
        line = self._lines.get(kind)
        if line is None:
            return
        level, names = line
        detail.update(node=node, oid=oid)
        self.logger.log(
            level, kind, sim_us=float(time_us), **{n: detail[n] for n in names}
        )


class TraceFanout:
    """One tracer over several.  Each trace kind goes only to the tracers
    that want it, and each span kind only to the tracers that read it
    (:func:`~repro.obs.spans.span_consumer`), both resolved once, at
    construction.  The fanout is a span sink over the union of their
    span kinds; when one tracer reads spans, its own span calls are the
    fanout's, so a span costs no forwarding frame."""

    def __init__(self, tracers) -> None:
        self.tracers = tuple(tracers)
        self._routes = {
            kind: tuple(t.record for t in self.tracers if t.wants(kind))
            for kind in KINDS
        }
        readers = [c for c in map(span_consumer, self.tracers) if c[0]]
        self.span_kinds = frozenset().union(*(r[0] for r in readers))
        #: kind -> (opens, closes, completes) of the tracers reading it
        self._spans = {
            kind: tuple(zip(*(r[1:] for r in readers if kind in r[0])))
            for kind in self.span_kinds
        }
        if len(readers) == 1:
            _, self.span_open, self.span_close, self.span_completed = (
                readers[0])

    def wants(self, kind: str) -> bool:
        return bool(self._routes.get(kind))

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **detail
    ) -> None:
        for record in self._routes[kind]:
            record(kind, time_us, oid, node, **detail)

    def span_open(self, op, op_kind, time_us, oid, node, parent, detail):
        for call in self._spans[op_kind][0]:
            call(op, op_kind, time_us, oid, node, parent, detail)

    def span_close(self, op, op_kind, time_us, oid, node, detail):
        for call in self._spans[op_kind][1]:
            call(op, op_kind, time_us, oid, node, detail)

    def span_completed(
        self, op, op_kind, open_us, close_us, oid, node, parent, detail
    ):
        for call in self._spans[op_kind][2]:
            call(op, op_kind, open_us, close_us, oid, node, parent, detail)


def observer(*tracers):
    """The one tracer a run's engines emit into: ``None`` without a
    tracer, the only tracer given, else a :class:`TraceFanout`."""
    present = [tracer for tracer in tracers if tracer is not None]
    if len(present) > 1:
        return TraceFanout(present)
    return present[0] if present else None
