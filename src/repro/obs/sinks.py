"""Sinks on the engines' one observation output, the trace stream.

The protocol engines emit only trace events and spans
(``wants(kind)``/``record(kind, time_us, oid, node, **detail)``).
Metrics and the run log are plain tracers folding that stream:
:class:`MetricsSink` into a :class:`~repro.obs.metrics.MetricsRegistry`
(``docs/API.md`` "Metrics" maps each instrument to its events),
:class:`LogSink` into a :class:`~repro.obs.logging.RunLogger`.
:func:`observer` gives a run the one tracer its engines emit into.
"""

from __future__ import annotations

from repro.trace.events import KINDS

__all__ = ["LogSink", "MetricsSink", "TraceFanout", "observer"]

#: Bucket bounds of ``dsm_redirect_chain_length`` (hops, not µs).
REDIRECT_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64)

#: Per-node histograms with the default bounds.
_NODE_HISTOGRAMS = (
    "dsm_fault_in_us",
    "dsm_diff_bytes",
    "dsm_lock_epoch_us",
    "dsm_barrier_interval_us",
)

_MISS_KINDS = frozenset({"read_miss", "write_miss"})

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

    ``nodes`` pre-creates every node's histograms and migration counter,
    so a snapshot lists them even where nothing was observed.  One sink
    serves one run: it pairs miss-span opens with their closes, and each
    lock acquire with the same node's next release of that lock.
    """

    def __init__(self, registry, nodes: int = 0) -> None:
        self.registry = registry
        for node in range(nodes):
            registry.counter("dsm_migrations_total", node=node)
            registry.histogram(
                "dsm_redirect_chain_length", REDIRECT_BUCKETS, node=node
            )
            for name in _NODE_HISTOGRAMS:
                registry.histogram(name, node=node)
        self._misses: dict[int, float] = {}  # op -> open time
        self._lock_held: dict[tuple[int, int], float] = {}  # (node, lock)
        self._last_round: dict[tuple[int, int], float] = {}  # (node, barrier)
        self._fold = {
            "span_open": self._span_open,
            "span_close": self._span_close,
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
        self.registry.histogram(name, node=node).observe(value)

    def _span_open(self, time_us, oid, node, detail) -> None:
        op_kind = detail["op_kind"]
        if op_kind in _MISS_KINDS:
            self._misses[detail["op"]] = time_us
        elif op_kind == "lock_release":
            acquired = self._lock_held.pop((node, oid), None)
            if acquired is not None:
                self._observe("dsm_lock_epoch_us", node, time_us - acquired)

    def _span_close(self, time_us, oid, node, detail) -> None:
        op_kind = detail["op_kind"]
        if op_kind in _MISS_KINDS:
            opened = self._misses.pop(detail["op"], None)
            if opened is not None:
                self._observe("dsm_fault_in_us", node, time_us - opened)
        elif op_kind == "lock_acquire":
            self._lock_held[(node, oid)] = time_us

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
        self.registry.histogram(
            "dsm_redirect_chain_length", REDIRECT_BUCKETS, node=node
        ).observe(detail["hops"])

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
    """One record-only tracer over several; each trace kind goes only to
    the tracers that want it (resolved once, at construction).  A tracer
    consuming spans through ``span_open``/``span_close`` would get
    nothing here, so it must be a run's only tracer and is rejected."""

    def __init__(self, tracers) -> None:
        self.tracers = tuple(tracers)
        for tracer in self.tracers:
            if hasattr(tracer, "span_open"):
                raise ValueError(
                    f"{type(tracer).__name__} consumes spans directly: it "
                    "must be the run's only tracer"
                )
        self._routes = {
            kind: tuple(t.record for t in self.tracers if t.wants(kind))
            for kind in KINDS
        }

    def wants(self, kind: str) -> bool:
        return bool(self._routes.get(kind))

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **detail
    ) -> None:
        for record in self._routes[kind]:
            record(kind, time_us, oid, node, **detail)


def observer(*tracers):
    """The one tracer a run's engines emit into: ``None`` without a
    tracer, the only tracer given, else a :class:`TraceFanout`."""
    present = [tracer for tracer in tracers if tracer is not None]
    if len(present) > 1:
        return TraceFanout(present)
    return present[0] if present else None
