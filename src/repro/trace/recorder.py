"""Trace recorder and query helpers."""

from __future__ import annotations

from typing import Iterable

from repro.trace.events import TraceEvent, validate_kinds


class TraceRecorder:
    """Collects :class:`~repro.trace.events.TraceEvent` during a run.

    ``kinds`` restricts capture (decision events in particular are
    frequent); by default everything is recorded.  The recorder is the
    trace-event half of the tracer protocol (``wants``/``record``) and
    deliberately has no span methods, so spans reach it as
    ``span_open``/``span_close`` events (``repro.obs.spans``).  It is
    for streams that are read back; a consumer that only folds spans
    should be the run's tracer itself (``repro.bench.serving``).  It
    keeps every event in memory; a long run with full ``kinds`` streams
    to a :class:`~repro.obs.export.JsonlTraceWriter` instead.
    """

    def __init__(self, kinds: Iterable[str] | None = None):
        self.kinds = validate_kinds(kinds)
        self.events: list[TraceEvent] = []

    def wants(self, kind: str) -> bool:
        """True when events of ``kind`` are captured (cheap hot-path guard)."""
        return kind in self.kinds

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **detail
    ) -> None:
        """Append one event (silently skipped for filtered kinds)."""
        if kind in self.kinds:
            self.events.append(
                TraceEvent(
                    time_us=time_us, kind=kind, oid=oid, node=node,
                    detail=detail,
                )
            )

    # -- queries ------------------------------------------------------------

    def of_kind(self, kind: str, oid: int | None = None) -> list[TraceEvent]:
        """Events of one kind, optionally restricted to one object."""
        return [
            e for e in self.events
            if e.kind == kind and (oid is None or e.oid == oid)
        ]

    def migrations(self, oid: int | None = None) -> list[TraceEvent]:
        """Migration events, optionally for one object."""
        return self.of_kind("migration", oid)

    def home_path(self, oid: int, initial_home: int) -> list[int]:
        """The sequence of homes an object lived at.

        Complete only when migration events are captured: with ``kinds``
        excluding ``"migration"`` the path is just ``[initial_home]``.
        """
        path = [initial_home]
        for event in self.migrations(oid):
            path.append(event.detail["new_home"])
        return path

    def threshold_series(self, oid: int) -> list[tuple[float, float]]:
        """(time, live threshold) at every migration decision for ``oid``."""
        return [
            (e.time_us, e.detail["threshold"])
            for e in self.of_kind("decision", oid)
            if e.detail.get("threshold") is not None
        ]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceRecorder {len(self.events)} events>"
