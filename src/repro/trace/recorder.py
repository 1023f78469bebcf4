"""Trace recorder and query helpers."""

from __future__ import annotations

from collections import deque
from typing import Iterable, MutableSequence

from repro.trace.events import TraceEvent, validate_kinds


class TraceRecorder:
    """Collects :class:`~repro.trace.events.TraceEvent` during a run.

    ``kinds`` restricts capture (decision events in particular are
    frequent); by default everything is recorded.  The recorder is the
    trace-event half of the tracer protocol (``wants``/``record``) and
    deliberately has no span methods, so spans reach it as
    ``span_open``/``span_close`` events (``repro.obs.spans``).  It is
    for streams that are read back; a consumer that only folds spans
    should be the run's tracer itself (``repro.bench.serving``).

    ``max_events`` bounds memory: when set, the recorder keeps only the
    *newest* ``max_events`` events, dropping the oldest and counting the
    casualties in :attr:`dropped`.  Beware the interaction with
    :meth:`home_path`: the path is reconstructed by replaying migration
    events from ``initial_home``, so if early migrations were dropped the
    reconstructed path starts mid-journey (its first hop is no longer the
    true initial home).  Check ``dropped == 0`` — or use the streaming
    :class:`~repro.obs.export.JsonlTraceWriter`, which needs no bound —
    before trusting full-history queries on a bounded recorder.
    """

    def __init__(
        self,
        kinds: Iterable[str] | None = None,
        max_events: int | None = None,
    ):
        self.kinds = validate_kinds(kinds)
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.dropped = 0
        #: Subset of :attr:`dropped` that were span events
        #: (``span_open``/``span_close``): losing one breaks the causal
        #: tree for its operation, so the JVM emits a WARN at run end
        #: when this is nonzero.
        self.dropped_spans = 0
        self.events: MutableSequence[TraceEvent] = (
            [] if max_events is None else deque(maxlen=max_events)
        )

    def wants(self, kind: str) -> bool:
        """True when events of ``kind`` are captured (cheap hot-path guard)."""
        return kind in self.kinds

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **detail
    ) -> None:
        """Append one event (silently skipped for filtered kinds)."""
        if kind in self.kinds:
            if (
                self.max_events is not None
                and len(self.events) == self.max_events
            ):
                self.dropped += 1  # deque(maxlen) evicts the oldest
                if self.events[0].kind in ("span_open", "span_close"):
                    self.dropped_spans += 1
            event = TraceEvent(
                time_us=time_us, kind=kind, oid=oid, node=node,
                detail=detail,
            )
            self.events.append(event)

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

        Complete only when every migration event survived capture: with
        ``kinds`` excluding ``"migration"`` the path is just
        ``[initial_home]``, and with a ``max_events`` bound that dropped
        early migrations the replay starts mid-journey (see the class
        docstring).
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
