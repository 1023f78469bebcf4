"""Streaming JSONL trace export and its reader.

A :class:`JsonlTraceWriter` is a drop-in for
:class:`~repro.trace.recorder.TraceRecorder` at every protocol record
site (it implements the same ``wants(kind)`` / ``record(...)`` tracer
protocol) but streams events to disk instead of accumulating them in
memory — the bounded-memory path for long runs with full ``kinds``.

File format (``repro-trace-v1``): one JSON object per line.  The first
line is a meta header ::

    {"schema": "repro-trace-v1", "kinds": ["decision", "migration", ...]}

and every following line is one event ::

    {"t": 10432.5, "kind": "migration", "oid": 3, "node": 0,
     "detail": {"old_home": 0, "new_home": 2, "frozen_threshold": 2.0}}

:func:`iter_trace` streams a file's events back as
:class:`~repro.trace.events.TraceEvent` values, equal to the ones an
in-memory :class:`~repro.trace.recorder.TraceRecorder` of the same run
holds; :func:`read_trace_meta` returns the meta line.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator, TextIO

from repro.trace.events import TraceEvent, validate_kinds

#: Schema tag written to (and required of) every trace file's meta line.
TRACE_SCHEMA = "repro-trace-v1"

#: Events buffered before an implicit flush to the underlying file.
DEFAULT_FLUSH_EVERY = 512


def _jsonable(value):
    """JSON encoder fallback: unwrap numpy scalars, stringify the rest."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


class JsonlTraceWriter:
    """Streams trace events to a JSONL file with bounded memory.

    Implements the trace-event half of the tracer protocol
    (``wants``/``record``; spans arrive as ``span_open``/``span_close``
    events, see ``repro.obs.spans``) so it can be passed wherever a
    :class:`~repro.trace.recorder.TraceRecorder` is accepted
    (``DistributedJVM(tracer=...)``).  Events are buffered and flushed
    every :data:`DEFAULT_FLUSH_EVERY` records and on :meth:`close`; use
    it as a context manager to guarantee the file is finalized::

        with JsonlTraceWriter("run.jsonl", kinds=["migration"]) as sink:
            DistributedJVM(..., tracer=sink).run(app)
    """

    def __init__(self, path: str, kinds: Iterable[str] | None = None) -> None:
        self.kinds = validate_kinds(kinds)
        self.path = path
        self.events_written = 0
        self._pending = 0
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        from repro import _kernel

        self._handle = open(path, "w", encoding="utf-8")
        self._handle.write(
            json.dumps(
                {
                    "schema": TRACE_SCHEMA,
                    "kinds": sorted(self.kinds),
                    "backend": _kernel.backend_name(),
                    "kernel_build_hash": _kernel.build_hash(),
                }
            )
            + "\n"
        )

    # -- tracer protocol ----------------------------------------------------

    def wants(self, kind: str) -> bool:
        """True when events of ``kind`` are captured (cheap hot-path guard)."""
        return kind in self.kinds

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **detail
    ) -> None:
        """Append one event line (no-op for filtered kinds)."""
        if kind not in self.kinds:
            return
        if self._handle.closed:
            raise ValueError(f"trace writer for {self.path!r} is closed")
        self._handle.write(
            json.dumps(
                {
                    "t": time_us,
                    "kind": kind,
                    "oid": oid,
                    "node": node,
                    "detail": detail,
                },
                default=_jsonable,
            )
            + "\n"
        )
        self.events_written += 1
        self._pending += 1
        if self._pending >= DEFAULT_FLUSH_EVERY:
            self._handle.flush()
            self._pending = 0

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<JsonlTraceWriter {self.path!r} "
            f"events={self.events_written}>"
        )


def _read_meta(handle: TextIO, path: str) -> dict:
    """Parse and validate the meta line at the head of ``handle``."""
    first = handle.readline()
    if not first:
        raise ValueError(f"{path!r} is empty (no meta line)")
    meta = json.loads(first)
    if not isinstance(meta, dict) or meta.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path!r} is not a {TRACE_SCHEMA} trace (bad meta line)"
        )
    return meta


def read_trace_meta(path: str) -> dict:
    """The parsed meta line of a trace file (schema, kinds, backend, ...).

    The ``backend`` key records which simulation backend produced the
    trace (``"python"`` or ``"compiled"``); ``kernel_build_hash`` is the
    compiled extension's build provenance (``None`` under the pure-Python
    backend).  Traces written before a key existed simply lack it.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return _read_meta(handle, path)


def iter_trace(path: str) -> Iterator[TraceEvent]:
    """Stream the events of a JSONL trace file one at a time."""
    with open(path, "r", encoding="utf-8") as handle:
        _read_meta(handle, path)
        for line in handle:
            if not line.strip():
                continue
            raw = json.loads(line)
            yield TraceEvent(
                time_us=raw["t"],
                kind=raw["kind"],
                oid=raw["oid"],
                node=raw["node"],
                detail=raw.get("detail", {}),
            )
