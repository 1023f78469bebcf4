"""Causal operation spans over the trace stream.

A *span* brackets one logical DSM operation — a read/write miss, a diff
flush, a home migration, a redirection hop, a lock acquire/release, a
barrier wait, a shipped computation — in **virtual time**.  Each span
gets a run-unique integer ``op`` id from a single monotonically
increasing counter shared by every engine in the run; the id is threaded
through protocol messages and pending queues so events caused by the
operation on *other* nodes link back via ``parent`` → a reconstructable
causal tree per operation.

Where a span goes is the tracer's choice — the tracer protocol has two
parts.  Every tracer has ``wants(kind)``/``record(...)`` for trace
events.  A tracer that *consumes* spans rather than storing them (the
serving tier's SLO collector, ``repro.bench.serving``) may also provide
the span half, resolved once at :class:`SpanTracer` construction and
called positionally::

    span_open(op, op_kind, time_us, oid, node, parent, detail)
    span_close(op, op_kind, time_us, oid, node, detail)

``detail`` (the kind-specific fields) is borrowed: a sink must neither
keep nor mutate it.  A sink may also declare ``span_kinds``, the
frozenset of kinds it reads; a kind it does not read is never opened
(:func:`span_guard`).  For a tracer without that pair
(:class:`~repro.trace.recorder.TraceRecorder`,
:class:`~repro.obs.export.JsonlTraceWriter`, any ``wants``/``record``
duck type) a span is recorded as two ordinary trace events:

``span_open``
    ``detail = {"op": id, "op_kind": kind, "parent": id-or-None, ...}``
``span_close``
    ``detail = {"op": id, "op_kind": kind, ...}``

Determinism: ids come from deterministic allocation order (the simulator
dispatches events in a bit-identical order under both backends), and
this module never consults the wall clock — virtual timestamps are
passed in by the caller (``tests/test_seed_discipline.py`` audits this
file for wall-clock reads).
"""

from __future__ import annotations

from typing import Any

__all__ = ["SPAN_KINDS", "SPAN_OPEN", "SPAN_CLOSE", "SpanTracer", "span_guard"]

#: Logical operation kinds a span may carry (``op_kind`` detail field).
#: ``request`` is the application-level kind: one serving-tier request
#: (open before the guarding lock is acquired, closed after release), so
#: its duration is the end-to-end request latency including lock wait
#: and every coherence fault the request triggered.
SPAN_KINDS = frozenset(
    {
        "read_miss",
        "write_miss",
        "diff_flush",
        "migration",
        "redirect_hop",
        "lock_acquire",
        "lock_release",
        "barrier_wait",
        "ship",
        "request",
    }
)

#: Trace-event kinds emitted by this module (registered in repro.trace.events).
SPAN_OPEN = "span_open"
SPAN_CLOSE = "span_close"


class SpanTracer:
    """Allocates run-unique op ids and records span open/close events.

    One ``SpanTracer`` is shared by all engines of a run (constructed in
    :class:`~repro.gos.space.GlobalObjectSpace`), which is what makes the
    ids run-unique.  ``kinds``, resolved once at construction, is a
    sink's declared ``span_kinds`` (all if none), every kind for a
    record-only tracer wanting both span events, else none; ``enabled``
    means at least one.  Hot paths guard on :func:`span_guard`.
    """

    __slots__ = (
        "tracer", "kinds", "enabled", "_next_id", "_sink_open", "_sink_close",
    )

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        sink = hasattr(tracer, "span_open") and hasattr(tracer, "span_close")
        self._sink_open = tracer.span_open if sink else None
        self._sink_close = tracer.span_close if sink else None
        if sink:
            kinds = frozenset(getattr(tracer, "span_kinds", SPAN_KINDS))
            if not kinds <= SPAN_KINDS:
                raise ValueError(
                    f"{type(tracer).__name__} declares unknown span kinds "
                    f"{sorted(kinds - SPAN_KINDS)}; known: {sorted(SPAN_KINDS)}")
        elif (
            tracer is not None
            and tracer.wants(SPAN_OPEN)
            and tracer.wants(SPAN_CLOSE)
        ):
            kinds = SPAN_KINDS
        else:
            kinds = frozenset()
        self.kinds = kinds
        self.enabled = bool(kinds)
        self._next_id = 0

    @property
    def issued(self) -> int:
        """Number of span ids handed out so far."""
        return self._next_id

    def open(
        self,
        op_kind: str,
        time_us: int,
        oid: int,
        node: int,
        parent: int | None = None,
        **detail: Any,
    ) -> int:
        """Open a span and return its run-unique op id."""
        if op_kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {op_kind!r}")
        op = self._next_id
        self._next_id = op + 1
        sink = self._sink_open
        if sink is not None:
            sink(op, op_kind, time_us, oid, node, parent, detail)
        else:
            self.tracer.record(
                SPAN_OPEN,
                time_us,
                oid,
                node,
                op=op,
                op_kind=op_kind,
                parent=parent,
                **detail,
            )
        return op

    def close(
        self,
        op: int,
        op_kind: str,
        time_us: int,
        oid: int,
        node: int,
        **detail: Any,
    ) -> None:
        """Close a previously opened span."""
        if op_kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {op_kind!r}")
        sink = self._sink_close
        if sink is not None:
            sink(op, op_kind, time_us, oid, node, detail)
        else:
            self.tracer.record(
                SPAN_CLOSE,
                time_us,
                oid,
                node,
                op=op,
                op_kind=op_kind,
                **detail,
            )

    def completed(
        self,
        op_kind: str,
        open_us: int,
        close_us: int,
        oid: int,
        node: int,
        parent: int | None = None,
        **detail: Any,
    ) -> int:
        """Record a span whose extent is only known after the fact.

        Used for redirection hops: the hop's duration is measured when
        the redirect reply arrives, so both events are recorded then —
        the ``span_open`` carries the earlier send timestamp.  Trace
        consumers must therefore sort by time rather than assume the
        stream is monotonic across kinds.
        """
        op = self.open(op_kind, open_us, oid, node, parent=parent, **detail)
        self.close(op, op_kind, close_us, oid, node)
        return op


def span_guard(spans: SpanTracer | None, kind: str) -> SpanTracer | None:
    """``spans`` if it opens ``kind``, else ``None``: a call site's cached
    guard, so an untaken kind costs one ``is not None`` check.

    ``kind`` is checked even without a tracer, so a misspelt call-site
    kind fails at construction instead of never being opened.
    """
    if kind not in SPAN_KINDS:
        raise ValueError(
            f"unknown span kind {kind!r}; known: {sorted(SPAN_KINDS)}")
    return spans if spans is not None and kind in spans.kinds else None
