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
the span half, resolved once at :class:`SpanTracer` construction
(:func:`span_consumer`) and called positionally::

    span_open(op, op_kind, time_us, oid, node, parent, detail)
    span_close(op, op_kind, time_us, oid, node, detail)
    span_completed(op, op_kind, open_us, close_us, oid, node, parent, detail)

``span_completed`` is optional: it takes, in one call, a span whose
extent is final only at its close (:meth:`SpanTracer.completed`: a
redirection hop, a serving request); a sink without it gets that span
as a ``span_open`` and a ``span_close``, both at the close.  ``detail``
(the kind-specific fields) is borrowed: a sink must neither keep nor
mutate it.  A sink may also declare ``span_kinds``, the frozenset of
kinds it reads; a kind it does not read is never opened
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

__all__ = ["SPAN_KINDS", "SPAN_OPEN", "SPAN_CLOSE", "SpanTracer",
           "span_consumer", "span_guard"]

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


def span_consumer(tracer: Any) -> tuple:
    """Resolve how ``tracer`` takes spans: ``(kinds, open, close,
    completed)``, the kinds it reads and the three positional calls that
    hand it an opened, a closed and a completed span.

    A span sink (``span_open`` and ``span_close``) reads its declared
    ``span_kinds`` (every kind if it declares none) through its own
    methods; without ``span_completed`` a completed span reaches it as
    an open and a close, both at the close.  A record-only tracer that
    wants both span events reads every kind as those two events; any
    other tracer reads none.
    """
    if hasattr(tracer, "span_open") and hasattr(tracer, "span_close"):
        kinds = frozenset(getattr(tracer, "span_kinds", SPAN_KINDS))
        if not kinds <= SPAN_KINDS:
            raise ValueError(
                f"{type(tracer).__name__} declares unknown span kinds "
                f"{sorted(kinds - SPAN_KINDS)}; known: {sorted(SPAN_KINDS)}")
        span_open, span_close = tracer.span_open, tracer.span_close
        completed = getattr(tracer, "span_completed", None)
    elif (tracer is not None and tracer.wants(SPAN_OPEN)
          and tracer.wants(SPAN_CLOSE)):
        kinds, record, completed = SPAN_KINDS, tracer.record, None

        def span_open(op, op_kind, time_us, oid, node, parent, detail):
            record(SPAN_OPEN, time_us, oid, node,
                   op=op, op_kind=op_kind, parent=parent, **detail)

        def span_close(op, op_kind, time_us, oid, node, detail):
            record(SPAN_CLOSE, time_us, oid, node,
                   op=op, op_kind=op_kind, **detail)
    else:
        return frozenset(), None, None, None
    if completed is None:
        def completed(op, op_kind, open_us, close_us, oid, node, parent,
                      detail):
            span_open(op, op_kind, open_us, oid, node, parent, detail)
            span_close(op, op_kind, close_us, oid, node, {})
    return kinds, span_open, span_close, completed


class SpanTracer:
    """Allocates run-unique op ids and hands each span to the tracer.

    One ``SpanTracer`` is shared by all engines of a run (constructed in
    :class:`~repro.gos.space.GlobalObjectSpace`), which is what makes the
    ids run-unique.  ``kinds`` and the delivery calls are the tracer's
    :func:`span_consumer`, resolved once; ``enabled`` means at least one
    kind.  Hot paths guard on :func:`span_guard`, which checks the kind
    when the call site is built, so a span call checks nothing.
    """

    __slots__ = (
        "tracer", "kinds", "enabled", "_next_id", "_open", "_close",
        "_completed",
    )

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.kinds, self._open, self._close, self._completed = (
            span_consumer(tracer))
        self.enabled = bool(self.kinds)
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
        op = self._next_id
        self._next_id = op + 1
        self._open(op, op_kind, time_us, oid, node, parent, detail)
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
        self._close(op, op_kind, time_us, oid, node, detail)

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
        """Record a span whose extent is final only at its close.

        Used for redirection hops (the hop's duration is measured when
        the redirect reply arrives) and serving requests: the span is
        handed over once, at the close, and its open carries the earlier
        timestamp.  Trace consumers must therefore sort by time rather
        than assume the stream is monotonic across kinds.
        """
        op = self._next_id
        self._next_id = op + 1
        self._completed(op, op_kind, open_us, close_us, oid, node, parent,
                        detail)
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
