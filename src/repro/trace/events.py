"""Trace event record."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

#: Event kinds the engine can emit.
KINDS = frozenset(
    {
        "migration",
        "redirect",
        "decision",
        "ship",
        "home_install",
        "diff_send",
        "diff_apply",
        "twin_create",
        "twin_free",
        "serve",
        "barrier_epoch",
        "span_open",
        "span_close",
    }
)

#: The two kinds a span is recorded as; a filter takes both or neither.
SPAN_PAIR = frozenset({"span_open", "span_close"})


def validate_kinds(kinds: Iterable[str] | None) -> frozenset[str]:
    """The capture filter a recorder/writer was asked for, checked.

    ``None`` means every kind.  Unknown kinds are rejected, and so is a
    filter naming exactly one of ``span_open``/``span_close``: half a
    pair would silently disable every span
    (:attr:`~repro.obs.spans.SpanTracer.enabled`) or write a trace
    ``repro-bench analyze`` then rejects.  Naming neither is fine — the
    span layer self-disables.
    """
    if kinds is None:
        return KINDS
    chosen = frozenset(kinds)
    unknown = chosen - KINDS
    if unknown:
        raise ValueError(f"unknown trace kinds {sorted(unknown)}")
    half = chosen & SPAN_PAIR
    if len(half) == 1:
        (missing,) = SPAN_PAIR - half
        raise ValueError(
            f"trace kinds name half a span pair: add {missing!r} "
            "(or drop both)"
        )
    return chosen


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped protocol event.

    ``detail`` carries the kind-specific fields listed per kind in
    ``docs/PROTOCOL.md`` §9.  The first four kinds are the analysis
    timeline the bench reports consume; the next five are the
    conformance stream :class:`~repro.check.invariants.InvariantChecker`
    replays protocol invariants from (§13); ``serve`` and
    ``barrier_epoch`` carry what only the metrics sink reads
    (:class:`~repro.obs.sinks.MetricsSink`); the span pair is the causal
    layer emitted by :class:`~repro.obs.spans.SpanTracer` that
    ``repro-bench analyze`` reconstructs operation trees from (§14).
    """

    time_us: float
    kind: str
    oid: int
    node: int
    detail: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")
