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

    ``detail`` carries kind-specific fields:

    * ``migration`` — ``old_home``, ``new_home``, ``frozen_threshold``
    * ``redirect``  — ``obsolete_home``, ``requester``
    * ``decision``  — ``requester``, ``threshold``, ``consecutive``,
      ``exclusive_home_writes``, ``redirections``, ``migrated``,
      ``writer``, ``alpha``, ``base``
    * ``ship``      — ``home``, ``requester``
    * ``home_install`` — ``origin`` (``"initial"`` | ``"reply-mig"`` |
      ``"transfer"``), ``version``
    * ``diff_send``  — ``target``, ``size_bytes``, ``base_version``
    * ``diff_apply`` — ``writer``, ``size_bytes``, ``version_before``,
      ``version_after``
    * ``twin_create`` / ``twin_free`` — ``interval``
    * ``span_open``  — ``op`` (run-unique id), ``op_kind``, ``parent``
      (``op`` of the causing span or ``None``), plus kind-specific
      fields (``docs/PROTOCOL.md`` §14)
    * ``span_close`` — ``op``, ``op_kind``, plus kind-specific fields

    The first four kinds are the analysis timeline the bench reports
    consume; the next five are the conformance stream
    :class:`~repro.check.invariants.InvariantChecker` replays protocol
    invariants from (``docs/PROTOCOL.md`` §13); the span pair is the
    causal layer emitted by :class:`~repro.obs.spans.SpanTracer` that
    ``repro-bench analyze`` reconstructs operation trees from.
    """

    time_us: float
    kind: str
    oid: int
    node: int
    detail: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")
