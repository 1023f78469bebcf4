"""Offline analytics over saved JSONL traces (``repro-bench analyze``).

Consumes a JSONL trace (``--trace-out`` on any figure or ablation
sweep, or :func:`~repro.bench.record.record_trace`) and reports, for
any trace:

* **Event counts** — what the trace captured, per event kind;
* **One object's story** — the migration hops of one object (``oid``,
  by default the most-migrated one) with the threshold frozen at each,
  its home path, and its Eq-2 threshold series at every migration
  decision.

From a trace recorded with span kinds enabled (``repro.obs.spans``,
the default) it also reconstructs, in virtual time:

* **Per-kind latency** — a deterministic
  :class:`~repro.obs.hist.LatencyHistogram` per operation kind with
  exact-rank p50/p95/p99/p999;
* **Critical paths** — which component dominates the slowest read
  misses: the forwarding chain (summed ``redirect_hop`` child spans) or
  the residual home-queue + network time;
* **Chain lengths** — redirection hops per fault, the paper's ``R``
  signal seen end-to-end;
* **Migration timelines** — for the most-migrated objects, the Eq-2
  threshold range over their decisions vs. the migrations that fired;
* **Epoch throughput** — spans closed per barrier epoch and ops/sec of
  simulated time.

The report is a plain dict of JSON types and is **backend-independent**
by construction: nothing from the trace meta line (backend name, kernel
build hash, file path) enters it, so the CI parity job can diff the
markdown of a python-backend run against a compiled-backend run
byte-for-byte.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from repro.obs.export import iter_trace
from repro.obs.hist import EpochSeries, LatencyHistogram
from repro.bench.report import fmt, format_table

__all__ = ["analyze_trace", "render_analysis", "REPORT_SCHEMA"]

REPORT_SCHEMA = "repro-slo-report-v2"

#: Stable display/report order for span kinds.
KIND_ORDER = (
    "request",
    "read_miss",
    "write_miss",
    "migration",
    "redirect_hop",
    "diff_flush",
    "ship",
    "lock_acquire",
    "lock_release",
    "barrier_wait",
)

#: Kinds counted as application-facing operations for epoch throughput
#: (system-internal children — hops, migrations — are excluded).
THROUGHPUT_KINDS = frozenset(
    {"request", "read_miss", "write_miss", "diff_flush", "ship",
     "lock_acquire", "lock_release"}
)

#: What a report on a trace without spans opens with.
NO_SPANS_HINT = (
    "no spans in this trace — re-record it with span kinds enabled (the "
    "default for repro-bench --trace-out and "
    "repro.bench.record.record_trace) to get causal analytics"
)

#: Exemplar critical paths listed for the slowest read misses.
MAX_CRITICAL_PATHS = 5
#: Objects listed in the migration-timeline section.
MAX_MIGRATION_OBJECTS = 8
#: Rows shown of any long series (hops, threshold samples, epochs).
MAX_TIMELINE_ROWS = 12


@dataclass
class _Span:
    op: int
    op_kind: str
    oid: int
    node: int
    open_us: float
    parent: int | None
    close_us: float | None = None
    round_no: int | None = None  # barrier_wait spans only
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float | None:
        if self.close_us is None:
            return None
        return self.close_us - self.open_us


def _load(path: str):
    """One streaming pass: spans, decision/migration events, counts."""
    spans: dict[int, _Span] = {}
    double_close = 0
    unmatched_close = 0
    decisions: dict[int, list[dict]] = {}
    migrations: dict[int, list[dict]] = {}
    kind_counts: Counter = Counter()
    oid_counts: Counter = Counter()
    for event in iter_trace(path):
        kind = event.kind
        kind_counts[kind] += 1
        oid_counts[event.oid] += 1
        if kind == "span_open":
            d = event.detail
            op = d["op"]
            span = _Span(
                op=op,
                op_kind=d.get("op_kind", "?"),
                oid=event.oid,
                node=event.node,
                open_us=event.time_us,
                parent=d.get("parent"),
                round_no=d.get("round"),
            )
            spans[op] = span
            parent = spans.get(span.parent) if span.parent is not None else None
            if parent is not None:
                parent.children.append(op)
        elif kind == "span_close":
            span = spans.get(event.detail["op"])
            if span is None:
                unmatched_close += 1
            elif span.close_us is not None:
                double_close += 1
            else:
                span.close_us = event.time_us
        elif kind == "decision":
            d = event.detail
            decisions.setdefault(event.oid, []).append(
                {
                    "t": event.time_us,
                    "threshold": d.get("threshold"),
                    "consecutive": d.get("consecutive"),
                    "requester": d.get("requester"),
                    "migrated": bool(d.get("migrated")),
                }
            )
        elif kind == "migration":
            d = event.detail
            migrations.setdefault(event.oid, []).append(
                {
                    "t": event.time_us,
                    "old_home": d.get("old_home"),
                    "new_home": d.get("new_home"),
                    "frozen_threshold": d.get("frozen_threshold"),
                }
            )
    return (spans, decisions, migrations, kind_counts, oid_counts,
            double_close, unmatched_close)


def _critical_path(span: _Span, spans: dict[int, _Span]) -> dict:
    """Decompose one fault span: forwarding chain vs. everything else."""
    redirect_us = 0.0
    hops = 0
    migration_us = None
    for child_op in span.children:
        child = spans.get(child_op)
        if child is None or child.duration is None:
            continue
        if child.op_kind == "redirect_hop":
            redirect_us += child.duration
            hops += 1
        elif child.op_kind == "migration":
            migration_us = child.duration
    total = span.duration or 0.0
    residual = max(0.0, total - redirect_us)
    return {
        "oid": span.oid,
        "node": span.node,
        "open_us": span.open_us,
        "total_us": total,
        "hops": hops,
        "redirect_us": redirect_us,
        "residual_us": residual,
        "migration_us": migration_us,
        "dominant": "forwarding-chain" if redirect_us > residual
        else "home+network",
    }


def _pick_oid(migrations: dict, oid_counts: Counter) -> int | None:
    """The object with the most migrations (ties: lowest oid), else the
    most-traced object, else ``None`` for an empty trace."""
    for counts in ({oid: len(m) for oid, m in migrations.items()}, oid_counts):
        if counts:
            return min(counts, key=lambda oid: (-counts[oid], oid))
    return None


def _object_section(oid: int, decisions: dict, migrations: dict) -> dict:
    """One object's migration hops, home path and Eq-2 threshold series."""
    hops = migrations.get(oid, [])
    series = [d for d in decisions.get(oid, []) if d["threshold"] is not None]
    threshold = None
    if series:
        values = [d["threshold"] for d in series]
        threshold = {
            "points": len(series),
            "first": values[0],
            "last": values[-1],
            "min": min(values),
            "max": max(values),
            "samples": _sample_rows(series, MAX_TIMELINE_ROWS),
        }
    return {
        "oid": oid,
        "hops": hops,
        "home_path": _home_path(hops),
        "threshold": threshold,
    }


def _home_path(hops: list[dict]) -> list:
    """The homes an object lived at: origin, then each hop's new home."""
    return [hops[0]["old_home"]] + [h["new_home"] for h in hops] if hops else []


def analyze_trace(path: str, oid: int | None = None) -> dict:
    """Build the report dict for one trace file.

    ``oid`` picks the object of the object section (default: the one
    with the most migrations, ties to the lowest oid, else the
    most-traced object).
    """
    (spans, decisions, migrations, kind_counts, oid_counts,
     double_close, unmatched_close) = _load(path)
    if oid is None:
        oid = _pick_oid(migrations, oid_counts)

    completed = [s for s in spans.values() if s.close_us is not None]
    unclosed = [s for s in spans.values() if s.close_us is None]
    orphans = sum(
        1 for s in spans.values()
        if s.parent is not None and s.parent not in spans
    )

    # -- per-kind latency ---------------------------------------------------
    hists: dict[str, LatencyHistogram] = {}
    for span in completed:
        hists.setdefault(span.op_kind, LatencyHistogram()).record(
            span.duration
        )
    latency = {
        kind: hists[kind].summary()
        for kind in KIND_ORDER
        if kind in hists
    }
    for kind in sorted(hists):  # kinds outside the canonical order
        if kind not in latency:
            latency[kind] = hists[kind].summary()

    # -- chain lengths ------------------------------------------------------
    chain_counts: dict[int, int] = {}
    faults = [
        s for s in completed if s.op_kind in ("read_miss", "write_miss")
    ]
    fault_chains: list[tuple[float, int]] = []  # (close_us, hops)
    for span in faults:
        hops = sum(
            1
            for child_op in span.children
            if spans.get(child_op) is not None
            and spans[child_op].op_kind == "redirect_hop"
        )
        chain_counts[hops] = chain_counts.get(hops, 0) + 1
        fault_chains.append((span.close_us, hops))
    fault_chains.sort()

    # -- critical paths of the slowest read misses --------------------------
    read_misses = [s for s in completed if s.op_kind == "read_miss"]
    read_hist = hists.get("read_miss")
    p99_value = read_hist.quantile(0.99) if read_hist is not None else None
    slowest = sorted(
        read_misses, key=lambda s: (-s.duration, s.open_us, s.op)
    )[:MAX_CRITICAL_PATHS]
    critical_paths = [_critical_path(s, spans) for s in slowest]

    # -- migration timelines ------------------------------------------------
    hot_oids = sorted(
        migrations, key=lambda oid: (-len(migrations[oid]), oid)
    )[:MAX_MIGRATION_OBJECTS]
    migration_objects = []
    for hot in hot_oids:
        migs = migrations[hot]
        decs = decisions.get(hot, [])
        thresholds = [
            d["threshold"] for d in decs if d["threshold"] is not None
        ]
        migration_objects.append(
            {
                "oid": hot,
                "migrations": len(migs),
                "decisions": len(decs),
                "threshold_first": thresholds[0] if thresholds else None,
                "threshold_last": thresholds[-1] if thresholds else None,
                "threshold_min": min(thresholds) if thresholds else None,
                "threshold_max": max(thresholds) if thresholds else None,
                "path": _home_path(migs),
            }
        )

    # -- epoch throughput ---------------------------------------------------
    # Epoch i ends when every thread's barrier_wait span for round i has
    # closed; ops are app-facing spans closed within the epoch window.
    epoch_series = EpochSeries()
    epochs: list[dict] = []
    barrier_rounds: dict[int, float] = {}
    for span in completed:
        if span.op_kind == "barrier_wait" and span.round_no is not None:
            prev = barrier_rounds.get(span.round_no)
            if prev is None or span.close_us > prev:
                barrier_rounds[span.round_no] = span.close_us
    if barrier_rounds:
        op_closes = sorted(
            s.close_us for s in completed if s.op_kind in THROUGHPUT_KINDS
        )
        boundaries = sorted(barrier_rounds.items())
        start = 0.0
        idx = 0
        for round_no, end in boundaries:
            n = 0
            while idx < len(op_closes) and op_closes[idx] <= end:
                n += 1
                idx += 1
            window = end - start
            epoch_series.note(round_no, n)
            epochs.append(
                {
                    "epoch": round_no,
                    "end_us": end,
                    "ops": n,
                    "ops_per_s": (n / (window / 1e6)) if window > 0 else None,
                }
            )
            start = end
        tail = len(op_closes) - idx
        if tail:
            epochs.append(
                {"epoch": None, "end_us": None, "ops": tail,
                 "ops_per_s": None}
            )

    # -- per-epoch fan-out --------------------------------------------------
    # The release burst depth is visible as the spread between the first
    # and last barrier_wait close of one round: every waiter is released
    # by the same barrier manager, so the spread is exactly how deep the
    # release fan-out serialized (O(N) at one NIC for the flat burst,
    # O(log_k N) under the multicast relay).  Redirect chain lengths are
    # bucketed into the same epoch windows, giving chain growth over the
    # run instead of one aggregate.
    fanout_epochs: list[dict] = []
    rounds: dict[int, list[float]] = {}
    for span in completed:
        if span.op_kind == "barrier_wait" and span.round_no is not None:
            rounds.setdefault(span.round_no, []).append(span.close_us)
    chain_idx = 0
    for round_no in sorted(rounds):
        closes = sorted(rounds[round_no])
        end = closes[-1]
        hops_in_epoch: list[int] = []
        while chain_idx < len(fault_chains) and fault_chains[chain_idx][0] <= end:
            hops_in_epoch.append(fault_chains[chain_idx][1])
            chain_idx += 1
        fanout_epochs.append(
            {
                "epoch": round_no,
                "parties": len(closes),
                "release_first_us": closes[0],
                "release_last_us": end,
                "release_spread_us": end - closes[0],
                "faults": len(hops_in_epoch),
                "mean_chain": (
                    sum(hops_in_epoch) / len(hops_in_epoch)
                    if hops_in_epoch else None
                ),
                "max_chain": max(hops_in_epoch) if hops_in_epoch else None,
            }
        )

    return {
        "schema": REPORT_SCHEMA,
        "events": sum(kind_counts.values()),
        "event_counts": dict(sorted(kind_counts.items())),
        "object": (
            None if oid is None
            else _object_section(oid, decisions, migrations)
        ),
        "spans": {
            "opened": len(spans),
            "closed": len(completed),
            "unclosed": len(unclosed),
            "orphans": orphans,
            "double_close": double_close,
            "unmatched_close": unmatched_close,
        },
        "latency_us": latency,
        "read_miss_p99_us": p99_value,
        "chain_lengths": {
            str(hops): chain_counts[hops] for hops in sorted(chain_counts)
        },
        "critical_paths": critical_paths,
        "migration_objects": migration_objects,
        "epoch_throughput": epochs,
        "epoch_ops": epoch_series.to_dict(),
        "epoch_fanout": fanout_epochs,
    }


def render_analysis(report: dict) -> str:
    """Render the report as markdown-flavoured plain text.

    Deterministic and backend-independent: contains only values from
    the report dict (no paths, no backend names, no wall time).  A
    trace without spans opens with how to re-record it instead of the
    span sections.
    """
    blocks: list[str] = []
    sp = report["spans"]
    if sp["opened"] == 0:
        blocks.append(NO_SPANS_HINT)
    else:
        blocks.append(
            f"# SLO report — {report['events']} events, "
            f"{sp['opened']} spans"
        )
        blocks.append(
            f"span health: {sp['closed']} closed, {sp['unclosed']} "
            f"unclosed, {sp['orphans']} orphans, {sp['double_close']} "
            f"double-closes, {sp['unmatched_close']} unmatched closes"
        )
    blocks.append(
        format_table(
            ["kind", "events"],
            [[kind, n] for kind, n in report["event_counts"].items()],
            title=f"Trace events by kind — {report['events']} events",
        )
    )

    rows = []
    for kind, summary in report["latency_us"].items():
        rows.append(
            [
                kind,
                summary["count"],
                fmt(summary["p50"]),
                fmt(summary["p95"]),
                fmt(summary["p99"]),
                fmt(summary["p999"]),
                fmt(summary["max"]),
            ]
        )
    if rows:
        blocks.append(
            format_table(
                ["kind", "count", "p50_us", "p95_us", "p99_us",
                 "p999_us", "max_us"],
                rows,
                title="Latency by operation kind (virtual us)",
            )
        )

    if report["chain_lengths"]:
        blocks.append(
            format_table(
                ["hops", "faults"],
                [[h, n] for h, n in report["chain_lengths"].items()],
                title="Redirection chain length distribution",
            )
        )

    if report["critical_paths"]:
        rows = [
            [
                fmt(cp["total_us"]),
                cp["oid"],
                cp["node"],
                cp["hops"],
                fmt(cp["redirect_us"]),
                fmt(cp["residual_us"]),
                fmt(cp["migration_us"]),
                cp["dominant"],
            ]
            for cp in report["critical_paths"]
        ]
        title = "Critical paths — slowest read misses"
        p99 = report.get("read_miss_p99_us")
        if p99 is not None:
            title += f" (p99 = {p99:.1f} us)"
        blocks.append(
            format_table(
                ["total_us", "oid", "node", "hops", "redirect_us",
                 "residual_us", "migration_us", "dominant"],
                rows,
                title=title,
            )
        )

    if report["migration_objects"]:
        rows = [
            [
                m["oid"],
                m["migrations"],
                m["decisions"],
                fmt(m["threshold_first"], 3),
                fmt(m["threshold_last"], 3),
                fmt(m["threshold_min"], 3),
                fmt(m["threshold_max"], 3),
                "->".join(str(n) for n in m["path"][:10]),
            ]
            for m in report["migration_objects"]
        ]
        blocks.append(
            format_table(
                ["oid", "migs", "decisions", "T_first", "T_last",
                 "T_min", "T_max", "home_path"],
                rows,
                title="Migration-decision timelines (hottest objects)",
            )
        )

    if report["object"] is None:
        blocks.append("(empty trace: no events to report on)")
    else:
        blocks.extend(_render_object(report["object"]))

    if report.get("epoch_fanout"):
        rows = [
            [
                e["epoch"],
                e["parties"],
                fmt(e["release_spread_us"]),
                e["faults"],
                fmt(e["mean_chain"], 2),
                fmt(e["max_chain"]),
            ]
            for e in _sample_rows(report["epoch_fanout"], MAX_TIMELINE_ROWS)
        ]
        blocks.append(
            format_table(
                ["epoch", "parties", "release_spread_us", "faults",
                 "mean_chain", "max_chain"],
                rows,
                title=(
                    "Per-epoch fan-out — release burst depth and "
                    "redirect chains"
                ),
            )
        )

    if report["epoch_throughput"]:
        rows = [
            [
                e["epoch"] if e["epoch"] is not None else "tail",
                fmt(e["end_us"]),
                e["ops"],
                fmt(e["ops_per_s"]),
            ]
            for e in _sample_rows(report["epoch_throughput"],
                                  MAX_TIMELINE_ROWS)
        ]
        blocks.append(
            format_table(
                ["epoch", "end_us", "ops", "ops_per_s"],
                rows,
                title="Per-barrier-epoch throughput (simulated time)",
            )
        )

    return "\n\n".join(blocks) + "\n"


def _render_object(obj: dict) -> list[str]:
    """The object section: migration hops, home path, threshold series."""
    oid = obj["oid"]
    blocks = []
    hops = obj["hops"]
    if hops:
        path = obj["home_path"]
        path_text = " -> ".join(map(str, path[:MAX_TIMELINE_ROWS]))
        if len(path) > MAX_TIMELINE_ROWS:
            path_text += f" -> ... ({len(hops)} hops)"
        rows = [
            [fmt(h["t"]), h["old_home"], h["new_home"],
             fmt(h["frozen_threshold"], 3)]
            for h in _sample_rows(hops, MAX_TIMELINE_ROWS)
        ]
        blocks.append(
            format_table(
                ["time_us", "old_home", "new_home", "frozen_T"],
                rows,
                title=f"Object {oid} — {len(hops)} migrations "
                f"(home path {path_text})",
            )
        )
    else:
        blocks.append(f"Object {oid}: no migration events in this trace")
    thr = obj["threshold"]
    if thr is None:
        blocks.append(
            f"Object {oid}: no threshold series (decision events absent "
            "or kind-filtered)"
        )
        return blocks
    summary = format_table(
        ["points", "first", "last", "min", "max"],
        [[thr["points"], fmt(thr["first"], 3), fmt(thr["last"], 3),
          fmt(thr["min"], 3), fmt(thr["max"], 3)]],
        title=f"Object {oid} — adaptive threshold at migration decisions",
    )
    samples = format_table(
        ["t_us", "threshold", "C", "requester", "decision"],
        [
            [fmt(d["t"]), fmt(d["threshold"], 3), d["consecutive"],
             d["requester"], "migrate" if d["migrated"] else "stay"]
            for d in thr["samples"]
        ],
    )
    blocks.append(summary + "\n" + samples)
    return blocks


def _sample_rows(rows: list, limit: int) -> list:
    """At most ``limit`` evenly spaced rows, always keeping first/last."""
    if len(rows) <= limit:
        return rows
    step = (len(rows) - 1) / (limit - 1)
    picked = [rows[round(i * step)] for i in range(limit)]
    picked[-1] = rows[-1]
    return picked


def write_json_report(report: dict, path: str) -> None:
    """Write the report dict as stable, sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
