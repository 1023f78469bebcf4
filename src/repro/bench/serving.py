"""SLO measurement over serving episodes (``repro-bench serve``).

Runs a :class:`~repro.apps.serving.ServingSpec` episode with request
spans folded *where they are emitted* — the run's tracer is the
collector itself, a span sink (``repro.obs.spans``) that folds every
``request`` span into per-class
:class:`~repro.obs.hist.LatencyHistogram` instances and a per-epoch
:class:`~repro.obs.hist.EpochSeries` in one call at its close, so a
256-node run materializes neither a JSONL trace nor an in-memory event
list — and renders a deterministic SLO report: per-epoch request
throughput and p50/p99/p999 request latency per request class.

The report is a plain dict of JSON types containing **only virtual-time
quantities** (no wall clock, no backend name, no paths), so the same
spec produces a byte-identical report under the python and compiled
backends; :func:`report_digest` pins that equality, and the CI serving
smoke byte-diffs the rendered markdown across backends.  Saturated tail
quantiles (too few samples to resolve p999 below the max — see
:meth:`~repro.obs.hist.LatencyHistogram.quantile_at`) are rendered with
a ``~`` marker instead of masquerading as resolved percentiles.

:func:`run_serving_race` runs the same traffic under several migration
policies (any names of :data:`repro.core.policies.POLICIES` that need no
parameters, e.g. NM/FT1/AT/ATD/JUMP) and tabulates them side by side —
racing policies on SLO terms rather than wall clock alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace
from functools import cached_property

from repro.apps.fromspec import SpecProgram
from repro.apps.serving import ServingSpec, build_serving_program
from repro.bench.report import fmt, format_table
from repro.gos.jvm import DistributedJVM, _cycle_collector_paused
from repro.obs.hist import EpochSeries, LatencyHistogram

__all__ = [
    "SERVE_POLICIES",
    "SERVE_SCHEMA",
    "render_race",
    "render_serving",
    "report_digest",
    "run_serving",
    "run_serving_race",
]

#: Schema tag stamped on every serve report dict.
SERVE_SCHEMA = "repro-serve-report-v1"

#: Policies the serve CLI's ``--policy`` accepts and races.  Any name of
#: :data:`repro.core.policies.POLICIES` works through
#: :class:`~repro.apps.serving.ServingSpec`; this is the CLI's menu.
SERVE_POLICIES = ("NM", "AT", "ATD", "JUMP", "LF", "JIAJIA")


class _RequestCollector:
    """The serving run's tracer: folds spans online, records nothing.

    Handed to :class:`~repro.gos.jvm.DistributedJVM` as ``tracer``.  It
    wants no trace-event kind and provides the span half of the tracer
    protocol (``repro.obs.spans``), so each span reaches it as one
    positional call and no event object is ever built; no span kind but
    the two it declares is opened.  A request reaches it once, completed
    at its close (:meth:`span_completed`, its one fold path); a barrier
    wait as an open and a close.  It holds per-class latency counts
    (:attr:`hists` folds them), per-epoch request counts, and the close
    time of each barrier round (the epoch windows); everything it
    accumulates is a deterministic function of the span stream.
    """

    span_kinds = frozenset({"request", "barrier_wait"})

    def __init__(self) -> None:
        #: class -> latency -> count (most repeat: a local hit is 0.0 µs)
        self._latencies: dict[str, dict[float, int]] = {}
        self.epoch_requests = EpochSeries()
        self.barrier_close: dict[int, float] = {}
        self.requests = 0
        self._open_barriers: dict[int, int] = {}

    def wants(self, kind: str) -> bool:
        """No trace event is captured; spans arrive through the sink calls."""
        return False

    def span_completed(
        self, op, op_kind, open_us, close_us, oid, node, parent, detail
    ):
        """Span sink: fold one request (the only kind it reads completed)."""
        self.requests += 1
        cls = detail["cls"]
        counts = self._latencies.get(cls)
        if counts is None:
            counts = self._latencies[cls] = {}
        latency = close_us - open_us
        counts[latency] = counts.get(latency, 0) + 1
        epochs = self.epoch_requests.counts
        epoch = detail["epoch"]
        epochs[epoch] = epochs.get(epoch, 0) + 1

    def span_open(self, op, op_kind, time_us, oid, node, parent, detail):
        """Span sink: note an opening ``barrier_wait``."""
        self._open_barriers[op] = detail["round"]

    def span_close(self, op, op_kind, time_us, oid, node, detail):
        """Span sink: a closing ``barrier_wait`` may end its round's
        window; a close with no matching open is ignored."""
        round_no = self._open_barriers.pop(op, None)
        if round_no is not None:
            prev = self.barrier_close.get(round_no)
            if prev is None or time_us > prev:
                self.barrier_close[round_no] = time_us

    @cached_property
    def hists(self) -> dict[str, LatencyHistogram]:
        """Per-class latency histograms, folded on first read: each
        distinct latency once with ``record(value, n)``, which is
        bit-identical to recording every request (integer tick sum)."""
        hists: dict[str, LatencyHistogram] = {}
        for cls, counts in self._latencies.items():
            hist = hists[cls] = LatencyHistogram()
            for latency, n in counts.items():
                hist.record(latency, n)
        return hists


def run_serving(spec: ServingSpec) -> dict:
    """Run one serving episode and return its deterministic SLO report.

    The episode expands to a ProgramSpec, runs on a fresh simulated
    cluster whose tracer is the span-folding collector, and the report is
    assembled from that collector plus the run's deterministic counters —
    per request class latency (p50/p99/p999 with saturation flags) and
    per-epoch throughput in simulated time.  CPython's cyclic collector
    is paused for the call (traffic expansion included) and the caller's
    collector state is restored afterwards.
    """
    # The episode's frame is gone before the collector resumes, so the
    # expanded traffic is freed by reference counting, not traversed.
    with _cycle_collector_paused():
        return _serve(spec)


def _serve(spec: ServingSpec) -> dict:
    """:func:`run_serving`'s episode and report, without the pause."""
    pspec = build_serving_program(spec)
    program = SpecProgram(pspec)
    collector = _RequestCollector()
    jvm = DistributedJVM(spec.cluster(pspec.manager_node), tracer=collector)
    result = jvm.run(program, nthreads=pspec.nthreads)

    latency: dict[str, dict] = {
        cls: collector.hists[cls].summary()
        for cls in sorted(collector.hists)
    }
    if collector.hists:
        latency["all"] = LatencyHistogram.merged(
            collector.hists[cls] for cls in sorted(collector.hists)
        ).summary()

    epochs: list[dict] = []
    start = 0.0
    counts = collector.epoch_requests.counts
    for epoch in range(spec.phases):
        end = collector.barrier_close.get(epoch)
        n = counts.get(epoch, 0)
        window = (end - start) if end is not None else None
        epochs.append(
            {
                "epoch": epoch,
                "requests": n,
                "end_us": end,
                "window_us": window,
                "req_per_s": (
                    n / (window / 1e6) if window else None
                ),
            }
        )
        if end is not None:
            start = end

    stats = result.stats
    return {
        "schema": SERVE_SCHEMA,
        "config": asdict(spec),
        "nodes": pspec.nodes,
        "threads": pspec.nthreads,
        "policy": spec.policy,
        "requests": collector.requests,
        "spans": {"opened": collector.requests, "closed": collector.requests},
        "sim_time_us": result.execution_time_us,
        "migrations": result.migrations,
        "messages": stats.total_messages(),
        "bytes_total": stats.total_bytes(),
        "latency_us": latency,
        "epoch_throughput": epochs,
        "epoch_requests": collector.epoch_requests.to_dict(),
    }


def report_digest(report: dict) -> str:
    """sha256 over the canonical JSON of a serve report.

    The cross-backend identity pin: python and compiled backends must
    produce this exact digest for the same :class:`ServingSpec`.
    """
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _quantile_cell(summary: dict, name: str) -> str:
    """One quantile cell, ``~``-prefixed when saturated at the max."""
    value = summary.get(name)
    if value is None:
        return "-"
    marker = "~" if name in summary.get("estimated", ()) else ""
    return f"{marker}{value:.1f}"


def render_serving(report: dict) -> str:
    """Render one serve report as markdown-flavoured plain text.

    Deterministic and backend-independent — contains only virtual-time
    values from the report dict.
    """
    cfg = report["config"]
    blocks = [
        f"# Serving SLO report — policy {report['policy']}, "
        f"{report['nodes']} nodes, {report['requests']} requests",
        (
            f"traffic: {cfg['keys']} keys, zipf_s={cfg['zipf_s']}, "
            f"{cfg['arrival']}-loop arrivals, "
            f"read_fraction={cfg['read_fraction']}, "
            f"churn={cfg['churn']}, {cfg['phases']} phases, "
            f"seed={cfg['seed']}"
            + (f", topology={cfg['topology']}" if cfg["topology"] else "")
        ),
        (
            f"run: sim_time={report['sim_time_us'] / 1e6:.4f}s, "
            f"migrations={report['migrations']}, "
            f"messages={report['messages']}"
        ),
    ]

    rows = []
    for cls, summary in report["latency_us"].items():
        rows.append(
            [
                cls,
                summary["count"],
                fmt(summary["mean"]),
                _quantile_cell(summary, "p50"),
                _quantile_cell(summary, "p99"),
                _quantile_cell(summary, "p999"),
                fmt(summary["max"]),
            ]
        )
    if rows:
        blocks.append(
            format_table(
                ["class", "count", "mean_us", "p50_us", "p99_us",
                 "p999_us", "max_us"],
                rows,
                title="Request latency by class (virtual us; ~ = "
                "saturated estimate, too few samples)",
            )
        )

    rows = [
        [
            e["epoch"],
            e["requests"],
            fmt(e["end_us"]),
            fmt(e["req_per_s"]),
        ]
        for e in report["epoch_throughput"]
    ]
    if rows:
        blocks.append(
            format_table(
                ["epoch", "requests", "end_us", "req_per_s"],
                rows,
                title="Per-epoch request throughput (simulated time)",
            )
        )
    return "\n\n".join(blocks) + "\n"


def run_serving_race(spec: ServingSpec, policies: list[str]) -> dict:
    """Run identical traffic under several policies; report side by side.

    Every leg reuses the same :class:`ServingSpec` with only the policy
    swapped, so the request sequence, key popularity and arrivals are
    identical — the SLO deltas isolate the migration policy.
    """
    legs = {}
    for policy in policies:
        legs[policy] = run_serving(
            replace(spec, policy=policy, policy_params={})
        )
    return {"schema": SERVE_SCHEMA + "-race", "policies": legs}


def render_race(race: dict) -> str:
    """Tabulate a policy race: one row per policy, SLO columns."""
    rows = []
    for policy, report in race["policies"].items():
        summary = report["latency_us"].get("all", {})
        rows.append(
            [
                policy,
                report["requests"],
                f"{report['sim_time_us'] / 1e6:.4f}",
                report["migrations"],
                report["messages"],
                _quantile_cell(summary, "p50"),
                _quantile_cell(summary, "p99"),
                _quantile_cell(summary, "p999"),
            ]
        )
    return format_table(
        ["policy", "requests", "sim_s", "migrations", "messages",
         "p50_us", "p99_us", "p999_us"],
        rows,
        title="Policy race — same traffic, SLO terms",
    ) + "\n"
