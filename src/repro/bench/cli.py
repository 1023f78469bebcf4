"""Command-line entry point: ``python -m repro.bench <target> [--full]``
(also installed as the ``repro-bench`` console script).

Targets: ``figure2``, ``figure3``, ``figure5``, ``ablation``, ``all``,
``check``, ``analyze``, ``sweep``, ``serve``.  ``--full`` uses the
paper's problem sizes (slow); the default quick sizes preserve every
qualitative shape.  ``--jobs N``
fans each sweep's independent runs out over N worker processes
(default: all usable cores; results are bit-identical for any value).
``--json PATH`` additionally dumps the raw result dictionaries to a
JSON file.

Observability flags (``figure2``, ``figure3``, ``figure5``,
``ablation`` and ``all``; any other target rejects them):
``--trace-out PATH`` streams every run's trace to per-run JSONL files;
``--metrics-out PATH`` writes the merged cross-run metrics snapshot as
JSON; ``--log-level LEVEL`` enables structured run logging on stderr.
``--progress`` prints a heartbeat line as each run completes.  The
``analyze`` target (below) renders a saved trace offline.

The ``check`` target runs the protocol conformance harness
(:mod:`repro.check`): ``repro-bench check --episodes N --seed S``
fuzzes N seeded episodes through the coherence oracle and the runtime
invariant checker, runs the mutation self-test, and exits non-zero on
any violation.  ``--corpus-out DIR`` saves every episode's program and
verdict as a replayable JSON corpus; ``--no-self-test`` skips the
mutation leg.

The ``sweep`` target runs the mechanism crossover lab
(:mod:`repro.bench.scale`): a ``nodes x mechanism x policy`` grid over
the migration-churn synthetic workload reporting, per policy, the
smallest N at which broadcast / multicast broadcast / the (sharded)
home manager beat the forwarding pointer on simulated time.
``--full`` extends the node grid to 256; ``--md PATH`` writes the
markdown table and ``--json PATH`` the raw grid (the CI scale-smoke
artifacts).

The ``analyze`` target is the one offline trace reader
(:mod:`repro.bench.analyze`):
``repro-bench analyze trace.jsonl [--oid N] [--json slo.json]`` (or
``--trace PATH``) prints the markdown report — per-kind event counts,
object N's migration hops, home path and Eq-2 threshold series
(default: the most-migrated object) and, for a trace recorded with
spans, per-kind latency percentiles, read-miss critical paths,
redirection chain lengths, migration-decision timelines and
per-barrier-epoch throughput; ``--json`` additionally writes the raw
report dict.  The trace's backend and kernel build go to stderr, so
stdout is identical across backends.  Record a trace with
:func:`repro.bench.record.record_trace` or any ``--trace-out`` sweep.

The ``serve`` target runs the serving-traffic workload tier
(:mod:`repro.bench.serving`): ``repro-bench serve --nodes 16
--policy AT --seed 0`` runs one deterministic Zipfian request episode
(PROTOCOL.md §16) and prints per-epoch request throughput plus
p50/p99/p999 request latency per class, ending with the report's
cross-backend digest.  ``--policy NM,AT,JUMP`` races several migration
policies over identical traffic; traffic knobs: ``--keys``,
``--requests`` (per thread per phase), ``--phases``, ``--zipf-s``,
``--read-fraction``, ``--churn``, ``--arrival {open,closed}``,
``--topology``, ``--release-fanout``.  ``check`` additionally takes
``--flavor {core,serving,mixed}`` to pick the episode generator family.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.ablation import (
    render_ablation,
    run_barrier_policy_ablation,
    run_decay_ablation,
    run_homeless_ablation,
    run_lambda_ablation,
    run_lock_discipline_ablation,
    run_network_ablation,
    run_notification_ablation,
    run_policy_ablation,
)
from repro.bench.executor import ObsSpec, RunOutcome, default_jobs
from repro.bench.figure2 import render_figure2, run_figure2
from repro.bench.figure3 import render_figure3, run_figure3
from repro.bench.figure5 import render_figure5, run_figure5
from repro.obs.logging import LEVELS
from repro.obs.metrics import MetricsRegistry

#: The targets that run figure or ablation sweeps through the executor,
#: the only ones that honour ``--trace-out``, ``--metrics-out`` and
#: ``--log-level``; ``all`` comes last, as it runs the other four.
OBS_TARGETS = ("figure2", "figure3", "figure5", "ablation", "all")

TARGETS = OBS_TARGETS + ("check", "analyze", "sweep", "serve")


def _derive_obs(obs: ObsSpec | None, label: str) -> ObsSpec | None:
    """Give each sweep of one CLI invocation its own trace-file base.

    ``run.jsonl`` becomes ``run-figure2.jsonl`` etc., so per-run files
    from different sweeps (``all``, or the eight ablations) never
    collide; non-trace instruments pass through unchanged.
    """
    import os
    from dataclasses import replace

    if obs is None or obs.trace_path is None:
        return obs
    root, ext = os.path.splitext(obs.trace_path)
    return replace(obs, trace_path=f"{root}-{label}{ext}")


def _run_ablations(jobs=None, obs=None, progress=None) -> dict:
    runners = {
        "notification": run_notification_ablation,
        "policies": run_policy_ablation,
        "barrier_policies": run_barrier_policy_ablation,
        "homeless": run_homeless_ablation,
        "lambda": run_lambda_ablation,
        "lock_discipline": run_lock_discipline_ablation,
        "network": run_network_ablation,
        "decay": run_decay_ablation,
    }
    return {
        key: runner(
            jobs=jobs, obs=_derive_obs(obs, key), progress=progress
        )
        for key, runner in runners.items()
    }


class _TelemetryHarvest:
    """Progress hook shared by all sweeps of one CLI invocation.

    Merges every run's metrics snapshot into one registry (counters and
    histograms add; see :meth:`~repro.obs.metrics.MetricsRegistry.merge`)
    in spec order, the order the executor reports runs in, so the merged
    float sums are the same whatever ``--jobs`` is; and optionally
    prints a per-run completion heartbeat.
    """

    def __init__(self, show_progress: bool, collect_metrics: bool) -> None:
        self.show_progress = show_progress
        self.metrics = MetricsRegistry() if collect_metrics else None
        self.runs = 0

    def __call__(self, done: int, total: int, outcome: RunOutcome) -> None:
        """The executor's ``progress(done, total, outcome)`` callback."""
        self.runs += 1
        if self.metrics is not None and outcome.metrics is not None:
            self.metrics.merge(outcome.metrics)
        if self.show_progress:
            print(
                f"[{done}/{total}] {outcome.app} policy={outcome.policy} "
                f"nodes={outcome.nodes} sim={outcome.time_s:.3f}s "
                f"wall={outcome.wall_clock_s:.2f}s "
                f"migrations={outcome.migrations}",
                file=sys.stderr,
                flush=True,
            )


def _render_ablations(data: dict) -> str:
    titles = {
        "notification": "Ablation — notification mechanisms (AT, synthetic r=8)",
        "policies": "Ablation — migration policies (synthetic r=8)",
        "barrier_policies": "Ablation — barrier-driven policies (SOR)",
        "homeless": "Ablation — home-based vs homeless LRC (synthetic r=4)",
        "lambda": "Ablation — AT feedback coefficient lambda (synthetic r=4)",
        "lock_discipline": "Ablation — FIFO vs retry lock grants (synthetic r=2)",
        "network": "Ablation — interconnect sweep (SOR, NM vs AT)",
        "decay": "Ablation — feedback decay heuristic (phase change r=2 -> r=16)",
    }
    return "\n\n".join(
        render_ablation(rows, titles[key]) for key, rows in data.items()
    )


def _run_check_target(args, parser) -> int:
    """Drive a `repro check` conformance session from parsed CLI args."""
    from repro.check.runner import run_check

    if args.episodes < 1:
        parser.error(f"--episodes must be >= 1, got {args.episodes}")

    def progress(result):
        status = "ok" if result.ok else "FAIL"
        print(
            f"episode seed={result.seed} {status} ops={result.ops} "
            f"migrations={result.migrations} events={result.events}",
            file=sys.stderr,
            flush=True,
        )

    report = run_check(
        episodes=args.episodes,
        base_seed=args.seed,
        corpus_dir=args.corpus_out,
        self_test=not args.no_self_test,
        progress=progress if args.progress else None,
        flavor=args.flavor,
    )
    failures = [e for e in report.episodes if not e.ok]
    print(
        f"conformance: {len(report.episodes)} episodes from seed "
        f"{args.seed}, {len(failures)} with violations"
    )
    for episode in failures:
        print(f"  seed {episode.seed}:")
        for line in (
            episode.oracle_violations + episode.invariant_violations
        ):
            print(f"    {line}")
        if episode.run_error:
            print(f"    run error: {episode.run_error}")
    if report.self_test:
        caught = sum(
            1 for clean, flagged in report.self_test.values()
            if clean and flagged
        )
        print(
            f"self-test: {caught}/{len(report.self_test)} mutations "
            f"detected"
        )
        for name, (clean, flagged) in sorted(report.self_test.items()):
            verdict = "ok" if (clean and flagged) else "FAIL"
            print(
                f"  {name}: unmutated clean={clean} "
                f"mutated flagged={flagged} -> {verdict}"
            )
    if args.corpus_out:
        print(f"episode corpus written to {args.corpus_out}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"raw report written to {args.json}")
    return 0 if report.ok else 1


def _run_serve_target(args, parser) -> int:
    """Drive a `repro serve` SLO session from parsed CLI args."""
    from repro.apps.serving import ServingSpec
    from repro.bench.serving import (
        render_race,
        render_serving,
        report_digest,
        run_serving,
        run_serving_race,
    )
    from repro.bench.serving import SERVE_POLICIES

    policies = [p.strip() for p in args.policy.split(",") if p.strip()]
    unknown = [p for p in policies if p not in SERVE_POLICIES]
    if not policies or unknown:
        parser.error(
            f"--policy must name policies from {SERVE_POLICIES} "
            f"(comma-separated), got {args.policy!r}"
        )
    try:
        spec = ServingSpec(
            seed=args.seed,
            nodes=args.nodes,
            keys=args.keys,
            requests_per_thread=args.requests,
            phases=args.phases,
            zipf_s=args.zipf_s,
            read_fraction=args.read_fraction,
            churn=args.churn,
            arrival=args.arrival,
            policy=policies[0],
            topology=args.topology,
            release_fanout=args.release_fanout,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if len(policies) == 1:
        payload = run_serving(spec)
        rendered = render_serving(payload)
        digest = report_digest(payload)
    else:
        payload = run_serving_race(spec, policies)
        rendered = render_race(payload)
        digest = report_digest(payload)
    print(rendered)
    print(f"report digest: {digest}")
    # path notices go to stderr so stdout stays byte-diffable across
    # backends (the CI serving smoke diffs the rendered reports)
    if args.md:
        with open(args.md, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"markdown report written to {args.md}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"raw report written to {args.json}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the figures of Fang et al., CLUSTER 2004.",
    )
    parser.add_argument("target", choices=TARGETS)
    parser.add_argument(
        "path",
        nargs="?",
        help="(analyze target) saved JSONL trace to analyze "
        "(equivalent to --trace PATH)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's problem sizes (slow) instead of quick ones",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also dump the raw result dictionaries as JSON",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="worker processes per sweep (default: all usable cores; "
        "results are identical for any value)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="stream each run's trace events to per-run JSONL files "
        "derived from PATH (run.jsonl -> run-000.jsonl, ...)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged cross-run metrics snapshot as JSON",
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(LEVELS),
        help="enable structured run logging on stderr at this level",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a heartbeat line on stderr as each run completes",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="(analyze target) saved JSONL trace file to render",
    )
    parser.add_argument(
        "--oid",
        type=int,
        metavar="N",
        help="(analyze target) object id to report on "
        "(default: the most-migrated object)",
    )
    parser.add_argument(
        "--episodes",
        type=int,
        metavar="N",
        default=25,
        help="(check target) number of fuzzed episodes to run (default 25)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="S",
        default=0,
        help="(check target) base seed the episode sequence derives from",
    )
    parser.add_argument(
        "--corpus-out",
        metavar="DIR",
        help="(check target) write each episode's program + verdict as "
        "JSON into DIR (plus a report.json summary)",
    )
    parser.add_argument(
        "--no-self-test",
        action="store_true",
        help="(check target) skip the mutation self-test leg",
    )
    parser.add_argument(
        "--flavor",
        choices=("core", "serving", "mixed"),
        default="core",
        help="(check target) episode generator family: the core random "
        "access-pattern fuzzer, serving-traffic episodes, or a "
        "deterministic mix of both",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        metavar="N",
        default=8,
        help="(serve target) cluster size (one worker thread per node)",
    )
    parser.add_argument(
        "--policy",
        metavar="P[,P...]",
        default="AT",
        help="(serve target) migration policy, or a comma-separated "
        "list to race several policies over identical traffic",
    )
    parser.add_argument(
        "--keys",
        type=int,
        metavar="K",
        default=48,
        help="(serve target) size of the keyed object store",
    )
    parser.add_argument(
        "--requests",
        type=int,
        metavar="R",
        default=8,
        help="(serve target) requests per worker thread per phase",
    )
    parser.add_argument(
        "--phases",
        type=int,
        metavar="P",
        default=3,
        help="(serve target) barrier-separated phases (hot-set epochs)",
    )
    parser.add_argument(
        "--zipf-s",
        type=float,
        metavar="S",
        default=0.99,
        help="(serve target) Zipf skew of key popularity",
    )
    parser.add_argument(
        "--read-fraction",
        type=float,
        metavar="F",
        default=0.7,
        help="(serve target) probability a request is a get (vs put)",
    )
    parser.add_argument(
        "--churn",
        type=float,
        metavar="F",
        default=0.0,
        help="(serve target) fraction of nodes whose workers go quiet "
        "each phase (rejoining at the next barrier)",
    )
    parser.add_argument(
        "--arrival",
        choices=("open", "closed"),
        default="open",
        help="(serve target) arrival process: open-loop Poisson gaps or "
        "closed-loop fixed think time",
    )
    parser.add_argument(
        "--topology",
        metavar="SPEC",
        default=None,
        help="(serve target) interconnect topology spec string "
        "(PROTOCOL.md §15), e.g. fat-tree:edge=16:pod=4:oversub=2",
    )
    parser.add_argument(
        "--release-fanout",
        type=int,
        metavar="K",
        default=None,
        help="(serve target) k-ary multicast relay for barrier releases",
    )
    parser.add_argument(
        "--md",
        metavar="PATH",
        help="(sweep target) also write the rendered markdown table to PATH",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "python", "compiled"),
        default="auto",
        help="simulation backend: auto (default) uses the compiled kernel "
        "when it builds, python forces the pure-Python fallback, compiled "
        "fails fast when the extension is unavailable",
    )
    args = parser.parse_args(argv)

    if args.target not in OBS_TARGETS:
        for flag, value in (
            ("--trace-out", args.trace_out),
            ("--metrics-out", args.metrics_out),
            ("--log-level", args.log_level),
        ):
            if value is not None:
                parser.error(
                    f"{flag} is not supported by the {args.target} target; "
                    f"only {', '.join(OBS_TARGETS)} honour it"
                )

    if args.backend != "auto":
        from repro import _kernel

        try:
            _kernel.select_backend(args.backend)
        except RuntimeError as exc:
            parser.error(str(exc))

    if args.target == "check":
        return _run_check_target(args, parser)

    if args.target == "serve":
        return _run_serve_target(args, parser)

    if args.target == "analyze":
        trace_path = args.path or args.trace
        if not trace_path:
            parser.error(
                "the analyze target requires a trace path "
                "(positional or --trace PATH)"
            )
        from repro.bench.analyze import (
            analyze_trace,
            render_analysis,
            write_json_report,
        )
        from repro.obs.export import read_trace_meta

        slo = analyze_trace(trace_path, oid=args.oid)
        # provenance goes to stderr so stdout stays byte-diffable across
        # backends (the CI analyze smoke diffs the rendered reports)
        meta = read_trace_meta(trace_path)
        provenance = f"{trace_path}: backend {meta.get('backend', 'unrecorded')}"
        if meta.get("kernel_build_hash"):
            provenance += f", kernel build {meta['kernel_build_hash']}"
        print(provenance, file=sys.stderr)
        print(render_analysis(slo), end="")
        if args.json:
            write_json_report(slo, args.json)
            print(f"raw SLO report written to {args.json}", file=sys.stderr)
        return 0

    mode = "full" if args.full else "quick"
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")

    if args.target == "sweep":
        from repro.bench.scale import (
            FULL_NODES,
            QUICK_NODES,
            render_crossover,
            run_crossover,
        )

        def heartbeat(done, total, outcome):
            print(
                f"[{done}/{total}] {outcome.mechanism} policy="
                f"{outcome.policy} nodes={outcome.nodes} "
                f"sim={outcome.time_s:.3f}s "
                f"migrations={outcome.migrations}",
                file=sys.stderr,
                flush=True,
            )

        data = run_crossover(
            nodes=FULL_NODES if args.full else QUICK_NODES,
            jobs=jobs,
            progress=heartbeat if args.progress else None,
        )
        rendered = render_crossover(data)
        print(rendered)
        if args.md:
            with open(args.md, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"markdown table written to {args.md}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=2)
            print(f"raw crossover grid written to {args.json}")
        return 0

    obs = ObsSpec(
        trace_path=args.trace_out,
        metrics=args.metrics_out is not None,
        log_level=args.log_level,
    )
    harvest = _TelemetryHarvest(
        show_progress=args.progress,
        collect_metrics=args.metrics_out is not None,
    )
    obs_arg = obs if obs.enabled else None
    progress_arg = harvest if (args.progress or obs.enabled) else None

    collected: dict = {}
    targets = OBS_TARGETS[:-1] if args.target == "all" else (args.target,)
    for target in targets:
        target_obs = _derive_obs(obs_arg, target)
        if target == "figure2":
            collected["figure2"] = run_figure2(
                mode=mode, jobs=jobs, obs=target_obs, progress=progress_arg
            )
            print(render_figure2(collected["figure2"]))
        elif target == "figure3":
            collected["figure3"] = run_figure3(
                mode=mode, jobs=jobs, obs=target_obs, progress=progress_arg
            )
            print(render_figure3(collected["figure3"]))
        elif target == "figure5":
            collected["figure5"] = run_figure5(
                mode=mode, jobs=jobs, obs=target_obs, progress=progress_arg
            )
            print(render_figure5(collected["figure5"]))
        elif target == "ablation":
            collected["ablation"] = _run_ablations(
                jobs=jobs, obs=target_obs, progress=progress_arg
            )
            print(_render_ablations(collected["ablation"]))
        print()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=2, default=str)
        print(f"raw results written to {args.json}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(
                {"runs": harvest.runs, **harvest.metrics.snapshot()},
                handle,
                indent=2,
            )
        print(f"merged metrics ({harvest.runs} runs) written to "
              f"{args.metrics_out}")
    if args.trace_out:
        print(f"per-run traces written alongside {args.trace_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
