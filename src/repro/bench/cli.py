"""Command-line entry point: ``python -m repro.bench <target> [flags]``
(also installed as the ``repro-bench`` console script).

Targets: ``figure2``, ``figure3`` and ``figure5`` (the paper's
figures), ``ablation`` (the studies beyond the paper, at one size),
``all`` (those four in turn), ``sweep`` (the mechanism crossover lab,
:mod:`repro.bench.scale`), ``check`` (the protocol conformance harness,
:mod:`repro.check`), ``analyze`` (the offline trace reader,
:mod:`repro.bench.analyze`) and ``serve`` (the serving-traffic SLO
tier, :mod:`repro.bench.serving`).  Each target is its own subparser
and accepts only the flags it reads; ``repro-bench <target> -h`` lists
them.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

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

#: The eight ablation sweeps in run order: key -> (runner, table title).
ABLATIONS = {
    "notification": (
        run_notification_ablation,
        "Ablation — notification mechanisms (AT, synthetic r=8)",
    ),
    "policies": (
        run_policy_ablation, "Ablation — migration policies (synthetic r=8)"
    ),
    "barrier_policies": (
        run_barrier_policy_ablation,
        "Ablation — barrier-driven policies (SOR)",
    ),
    "homeless": (
        run_homeless_ablation,
        "Ablation — home-based vs homeless LRC (synthetic r=4)",
    ),
    "lambda": (
        run_lambda_ablation,
        "Ablation — AT feedback coefficient lambda (synthetic r=4)",
    ),
    "lock_discipline": (
        run_lock_discipline_ablation,
        "Ablation — FIFO vs retry lock grants (synthetic r=2)",
    ),
    "network": (
        run_network_ablation, "Ablation — interconnect sweep (SOR, NM vs AT)"
    ),
    "decay": (
        run_decay_ablation,
        "Ablation — feedback decay heuristic (phase change r=2 -> r=16)",
    ),
}


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


def _run_ablations(mode, jobs, obs, progress) -> dict:
    """Every ablation; they have one size, so ``mode`` is not read."""
    return {
        key: runner(jobs=jobs, obs=_derive_obs(obs, key), progress=progress)
        for key, (runner, _) in ABLATIONS.items()
    }


def _render_ablations(data: dict) -> str:
    return "\n\n".join(
        render_ablation(rows, ABLATIONS[key][1]) for key, rows in data.items()
    )


#: The figure and ablation sweeps in ``all`` order:
#: target -> (run(mode=, jobs=, obs=, progress=), render).
SWEEPS = {
    "figure2": (run_figure2, render_figure2),
    "figure3": (run_figure3, render_figure3),
    "figure5": (run_figure5, render_figure5),
    "ablation": (_run_ablations, _render_ablations),
}

TARGETS = (*SWEEPS, "all", "sweep", "check", "analyze", "serve")


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


def _jobs(args) -> int:
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        args.parser.error(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _run_sweeps(names: tuple[str, ...], args) -> int:
    """Run the named figure/ablation sweeps in turn, printing each."""
    mode = "full" if getattr(args, "full", False) else "quick"
    jobs = _jobs(args)
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
    for name in names:
        run, render = SWEEPS[name]
        collected[name] = run(
            mode=mode,
            jobs=jobs,
            obs=_derive_obs(obs_arg, name),
            progress=progress_arg,
        )
        print(render(collected[name]))
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


def _run_crossover(args) -> int:
    """The ``sweep`` target: the mechanism crossover grid."""
    from repro.bench.scale import (
        FULL_NODES,
        QUICK_NODES,
        render_crossover,
        run_crossover,
    )

    jobs = _jobs(args)

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


def _run_check(args) -> int:
    """Drive a `repro check` conformance session from parsed CLI args."""
    from repro.check.runner import run_check

    if args.episodes < 1:
        args.parser.error(f"--episodes must be >= 1, got {args.episodes}")

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


def _run_analyze(args) -> int:
    """Render one saved trace: markdown on stdout, provenance on stderr."""
    if not args.path:
        args.parser.error("the analyze target requires a trace path")
    from repro.bench.analyze import (
        analyze_trace,
        render_analysis,
        write_json_report,
    )
    from repro.obs.export import read_trace_meta

    slo = analyze_trace(args.path, oid=args.oid)
    # provenance goes to stderr so stdout stays byte-diffable across
    # backends (the CI analyze smoke diffs the rendered reports)
    meta = read_trace_meta(args.path)
    provenance = f"{args.path}: backend {meta.get('backend', 'unrecorded')}"
    if meta.get("kernel_build_hash"):
        provenance += f", kernel build {meta['kernel_build_hash']}"
    print(provenance, file=sys.stderr)
    print(render_analysis(slo), end="")
    if args.json:
        write_json_report(slo, args.json)
        print(f"raw SLO report written to {args.json}", file=sys.stderr)
    return 0


def _run_serve(args) -> int:
    """Drive a `repro serve` SLO session from parsed CLI args."""
    from repro.apps.serving import ServingSpec
    from repro.bench.serving import (
        SERVE_POLICIES,
        render_race,
        render_serving,
        report_digest,
        run_serving,
        run_serving_race,
    )

    policies = [p.strip() for p in args.policy.split(",") if p.strip()]
    unknown = [p for p in policies if p not in SERVE_POLICIES]
    if not policies or unknown:
        args.parser.error(
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
        args.parser.error(str(exc))
    if len(policies) == 1:
        payload = run_serving(spec)
        rendered = render_serving(payload)
    else:
        payload = run_serving_race(spec, policies)
        rendered = render_race(payload)
    print(rendered)
    print(f"report digest: {report_digest(payload)}")
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


class _TargetParser(argparse.ArgumentParser):
    """A target's subparser: an argument the target does not read is an
    error under the target's own usage (argparse would hand it up to the
    top-level parser, whose error line names no target)."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _flags() -> argparse.ArgumentParser:
    """An empty parent parser for flags several targets share."""
    return argparse.ArgumentParser(add_help=False, allow_abbrev=False)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` parser: one subparser per target, holding only
    the flags that target's runner reads and bound to it (``run``) and
    to itself (``parser``, for usage errors) by ``set_defaults``."""
    common = _flags()
    common.add_argument(
        "--json", metavar="PATH", help="also write the raw results as JSON"
    )
    common.add_argument(
        "--backend",
        choices=("auto", "python", "compiled"),
        default="auto",
        help="simulation backend: auto (default) uses the compiled kernel "
        "when it builds, python forces the pure-Python fallback, compiled "
        "fails fast when the extension is unavailable",
    )
    pool = _flags()
    pool.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="worker processes per sweep (default: all usable cores; "
        "results are identical for any value)",
    )
    pool.add_argument(
        "--progress",
        action="store_true",
        help="print a heartbeat line on stderr as each run completes",
    )
    sized = _flags()
    sized.add_argument(
        "--full",
        action="store_true",
        help="use the paper's problem sizes (slow) instead of quick ones",
    )
    obs = _flags()
    obs.add_argument(
        "--trace-out",
        metavar="PATH",
        help="stream each run's trace events to per-run JSONL files "
        "derived from PATH (run.jsonl -> run-000.jsonl, ...)",
    )
    obs.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged cross-run metrics snapshot as JSON",
    )
    obs.add_argument(
        "--log-level",
        choices=sorted(LEVELS),
        help="enable structured run logging on stderr at this level",
    )
    md = _flags()
    md.add_argument(
        "--md", metavar="PATH", help="also write the rendered markdown to PATH"
    )

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the figures of Fang et al., CLUSTER 2004.",
    )
    subparsers = parser.add_subparsers(
        dest="target", required=True, parser_class=_TargetParser
    )

    def target(name, run, help, *parents):
        sub = subparsers.add_parser(
            name, help=help, parents=[common, *parents], allow_abbrev=False
        )
        sub.set_defaults(run=run, parser=sub)
        return sub

    figures = {
        "figure2": "Figure 2: execution time vs processors, HM vs NoHM",
        "figure3": "Figure 3: AT-over-FT improvement vs problem size",
        "figure5": "Figure 5: sensitivity and message breakdown vs "
        "single-writer repetition",
    }
    for name, help in figures.items():
        target(name, partial(_run_sweeps, (name,)), help, pool, sized, obs)
    target(
        "ablation", partial(_run_sweeps, ("ablation",)),
        "the studies beyond the paper (one size)", pool, obs,
    )
    target(
        "all", partial(_run_sweeps, tuple(SWEEPS)),
        "figure2, figure3, figure5 and ablation in turn", pool, sized, obs,
    )
    target(
        "sweep", _run_crossover,
        "mechanism crossover grid: the smallest N at which each "
        "notification mechanism beats the forwarding pointer",
        pool, sized, md,
    )

    check = target(
        "check", _run_check,
        "fuzz seeded episodes through the coherence oracle and the "
        "invariant checker, then run the mutation self-test",
    )
    check.add_argument(
        "--episodes", type=int, metavar="N", default=25,
        help="number of fuzzed episodes to run (default 25)",
    )
    check.add_argument(
        "--seed", type=int, metavar="S", default=0,
        help="base seed the episode sequence derives from",
    )
    check.add_argument(
        "--corpus-out", metavar="DIR",
        help="write each episode's program + verdict as JSON into DIR "
        "(plus a report.json summary)",
    )
    check.add_argument(
        "--no-self-test", action="store_true",
        help="skip the mutation self-test leg",
    )
    check.add_argument(
        "--flavor", choices=("core", "serving", "mixed"), default="core",
        help="episode generator family: the core random access-pattern "
        "fuzzer, serving-traffic episodes, or a deterministic mix of both",
    )
    check.add_argument(
        "--progress", action="store_true",
        help="print a line on stderr as each episode completes",
    )

    analyze = target(
        "analyze", _run_analyze,
        "render a saved JSONL trace: event counts, one object's "
        "migrations and threshold series, span analytics",
    )
    analyze.add_argument("path", nargs="?", help="saved JSONL trace")
    analyze.add_argument(
        "--oid", type=int, metavar="N",
        help="object id to report on (default: the most-migrated object)",
    )

    serve = target(
        "serve", _run_serve,
        "one deterministic Zipfian request episode (PROTOCOL.md §16), or "
        "a race of several policies over identical traffic",
        md,
    )
    serve.add_argument(
        "--nodes", type=int, metavar="N", default=8,
        help="cluster size (one worker thread per node)",
    )
    serve.add_argument(
        "--policy", metavar="P[,P...]", default="AT",
        help="migration policy, or a comma-separated list to race several "
        "policies over identical traffic",
    )
    serve.add_argument(
        "--seed", type=int, metavar="S", default=0,
        help="traffic seed",
    )
    serve.add_argument(
        "--keys", type=int, metavar="K", default=48,
        help="size of the keyed object store",
    )
    serve.add_argument(
        "--requests", type=int, metavar="R", default=8,
        help="requests per worker thread per phase",
    )
    serve.add_argument(
        "--phases", type=int, metavar="P", default=3,
        help="barrier-separated phases (hot-set epochs)",
    )
    serve.add_argument(
        "--zipf-s", type=float, metavar="S", default=0.99,
        help="Zipf skew of key popularity",
    )
    serve.add_argument(
        "--read-fraction", type=float, metavar="F", default=0.7,
        help="probability a request is a get (vs put)",
    )
    serve.add_argument(
        "--churn", type=float, metavar="F", default=0.0,
        help="fraction of nodes whose workers go quiet each phase "
        "(rejoining at the next barrier)",
    )
    serve.add_argument(
        "--arrival", choices=("open", "closed"), default="open",
        help="arrival process: open-loop Poisson gaps or closed-loop "
        "fixed think time",
    )
    serve.add_argument(
        "--topology", metavar="SPEC",
        help="interconnect topology spec string (PROTOCOL.md §15), e.g. "
        "fat-tree:edge=16:pod=4:oversub=2",
    )
    serve.add_argument(
        "--release-fanout", type=int, metavar="K",
        help="k-ary multicast relay for barrier releases",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.backend != "auto":
        from repro import _kernel

        try:
            _kernel.select_backend(args.backend)
        except RuntimeError as exc:
            args.parser.error(str(exc))
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
