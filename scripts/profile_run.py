#!/usr/bin/env python
"""Maintainer tool: profile the simulation harness on a representative run.

The guides' rule — no optimization without measuring — applied to the
harness itself.  Profiles one application run (ASP, the heaviest figure
workload, by default) with cProfile and prints the top functions by
cumulative and internal time, so hot-path regressions in the
engine/protocol are easy to localise.  ``--save PATH`` additionally dumps
the raw pstats file, so profiles can be diffed across PRs with
``pstats.Stats(path_a, path_b)`` or snakeviz.

``--memory`` switches the profiler from cProfile to tracemalloc: the run
executes under allocation tracing and the report is the top source lines
by residual allocated bytes at run end — the where-does-the-memory-live
view that motivated the barrier-epoch GC work.  ``--save PATH`` then writes the
text report (default: ``results/profiles/memory-<app>-<size>.txt``).

Usage:
    python scripts/profile_run.py [--app {asp,sor,nbody,tsp}] [--size N]
                                  [--policy NAME] [--nodes P] [--top K]
                                  [--save PATH] [--memory] [--no-gc]
"""

import argparse
import cProfile
import os
import pstats


def make_app(name: str, size: int):
    """Instantiate the selected profiling workload at ``size``."""
    from repro.apps import Asp, NBody, Sor, Tsp

    if name == "asp":
        return Asp(size=size)
    if name == "sor":
        return Sor(size=size, iterations=10)
    if name == "nbody":
        return NBody(bodies=size, steps=3)
    if name == "tsp":
        return Tsp(cities=min(size, 12))
    raise ValueError(f"unknown app {name!r}")


def memory_profile(app, args) -> None:
    """Run ``app`` under ``--policy`` with tracemalloc on and report the
    top allocation sites; ``--no-gc`` is the contrast leg without
    barrier-epoch memory GC."""
    import tracemalloc

    from repro.bench.runner import run_once

    tracemalloc.start(25)
    result = run_once(
        app, policy=args.policy, nodes=args.nodes,
        gc_enabled=not args.no_gc, verify=False,
    )
    current, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()

    lines = [
        f"memory profile: {args.app}({args.size}) under {args.policy} on "
        f"{args.nodes} nodes (gc {'off' if args.no_gc else 'on'})",
        f"simulated {result.execution_time_s:.2f}s, "
        f"{result.stats.total_messages()} messages, "
        f"{result.gos.sim.events_processed} engine events",
        f"tracemalloc: peak {peak / 1e6:.2f} MB, residual {current / 1e6:.2f} MB",
    ]
    fp = result.gos.memory_footprint()
    lines += [
        f"end state: {fp['cache_entries']} cache entries "
        f"({fp['cache_payload_bytes'] / 1e6:.2f} MB payloads), "
        f"{fp['notice_floors']} notice floors; "
        f"gc dropped {fp['gc_cache_drops']} entries, "
        f"pruned {fp['gc_notice_prunes']} floors",
        f"peaks: {fp['peaks']}",
    ]
    lines.append("")
    lines.append(f"=== top {args.top} source lines by residual bytes ===")
    for stat in snapshot.statistics("lineno")[: args.top]:
        frame = stat.traceback[0]
        lines.append(
            f"{stat.size / 1e3:>10.1f} KB  {stat.count:>7d} blocks  "
            f"{frame.filename}:{frame.lineno}"
        )
    report = "\n".join(lines) + "\n"
    print(report)

    save = args.save or os.path.join(
        "results", "profiles", f"memory-{args.app}-{args.size}.txt"
    )
    os.makedirs(os.path.dirname(save) or ".", exist_ok=True)
    with open(save, "w") as fh:
        fh.write(report)
    print(f"report written to {save}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--app", choices=("asp", "sor", "nbody", "tsp"), default="asp",
        help="workload to profile (default: asp, the heaviest figure app)",
    )
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument(
        "--policy", default="AT",
        help="migration policy report name (NM/FT1/FT2/AT/JUMP/LF/JIAJIA)",
    )
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument(
        "--save", metavar="PATH",
        help="dump the raw pstats file (or the --memory text report)",
    )
    parser.add_argument(
        "--memory", action="store_true",
        help="profile allocations with tracemalloc instead of time",
    )
    parser.add_argument(
        "--no-gc", action="store_true",
        help="disable barrier-epoch memory GC (contrast leg for --memory)",
    )
    parser.add_argument(
        "--backend", choices=("auto", "python", "compiled"), default="auto",
        help="simulation backend (auto picks the compiled kernel when it "
        "builds; python profiles the pure-Python hot path)",
    )
    args = parser.parse_args()

    from repro import _kernel

    if args.backend != "auto":
        try:
            _kernel.select_backend(args.backend)
        except RuntimeError as exc:
            parser.error(str(exc))
    print(f"backend: {_kernel.backend_name()}")

    app = make_app(args.app, args.size)
    if args.memory:
        memory_profile(app, args)
        return

    from repro.bench.runner import run_once

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_once(app, policy=args.policy, nodes=args.nodes)
    profiler.disable()

    print(
        f"{args.app}({args.size}) under {args.policy} on {args.nodes} nodes: "
        f"simulated {result.execution_time_s:.2f}s, "
        f"{result.stats.total_messages()} messages, "
        f"{result.gos.sim.events_processed} engine events\n"
    )
    stats = pstats.Stats(profiler)
    if args.save:
        stats.dump_stats(args.save)
        print(f"raw pstats written to {args.save}\n")
    stats.sort_stats("cumulative")
    print("=== top by cumulative time ===")
    stats.print_stats(args.top)
    stats.sort_stats("tottime")
    print("=== top by internal time ===")
    stats.print_stats(args.top)


if __name__ == "__main__":
    main()
