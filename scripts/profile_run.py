#!/usr/bin/env python
"""Maintainer tool: profile the simulation harness on a representative run.

The guides' rule — no optimization without measuring — applied to the
harness itself.  Profiles one application run (ASP, the heaviest figure
workload, by default) with cProfile and prints the top functions by
cumulative and internal time, so hot-path regressions in the
engine/protocol are easy to localise.  The rows come from
``Profile.getstats()``, one per code object, labelled with the
function's qualified name, file and line: ``pstats`` keys its table by
(file, line, name), under which every dataclass-generated ``__init__``
collides and one row hides the others.  ``--save PATH`` additionally
dumps the raw pstats file, so profiles can be diffed across PRs with
``pstats.Stats(path_a, path_b)`` or snakeviz.

``--memory`` switches the profiler from cProfile to tracemalloc: the run
executes under allocation tracing and the report is the top source lines
by residual allocated bytes at run end — the where-does-the-memory-live
view — the cluster's end-state cache footprint, and the fixed bytes per
node that the cluster build and the threads cost before the first event
(measured on a separate build of the same cluster).  The report is printed;
``--save PATH`` also writes it to ``PATH`` (nothing is written without it).

Usage:
    python scripts/profile_run.py [--app {asp,sor,nbody,tsp}] [--size N]
                                  [--policy NAME] [--nodes P] [--top K]
                                  [--save PATH] [--memory]
"""

import argparse
import cProfile
import gc
import os
import pstats
import types


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


def profile_rows(profiler: cProfile.Profile) -> list[tuple]:
    """``(calls, tottime, cumtime, label)`` per code object of the run.

    A code object's label is the qualified name of the live function that
    runs it (so a generated ``__init__`` reads ``CacheEntry.__init__``,
    not ``__create_fn__.<locals>.__init__``), else its ``co_qualname``
    (its ``co_name`` before Python 3.11), plus its file and first line;
    a C function keeps its repr.
    """
    qualnames = {
        fn.__code__: fn.__qualname__
        for fn in gc.get_objects()
        if isinstance(fn, types.FunctionType)
    }
    rows = []
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            label = code
        else:
            name = qualnames.get(code) or getattr(
                code, "co_qualname", code.co_name  # 3.11+
            )
            label = f"{name} ({code.co_filename}:{code.co_firstlineno})"
        rows.append(
            (entry.callcount, entry.inlinetime, entry.totaltime, label)
        )
    return rows


def print_rows(rows: list[tuple], title: str, column: int, top: int) -> None:
    """The ``top`` rows by ``column`` (1 internal, 2 cumulative time)."""
    print(f"=== top by {title} time ===")
    print(f"{'ncalls':>10} {'tottime':>9} {'cumtime':>9}  function")
    for calls, tottime, cumtime, label in sorted(
        rows, key=lambda row: row[column], reverse=True
    )[:top]:
        print(f"{calls:>10} {tottime:>9.3f} {cumtime:>9.3f}  {label}")
    print()


def fixed_bytes_per_node(app, args) -> tuple[float, float]:
    """Tracemalloc bytes per node that ``app``'s cluster build and its
    threads (contexts and spawned bodies) cost before the first event,
    on a build of its own that never runs."""
    import gc
    import tracemalloc

    from repro.gos.jvm import ClusterSpec
    from repro.gos.space import GlobalObjectSpace
    from repro.gos.thread import ThreadContext

    cluster = ClusterSpec(nodes=args.nodes, policy=args.policy)
    nodes = cluster.nodes
    threads = app.default_threads(nodes)
    gc.collect()
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    gos = GlobalObjectSpace(
        nnodes=nodes,
        comm_model=cluster.resolved_comm_model,
        policy=cluster.resolved_policy,
        mechanism=cluster.resolved_mechanism,
    )
    built = tracemalloc.get_traced_memory()[0]
    app.setup(gos, threads)
    set_up = tracemalloc.get_traced_memory()[0]
    for tid in range(threads):
        ctx = ThreadContext(gos, tid, app.placement(tid, nodes, threads))
        gos.sim.spawn(app.thread_body(ctx, tid), name=f"{app.name}-t{tid}")
    spawned = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return (built - start) / nodes, (spawned - set_up) / nodes


def memory_profile(app, args) -> None:
    """Run ``app`` under ``--policy`` with tracemalloc on and report the
    top allocation sites."""
    import tracemalloc

    from repro.bench.runner import run_once

    build_bytes, thread_bytes = fixed_bytes_per_node(app, args)
    tracemalloc.start(25)
    result = run_once(
        app, policy=args.policy, nodes=args.nodes, verify=False,
    )
    current, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()

    lines = [
        f"memory profile: {args.app}({args.size}) under {args.policy} on "
        f"{args.nodes} nodes",
        f"simulated {result.execution_time_s:.2f}s, "
        f"{result.stats.total_messages()} messages, "
        f"{result.gos.sim.events_processed} engine events",
        f"tracemalloc: peak {peak / 1e6:.2f} MB, residual {current / 1e6:.2f} MB",
    ]
    fp = result.gos.memory_footprint()
    lines += [
        f"end state: {fp['cache_entries']} cache entries "
        f"({fp['cache_payload_bytes'] / 1e6:.2f} MB payloads)",
        f"peaks: {fp['peaks']}",
        f"fixed bytes per node before the first event: cluster build "
        f"{build_bytes:.0f} B, threads {thread_bytes:.0f} B",
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

    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w") as fh:
            fh.write(report)
        print(f"report written to {args.save}")


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
    if args.save:
        pstats.Stats(profiler).dump_stats(args.save)
        print(f"raw pstats written to {args.save}\n")
    rows = profile_rows(profiler)
    print_rows(rows, "cumulative", 2, args.top)
    print_rows(rows, "internal", 1, args.top)


if __name__ == "__main__":
    main()
