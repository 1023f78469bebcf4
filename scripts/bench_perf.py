#!/usr/bin/env python
"""Perf trajectory harness: quick sweep at jobs=1 vs jobs=auto vs telemetry.

Runs a fixed, deterministic sweep (a Figure-2-shaped HM/NoHM grid over
ASP and SOR) three times — sequentially, fanned out over all usable
cores, and sequentially with full telemetry enabled (metrics + JSONL
tracing + info logging) — verifies all three produce bit-identical
simulated results, and writes a JSON report with per-run and total
wall-clock, the parallel speedup, single-process event throughput
(engine events per wall-clock second, the single-run hot-path figure of
merit), and the telemetry-on overhead ratio.

Each PR that touches the hot path re-runs this and checks in the result
(``BENCH_PR<n>.json``), so the repo's performance trajectory is recorded
alongside its correctness trajectory.

A second mode (``--pinned``) measures the two pinned single-run
workloads the PR-3 hot-path work is gated on — ASP/NM/8 and SOR/AT/8 —
plus the bare event-loop microbenchmark, best-of-N wall clock each.
``--compare-src DIR`` additionally runs the identical measurements in a
subprocess against an older source tree (e.g. a ``git worktree`` of the
previous PR's commit) and records the before/after walls and the
percentage reduction, so the checked-in report is a same-host,
same-interpreter comparison rather than numbers from two different
machines.

A third mode (``--tier large``) measures the *memory* tier: each large
workload (ASP 512 and SOR 256 at 16 nodes) runs twice in isolated
subprocesses — barrier-epoch GC off, then on — recording peak RSS
(``ru_maxrss``), the tracemalloc peak/current of traced allocations, and
the cluster's arena/GC footprint counters.  Subprocess isolation matters
because ``ru_maxrss`` is a process-lifetime high-water mark: legs must
not share a process or the first leg's peak masks the second's.  The
report records the GC-on vs GC-off reduction percentages plus the
pinned-workload walls, giving the PR-4 memory work the same checked-in
evidence trail the PR-3 hot-path work has.

A fourth mode (``--tier scale``) measures the *scale* tier: one fixed
ASP problem (a 1024x1024 matrix, so per-event work is constant — every
fault moves the same 8 KiB row) strong-scaled over 16/64/256/1024 nodes
under the compiled backend, one isolated subprocess per leg (honest
peak RSS), rounds interleaved across N so a shared-host load epoch
cannot bias one leg.  The report records per-N
engine-event rates, per-event wall overhead relative to the 16-node
reference leg (the large-N protocol paths are meant to keep this flat —
the gate is within 25% at 1024), peak RSS, and one topology-enabled leg
(fat-tree with contention at 256 nodes) so the table shows what the
topology model costs.  ``--max-nodes`` caps the grid: CI's push job stops
at 256; the 1024-node leg runs nightly.

A fifth mode (``--tier serving``) measures the *serving SLO* tier: the
PR-10 request-driven Zipfian workloads (16 nodes on a small fat tree,
256 nodes on the contention-priced PR-9 fat tree, both with churn) in
isolated compiled-backend subprocesses, best-of-N wall each, plus one
pure-Python subprocess per leg that must reproduce the exact SLO-report
digest — so the checked-in throughput numbers carry their own
cross-backend bit-identity evidence.

Usage:
    PYTHONPATH=src python scripts/bench_perf.py [--out BENCH_PR2.json]
    PYTHONPATH=src python scripts/bench_perf.py --pinned \
        [--compare-src .baseline/wt/src] [--out BENCH_PR3.json]
    PYTHONPATH=src python scripts/bench_perf.py --tier large \
        [--out BENCH_PR4.json]
    PYTHONPATH=src python scripts/bench_perf.py --tier scale \
        [--max-nodes 1024] [--out BENCH_PR9.json]
    PYTHONPATH=src python scripts/bench_perf.py --tier serving \
        [--out BENCH_PR10.json]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

#: The pinned perf-gate workloads (app registry name, constructor kwargs,
#: policy, nodes).  ASP/NM/8 exercises fault-in + diff propagation with no
#: migration; SOR/AT/8 exercises the migration decision path.  The SOR
#: instance is sized so protocol work (not the numpy stencil) dominates:
#: a small grid swept many times maximises events per numpy second, which
#: is what a *simulator* perf gate should be sensitive to.
PINNED_WORKLOADS = {
    "asp_nm_8": {"app": "asp", "app_kwargs": {"size": 128}, "policy": "NM", "nodes": 8},
    "sor_at_8": {
        "app": "sor",
        "app_kwargs": {"size": 64, "iterations": 40},
        "policy": "AT",
        "nodes": 8,
    },
}

#: Events in the bare event-loop microbenchmark.
MICROBENCH_EVENTS = 50_000

#: The large-workload memory tier: big enough that protocol memory state
#: (cached payloads, twins, notice floors) dominates the interpreter
#: baseline, at 16 nodes so per-node caches multiply.  ASP is the
#: all-pairs broadcast pattern (every node eventually caches every row);
#: SOR is the nearest-neighbour pattern (bounded sharing).
LARGE_WORKLOADS = {
    "asp_large_16": {
        "app": "asp",
        "app_kwargs": {"size": 512},
        "policy": "AT",
        "nodes": 16,
    },
    "sor_large_16": {
        "app": "sor",
        "app_kwargs": {"size": 256, "iterations": 30},
        "policy": "AT",
        "nodes": 16,
    },
}


def build_sweep():
    """The fixed quick sweep: HM vs NoHM for ASP/SOR over 2..8 nodes."""
    from repro.bench.executor import RunSpec

    specs = []
    for app, kwargs in (
        ("asp", {"size": 128}),
        ("sor", {"size": 128, "iterations": 10}),
    ):
        for policy in ("NM", "AT"):
            for nodes in (2, 4, 8):
                specs.append(
                    RunSpec(
                        app=app,
                        app_kwargs=kwargs,
                        policy=policy,
                        nodes=nodes,
                        tag=(app, policy, nodes),
                    )
                )
    return specs


def run_mode(specs, jobs, obs=None):
    """Execute the sweep at ``jobs`` workers; return (outcomes, wall_s)."""
    from repro.bench.executor import execute

    start = time.perf_counter()
    outcomes = execute(specs, jobs=jobs, obs=obs)
    return outcomes, time.perf_counter() - start


def measure_pinned(repeats: int) -> dict:
    """Best-of-``repeats`` wall clock for each pinned workload (1 warmup)."""
    from repro.bench.executor import RunSpec, run_spec

    out = {}
    for name, cfg in PINNED_WORKLOADS.items():
        spec = RunSpec(
            app=cfg["app"],
            app_kwargs=cfg["app_kwargs"],
            policy=cfg["policy"],
            nodes=cfg["nodes"],
            tag=name,
            # The gate times the *simulator*; oracle verification is
            # numpy post-processing that would just dilute the signal.
            verify=False,
        )
        run_spec(spec)  # warm imports/caches outside the timed window
        walls = []
        outcome = None
        for _ in range(repeats):
            start = time.perf_counter()
            outcome = run_spec(spec)
            walls.append(time.perf_counter() - start)
        out[name] = {
            "spec": cfg,
            "wall_s_best": min(walls),
            "walls": walls,
            "sim_time_us": outcome.time_us,
            "engine_events": outcome.events_processed,
            "messages": outcome.messages,
        }
    return out


def measure_microbench(repeats: int = 5) -> dict:
    """Bare event-loop throughput: schedule+drain no-op events."""
    from repro.sim.engine import Simulator

    def noop():
        pass

    best = None
    for _ in range(repeats):
        sim = Simulator()
        schedule = sim.schedule
        start = time.perf_counter()
        for i in range(MICROBENCH_EVENTS):
            schedule(float(i % 97), noop)
        sim.run()
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return {
        "events": MICROBENCH_EVENTS,
        "wall_s_best": best,
        "events_per_sec": MICROBENCH_EVENTS / best,
    }


def _cpu_model() -> str | None:
    """The CPU model string, so cross-host drift in checked-in numbers
    (e.g. the 723k -> 429k ev/s slide between PR 3 and PR 5) is
    attributable to hardware rather than mistaken for a regression."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _host() -> dict:
    from repro.bench.executor import default_jobs

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "usable_cores": default_jobs(),
    }


def _backend_name() -> str:
    from repro import _kernel

    return _kernel.backend_name()


def _merge_measurements(acc: dict | None, cur: dict) -> dict:
    """Fold one measurement round into the best-so-far accumulator."""
    if acc is None:
        return cur
    for name, w in cur["workloads"].items():
        prev = acc["workloads"][name]
        prev["walls"] = prev["walls"] + w["walls"]
        if w["wall_s_best"] < prev["wall_s_best"]:
            prev["wall_s_best"] = w["wall_s_best"]
    if cur["microbench"]["events_per_sec"] > acc["microbench"]["events_per_sec"]:
        acc["microbench"] = cur["microbench"]
    return acc


def _measure_backend_leg(backend: str, repeats: int) -> dict:
    """One pinned+microbench measurement round in a fresh subprocess
    forced onto ``backend`` via ``REPRO_BACKEND`` — the backend is bound
    at import, so a clean interpreter is the only honest way to measure
    the other one."""
    env = dict(os.environ, REPRO_BACKEND=backend)
    proc = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--pinned",
            "--emit-json",
            "--repeats",
            str(repeats),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _measure_old_tree(src: str, repeats: int) -> dict:
    """One measurement round against an older tree, same interpreter.

    The subprocess runs THIS script with ``PYTHONPATH`` pointing at the
    old ``src/`` (e.g. a ``git worktree`` of the previous PR's commit)
    and emits its measurements as JSON on stdout.
    """
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--pinned",
            "--emit-json",
            "--repeats",
            str(repeats),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _memory_leg(workload: str, gc_enabled: bool) -> dict:
    """Run one large workload in THIS process and measure its memory.

    Invoked in a fresh subprocess per leg (``--memory-leg``) so that
    ``ru_maxrss`` — a process-lifetime high-water mark — reflects this
    leg alone.  Returns a JSON-friendly measurement dict including a
    digest of the deterministic results, so the caller can assert GC
    changed memory and nothing else.
    """
    import hashlib
    import resource
    import tracemalloc

    from repro.bench.executor import RunSpec, _make_app, _make_policy
    from repro.bench.runner import make_comm_model, make_mechanism
    from repro.gos.jvm import DistributedJVM

    cfg = LARGE_WORKLOADS[workload]
    spec = RunSpec(
        app=cfg["app"],
        app_kwargs=cfg["app_kwargs"],
        policy=cfg["policy"],
        nodes=cfg["nodes"],
        verify=False,
        gc_enabled=gc_enabled,
        tag=workload,
    )
    app = _make_app(spec)
    jvm = DistributedJVM(
        nodes=spec.nodes,
        comm_model=make_comm_model(spec.comm_model),
        policy=_make_policy(spec),
        mechanism=make_mechanism(spec.mechanism),
        gc_enabled=gc_enabled,
    )
    tracemalloc.start()
    base_current, _ = tracemalloc.get_traced_memory()
    start = time.perf_counter()
    result = jvm.run(app, nthreads=spec.nthreads)
    wall = time.perf_counter() - start
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    footprint = result.gos.memory_footprint()
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    digest = hashlib.sha256(
        json.dumps(
            {
                "stats": result.stats.snapshot(),
                "time_us": result.execution_time_us,
                "migrations": result.migrations,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()
    return {
        "workload": workload,
        "gc_enabled": gc_enabled,
        "wall_s": wall,
        "sim_time_us": result.execution_time_us,
        "engine_events": result.gos.sim.events_processed,
        "peak_rss_kb": rusage.ru_maxrss,  # KiB on Linux
        "tracemalloc_peak_bytes": peak,
        "tracemalloc_end_bytes": current,
        "tracemalloc_delta_bytes": current - base_current,
        "footprint": footprint,
        "result_digest": digest,
    }


def _spawn_memory_leg(workload: str, gc_enabled: bool) -> dict:
    """Run one memory leg in an isolated subprocess; parse its JSON."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--memory-leg",
        workload,
        "--emit-json",
    ]
    if not gc_enabled:
        cmd.append("--no-gc")
    proc = subprocess.run(
        cmd, env=os.environ.copy(), capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


#: Node counts of the scale tier (strong scaling over one fixed
#: problem).
SCALE_NODES = (16, 64, 256, 1024)

#: Fixed ASP matrix size shared by every scale leg.  Keeping the
#: problem fixed while N varies keeps the *per-event work* constant
#: (every fault moves a 1024-column row regardless of N), so the
#: per-event wall cost isolates simulator/protocol overhead.  Sizing
#: ASP to N instead would grow the row payload 64x between the 16- and
#: 1024-node legs and the "overhead" ratio would mostly measure
#: memcpy.  The gate: this cost must stay ~flat to 1024 nodes.
SCALE_SIZE = 1024

#: The topology-enabled scale leg: fat-tree with contention at this N,
#: recording what the topology model costs the compiled hot path.
SCALE_TOPOLOGY_NODES = 256
SCALE_TOPOLOGY = "fat-tree:edge=16:pod=4:oversub=2:contention=1"


def _scale_leg(nodes: int, topology: str | None) -> dict:
    """Run one ASP scale leg in THIS process and measure it.

    Invoked in a fresh subprocess per leg (``--scale-leg``): peak RSS is
    a process-lifetime high-water mark, and the compiled backend must be
    bound fresh.  A tiny throwaway run first warms imports and the
    kernel so the timed window measures the simulator, not start-up.
    """
    import resource

    from repro import _kernel
    from repro.bench.executor import RunSpec, run_spec

    warm = RunSpec(
        app="asp", app_kwargs={"size": 8}, policy="NM", nodes=4, verify=False
    )
    run_spec(warm)
    spec = RunSpec(
        app="asp",
        app_kwargs={"size": SCALE_SIZE},
        policy="NM",
        nodes=nodes,
        verify=False,
        topology=topology,
    )
    start = time.perf_counter()
    outcome = run_spec(spec)
    wall = time.perf_counter() - start
    return {
        "nodes": nodes,
        "topology": topology,
        "backend": _kernel.backend_name(),
        "wall_s": wall,
        "sim_time_us": outcome.time_us,
        "engine_events": outcome.events_processed,
        "messages": outcome.messages,
        "events_per_sec": outcome.events_processed / wall,
        "us_per_event": 1e6 * wall / outcome.events_processed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _spawn_scale_leg(nodes: int, topology: str | None) -> dict:
    """Run one scale leg in an isolated compiled-backend subprocess."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--tier",
        "scale",
        "--scale-leg",
        str(nodes),
        "--emit-json",
    ]
    if topology:
        cmd += ["--topology", topology]
    env = dict(os.environ, REPRO_BACKEND="compiled")
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


#: The serving tier (PR-10): request-driven Zipfian traffic with churn
#: under the PR-9 topology fabrics.  The 16-node leg is the CI smoke
#: shape; the 256-node leg stresses the large-N protocol paths with the
#: same per-request work (fixed key record size), so requests/s of wall
#: clock isolates simulator+protocol cost, not payload size.
SERVING_LEGS = {
    "serve_16": {
        "nodes": 16,
        "keys": 64,
        "phases": 4,
        "requests_per_thread": 16,
        "churn": 0.125,
        "policy": "AT",
        "topology": "fat-tree:edge=4:pod=2:oversub=2",
    },
    "serve_256": {
        "nodes": 256,
        "keys": 512,
        "phases": 4,
        "requests_per_thread": 8,
        "churn": 0.125,
        "policy": "AT",
        "topology": "fat-tree:edge=16:pod=4:oversub=2:contention=1",
    },
}


def _serving_leg(name: str) -> dict:
    """Run one serving leg in THIS process and measure it.

    Invoked in a fresh subprocess per leg (``--serving-leg``) so the
    backend binds cleanly per leg.  A tiny throwaway episode warms
    imports and the kernel first; the timed window then covers exactly
    one :func:`repro.bench.serving.run_serving` call — traffic
    expansion, simulation, and online SLO folding together.
    """
    from repro import _kernel
    from repro.apps.serving import ServingSpec
    from repro.bench.serving import report_digest, run_serving

    cfg = SERVING_LEGS[name]
    run_serving(ServingSpec(seed=0, nodes=2, keys=4, phases=1,
                            requests_per_thread=2))
    spec = ServingSpec(seed=0, **cfg)
    start = time.perf_counter()
    report = run_serving(spec)
    wall = time.perf_counter() - start
    tail = report["latency_us"].get("all", {})
    return {
        "leg": name,
        "spec": cfg,
        "backend": _kernel.backend_name(),
        "wall_s": wall,
        "requests": report["requests"],
        "requests_per_wall_s": report["requests"] / wall,
        "sim_time_us": report["sim_time_us"],
        "migrations": report["migrations"],
        "messages": report["messages"],
        "latency_p50_us": tail.get("p50"),
        "latency_p99_us": tail.get("p99"),
        "latency_p999_us": tail.get("p999"),
        "report_digest": report_digest(report),
    }


def _spawn_serving_leg(name: str, backend: str) -> dict:
    """Run one serving leg in an isolated forced-backend subprocess."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--tier",
        "serving",
        "--serving-leg",
        name,
        "--emit-json",
    ]
    env = dict(os.environ, REPRO_BACKEND=backend)
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def serving_main(args) -> None:
    """``--tier serving``: SLO-tier legs, compiled wall + parity check.

    Each leg's wall clock is best-of-``rounds`` compiled subprocesses;
    one extra pure-Python subprocess per leg must reproduce the exact
    report digest, so the checked-in numbers carry their own
    cross-backend evidence.
    """
    if args.serving_leg:
        json.dump(_serving_leg(args.serving_leg), sys.stdout)
        return

    legs: dict[str, dict] = {}
    rounds = max(1, args.rounds)
    for rnd in range(rounds):
        for name in SERVING_LEGS:
            print(
                f"round {rnd + 1}/{rounds}: {name} compiled leg ...",
                flush=True,
            )
            cur = _spawn_serving_leg(name, "compiled")
            best = legs.get(name)
            if best is None or cur["wall_s"] < best["wall_s"]:
                legs[name] = cur
    for name, leg in legs.items():
        print(f"{name}: python parity leg ...", flush=True)
        py = _spawn_serving_leg(name, "python")
        if py["report_digest"] != leg["report_digest"]:
            raise SystemExit(
                f"FATAL: backends disagree on {name} report digest: "
                f"python={py['report_digest']} "
                f"compiled={leg['report_digest']}"
            )
        leg["python_wall_s"] = py["wall_s"]
        leg["identical_report"] = True

    report = {
        "mode": "serving-tier",
        "host": _host(),
        "backend": legs[next(iter(legs))]["backend"],
        "interleaved_rounds": rounds,
        "legs": legs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for name, leg in legs.items():
        print(
            f"{name}: {leg['requests']} requests in {leg['wall_s']:.2f}s "
            f"wall ({leg['requests_per_wall_s']:.0f} req/s), "
            f"p99 {leg['latency_p99_us']:.1f} us (virtual), "
            f"{leg['migrations']} migrations, digest "
            f"{leg['report_digest'][:12]}.. (both backends)"
        )
    print(f"report written to {args.out}")


def scale_main(args) -> None:
    """``--tier scale``: per-N event rates + RSS, interleaved rounds."""
    if args.scale_leg:
        json.dump(
            _scale_leg(int(args.scale_leg), args.topology or None),
            sys.stdout,
        )
        return

    grid = [n for n in SCALE_NODES if n <= args.max_nodes]
    legs: dict[str, dict] = {}
    rounds = max(1, args.rounds)
    for rnd in range(rounds):
        for n in grid:
            print(
                f"round {rnd + 1}/{rounds}: {n}-node leg ...", flush=True
            )
            cur = _spawn_scale_leg(n, None)
            best = legs.get(str(n))
            if best is None or cur["wall_s"] < best["wall_s"]:
                legs[str(n)] = cur
        if SCALE_TOPOLOGY_NODES <= args.max_nodes:
            key = f"{SCALE_TOPOLOGY_NODES}_topology"
            print(
                f"round {rnd + 1}/{rounds}: {SCALE_TOPOLOGY_NODES}-node "
                f"topology leg ...",
                flush=True,
            )
            cur = _spawn_scale_leg(SCALE_TOPOLOGY_NODES, SCALE_TOPOLOGY)
            best = legs.get(key)
            if best is None or cur["wall_s"] < best["wall_s"]:
                legs[key] = cur

    reference = legs[str(grid[0])]
    overhead = {
        key: leg["us_per_event"] / reference["us_per_event"]
        for key, leg in legs.items()
    }
    report = {
        "mode": "scale-tier",
        "host": _host(),
        "backend": reference["backend"],
        "interleaved_rounds": rounds,
        "workload": f"asp size={SCALE_SIZE} (fixed problem, strong "
        "scaling over N), NM",
        "topology_leg": SCALE_TOPOLOGY,
        "legs": legs,
        "reference_nodes": grid[0],
        "per_event_overhead_vs_reference": overhead,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for key, leg in legs.items():
        print(
            f"N={key}: {leg['wall_s']:.2f}s wall, "
            f"{leg['engine_events']} events "
            f"({leg['events_per_sec']:.0f} ev/s, "
            f"{leg['us_per_event']:.3f} us/ev, "
            f"{overhead[key]:.2f}x vs N={grid[0]}), "
            f"peak RSS {leg['peak_rss_kb']} KiB"
        )
    print(f"report written to {args.out}")


def large_main(args) -> None:
    """``--tier large``: the memory tier — GC-off vs GC-on legs per
    workload in isolated subprocesses, plus the pinned walls."""
    if args.memory_leg:
        json.dump(_memory_leg(args.memory_leg, not args.no_gc), sys.stdout)
        return

    workloads = {}
    for name in LARGE_WORKLOADS:
        print(f"{name}: measuring gc-off leg ...", flush=True)
        no_gc = _spawn_memory_leg(name, gc_enabled=False)
        print(f"{name}: measuring gc-on leg ...", flush=True)
        gc_on = _spawn_memory_leg(name, gc_enabled=True)
        if no_gc["result_digest"] != gc_on["result_digest"]:
            raise SystemExit(
                f"FATAL: GC changed simulated results for {name}"
            )
        workloads[name] = {
            "spec": LARGE_WORKLOADS[name],
            "no_gc": no_gc,
            "gc": gc_on,
            "reduction": {
                "peak_rss_pct": 100.0
                * (1.0 - gc_on["peak_rss_kb"] / no_gc["peak_rss_kb"]),
                "tracemalloc_peak_pct": 100.0
                * (
                    1.0
                    - gc_on["tracemalloc_peak_bytes"]
                    / no_gc["tracemalloc_peak_bytes"]
                ),
                "cache_payload_pct": 100.0
                * (
                    1.0
                    - gc_on["footprint"]["cache_payload_bytes"]
                    / max(1, no_gc["footprint"]["cache_payload_bytes"])
                ),
            },
            "identical_results": True,
        }

    report = {
        "mode": "large-memory-tier",
        "host": _host(),
        "backend": _backend_name(),
        "workloads": workloads,
        "pinned": measure_pinned(args.repeats),
        "microbench": measure_microbench(3),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for name, entry in workloads.items():
        red = entry["reduction"]
        print(
            f"{name}: peak RSS {entry['no_gc']['peak_rss_kb']} -> "
            f"{entry['gc']['peak_rss_kb']} KiB "
            f"({red['peak_rss_pct']:.1f}% lower with GC), "
            f"tracemalloc peak {red['tracemalloc_peak_pct']:.1f}% lower, "
            f"live cache payload {red['cache_payload_pct']:.1f}% lower"
        )
    for name, w in report["pinned"].items():
        print(f"{name}: {w['wall_s_best']:.4f}s best of {args.repeats}")
    print(f"report written to {args.out}")


def backends_main(args) -> None:
    """``--compare-backends``: compiled vs pure-Python, interleaved rounds.

    The compiled legs run in this process (which must therefore be on the
    compiled backend); the python legs run the identical measurement in
    ``REPRO_BACKEND=python`` subprocesses.  Rounds alternate so shared-host
    load epochs cannot bias one side, exactly like ``--compare-src``.
    Deterministic outcome fields (simulated time, engine events, message
    count) must agree across backends or the run aborts.
    """
    from repro import _kernel

    if _kernel.backend_name() != "compiled":
        raise SystemExit(
            "FATAL: --compare-backends needs this process on the compiled "
            f"backend, but it is on {_kernel.backend_name()!r} "
            f"({_kernel.backend_info()['reason']})"
        )

    rounds = max(1, args.rounds)
    py = comp = None
    for rnd in range(rounds):
        print(f"round {rnd + 1}/{rounds}: python leg ...", flush=True)
        py = _merge_measurements(
            py, _measure_backend_leg("python", args.repeats)
        )
        print(f"round {rnd + 1}/{rounds}: compiled leg ...", flush=True)
        comp = _merge_measurements(
            comp,
            {
                "backend": "compiled",
                "workloads": measure_pinned(args.repeats),
                "microbench": measure_microbench(3),
            },
        )

    if py.get("backend") != "python":
        raise SystemExit(
            "FATAL: python leg subprocess reported backend "
            f"{py.get('backend')!r}"
        )
    for name in PINNED_WORKLOADS:
        a, b = py["workloads"][name], comp["workloads"][name]
        for field in ("sim_time_us", "engine_events", "messages"):
            if a[field] != b[field]:
                raise SystemExit(
                    f"FATAL: backends disagree on {name}.{field}: "
                    f"python={a[field]} compiled={b[field]}"
                )

    speedup = {
        name: {
            "python_wall_s": py["workloads"][name]["wall_s_best"],
            "compiled_wall_s": comp["workloads"][name]["wall_s_best"],
            "speedup": py["workloads"][name]["wall_s_best"]
            / comp["workloads"][name]["wall_s_best"],
        }
        for name in PINNED_WORKLOADS
    }
    micro_py = py["microbench"]["events_per_sec"]
    micro_comp = comp["microbench"]["events_per_sec"]
    speedup["microbench"] = {
        "python_events_per_sec": micro_py,
        "compiled_events_per_sec": micro_comp,
        "speedup": micro_comp / micro_py,
    }

    report = {
        "mode": "compare-backends",
        "host": _host(),
        "backend": "compiled",
        "kernel": _kernel.backend_info(),
        "interleaved_rounds": rounds,
        "repeats": args.repeats,
        "python": py,
        "compiled": comp,
        "speedup": speedup,
        "identical_results": True,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for name, entry in speedup.items():
        if name == "microbench":
            continue
        print(
            f"{name}: {entry['python_wall_s']:.4f}s python -> "
            f"{entry['compiled_wall_s']:.4f}s compiled "
            f"({entry['speedup']:.2f}x)"
        )
    micro = speedup["microbench"]
    print(
        f"event loop: {micro['python_events_per_sec']:.0f} -> "
        f"{micro['compiled_events_per_sec']:.0f} events/s "
        f"({micro['speedup']:.2f}x)"
    )
    print(f"report written to {args.out}")


def pinned_main(args) -> None:
    """``--pinned``: measure the gate workloads, optionally vs an old tree."""
    if args.emit_json:
        json.dump(
            {
                "backend": _backend_name(),
                "workloads": measure_pinned(args.repeats),
                "microbench": measure_microbench(3),
            },
            sys.stdout,
        )
        return

    if not args.compare_src:
        measured = {
            "workloads": measure_pinned(args.repeats),
            "microbench": measure_microbench(),
        }
        before = None
    else:
        # Interleave old-tree and new-tree rounds: wall-clock noise on a
        # shared host comes in multi-second epochs, so measuring all of
        # "before" then all of "after" would let one load spike bias the
        # comparison.  Alternating short rounds and taking the best of
        # each side cancels the drift.
        before = after = None
        for _ in range(max(1, args.rounds)):
            before = _merge_measurements(
                before, _measure_old_tree(args.compare_src, args.repeats)
            )
            after = _merge_measurements(
                after,
                {
                    "workloads": measure_pinned(args.repeats),
                    "microbench": measure_microbench(3),
                },
            )
        measured = after

    report = {
        "mode": "pinned",
        "host": _host(),
        "backend": _backend_name(),
        "workloads": measured["workloads"],
        "microbench": measured["microbench"],
    }
    if before is not None:
        report["baseline"] = {"src": args.compare_src, **before}
        report["reduction"] = {}
        for name, after in report["workloads"].items():
            old_wall = before["workloads"][name]["wall_s_best"]
            new_wall = after["wall_s_best"]
            report["reduction"][name] = {
                "before_s": old_wall,
                "after_s": new_wall,
                "reduction_pct": 100.0 * (1.0 - new_wall / old_wall),
            }
        old_rate = before["microbench"]["events_per_sec"]
        new_rate = report["microbench"]["events_per_sec"]
        report["reduction"]["microbench"] = {
            "before_events_per_sec": old_rate,
            "after_events_per_sec": new_rate,
            "speedup": new_rate / old_rate,
        }

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for name, w in report["workloads"].items():
        line = f"{name}: {w['wall_s_best']:.4f}s best of {args.repeats}"
        if "reduction" in report and name in report["reduction"]:
            line += f" ({report['reduction'][name]['reduction_pct']:.1f}% vs baseline)"
        print(line)
    print(
        f"event loop: {report['microbench']['events_per_sec']:.0f} events/s"
    )
    print(f"report written to {args.out}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--out",
        default=None,
        help="report path (default: BENCH_PR6.json for --compare-backends, "
        "BENCH_PR2.json otherwise)",
    )
    parser.add_argument(
        "--pinned",
        action="store_true",
        help="measure the pinned perf-gate workloads instead of the sweep",
    )
    parser.add_argument(
        "--compare-backends",
        action="store_true",
        help="measure the pinned workloads + event-loop microbench under "
        "the compiled backend (this process) vs pure-Python (subprocess), "
        "interleaved rounds",
    )
    parser.add_argument(
        "--compare-src",
        default=None,
        metavar="DIR",
        help="also measure an older source tree (its src/ dir) for comparison",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-friendly sizing: fewest repeats/rounds that still produce "
        "a best-of measurement (shared runners are too noisy for the "
        "extra repeats to buy signal; same-host runs should use the "
        "defaults)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repeats per workload (default 5, or 2 with --quick)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="interleaved old/new measurement rounds for --compare-src "
        "(default 3, or 1 with --quick)",
    )
    parser.add_argument(
        "--emit-json",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: used for the --compare-src subprocess
    )
    parser.add_argument(
        "--tier",
        choices=("quick", "large", "scale", "serving"),
        default="quick",
        help="'large' runs the memory tier (GC-off vs GC-on subprocesses); "
        "'scale' runs the 16..1024-node event-rate tier (compiled backend, "
        "one subprocess per leg); 'serving' runs the SLO tier (16- and "
        "256-node Zipfian request legs with cross-backend digest checks)",
    )
    parser.add_argument(
        "--memory-leg",
        default=None,
        help=argparse.SUPPRESS,  # internal: one isolated memory measurement
    )
    parser.add_argument(
        "--scale-leg",
        default=None,
        help=argparse.SUPPRESS,  # internal: one isolated scale measurement
    )
    parser.add_argument(
        "--serving-leg",
        default=None,
        help=argparse.SUPPRESS,  # internal: one isolated serving measurement
    )
    parser.add_argument(
        "--topology",
        default=None,
        help=argparse.SUPPRESS,  # internal: topology spec for --scale-leg
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=1024,
        help="largest scale-tier leg (CI push jobs stop at 256; the "
        "1024-node leg runs nightly)",
    )
    parser.add_argument(
        "--no-gc",
        action="store_true",
        help="disable barrier-epoch memory GC (memory-ablation leg)",
    )
    args = parser.parse_args()
    if args.repeats is None:
        args.repeats = 2 if args.quick else 5
    if args.rounds is None:
        args.rounds = 1 if args.quick else 3
    if args.out is None:
        if args.compare_backends:
            args.out = "BENCH_PR6.json"
        elif args.tier == "scale":
            args.out = "BENCH_PR9.json"
        elif args.tier == "serving":
            args.out = "BENCH_PR10.json"
        else:
            args.out = "BENCH_PR2.json"
    if args.compare_backends:
        backends_main(args)
        return
    if args.tier == "serving" or args.serving_leg:
        serving_main(args)
        return
    if args.tier == "scale" or args.scale_leg:
        scale_main(args)
        return
    if args.tier == "large" or args.memory_leg:
        large_main(args)
        return
    if args.pinned:
        pinned_main(args)
        return

    from repro.bench.executor import default_jobs

    specs = build_sweep()
    jobs_auto = default_jobs()
    # Always exercise the real pool path, even on a single-core host
    # (where the ratio honestly comes out ~1x).
    jobs_par = max(2, jobs_auto)

    # Warm caches (imports, numpy) so jobs=1 isn't penalised for going first.
    run_mode(specs[:1], jobs=1)

    seq_outcomes, seq_wall = run_mode(specs, jobs=1)
    par_outcomes, par_wall = run_mode(specs, jobs=jobs_par)

    # Telemetry-on leg: metrics + streamed JSONL traces + info logging,
    # sequentially, into a scratch directory that vanishes afterwards.
    from repro.bench.executor import ObsSpec

    with tempfile.TemporaryDirectory(prefix="bench-obs-") as scratch:
        obs = ObsSpec(
            trace_path=os.path.join(scratch, "trace.jsonl"),
            metrics=True,
            log_level="error",  # level-gated sites active, stderr quiet
        )
        obs_outcomes, obs_wall = run_mode(specs, jobs=1, obs=obs)
        traced_events = sum(
            o.telemetry["trace"]["events"] for o in obs_outcomes
        )

    if [o.deterministic() for o in seq_outcomes] != [
        o.deterministic() for o in par_outcomes
    ]:
        raise SystemExit("FATAL: jobs=1 and jobs=auto results differ")
    if [o.deterministic() for o in seq_outcomes] != [
        o.deterministic() for o in obs_outcomes
    ]:
        raise SystemExit("FATAL: telemetry changed simulated results")

    total_events = sum(o.events_processed for o in seq_outcomes)
    seq_run_wall = sum(o.wall_clock_s for o in seq_outcomes)
    obs_run_wall = sum(o.wall_clock_s for o in obs_outcomes)
    report = {
        "sweep": "figure2-quick (ASP/SOR x NM/AT x 2,4,8 nodes)",
        "host": {**_host(), "usable_cores": jobs_auto},
        "backend": _backend_name(),
        "runs": [
            {
                "tag": list(o.tag),
                "sim_time_s": o.time_s,
                "engine_events": o.events_processed,
                "wall_s_seq": o.wall_clock_s,
                "wall_s_par": p.wall_clock_s,
            }
            for o, p in zip(seq_outcomes, par_outcomes)
        ],
        "totals": {
            "n_runs": len(specs),
            "engine_events": total_events,
            "jobs_auto": jobs_auto,
            "jobs_parallel": jobs_par,
            "wall_s_jobs1": seq_wall,
            "wall_s_parallel": par_wall,
            # The headline ratio, named for what it is: sequential wall
            # over parallel wall.  (``parallel_speedup`` kept as an alias
            # for readers of the PR-2 report format.)
            "speedup": seq_wall / par_wall if par_wall else None,
            "parallel_speedup": seq_wall / par_wall if par_wall else None,
            "events_per_sec_jobs1": total_events / seq_run_wall,
        },
        "telemetry": {
            "instruments": "metrics + JSONL trace + error-gated logging",
            "wall_s_jobs1": obs_wall,
            "overhead_ratio": (
                obs_run_wall / seq_run_wall if seq_run_wall else None
            ),
            "traced_events": traced_events,
        },
        "identical_results": True,
    }
    if jobs_auto == 1:
        report["totals"]["note"] = (
            "single usable core: the worker pool adds process overhead "
            "with no real concurrency, so speedup ~1x (or below) is the "
            "honest expectation on this host"
        )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    totals = report["totals"]
    print(
        f"{totals['n_runs']} runs, {total_events} engine events\n"
        f"jobs=1: {seq_wall:.2f}s wall "
        f"({totals['events_per_sec_jobs1']:.0f} events/s single-process)\n"
        f"jobs={jobs_par}: {par_wall:.2f}s wall "
        f"(speedup {totals['parallel_speedup']:.2f}x on "
        f"{jobs_auto} usable core(s))\n"
        f"telemetry on: {obs_wall:.2f}s wall "
        f"({report['telemetry']['overhead_ratio']:.2f}x per-run overhead, "
        f"{traced_events} traced events)\n"
        f"report written to {args.out}"
    )


if __name__ == "__main__":
    main()
