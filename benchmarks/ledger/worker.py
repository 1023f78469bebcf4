"""One ledger episode, run in a fresh interpreter by ``run.py``.

``python worker.py MODE --workload W --seed N [--small]``
prints one JSON object as its last stdout line.  The parent sets
``PYTHONPATH`` to the checkout's ``src``, ``PYTHONHASHSEED=0`` and
``REPRO_BACKEND``; the worker refuses to run on any other backend than
the one requested.

Modes: ``prepare`` (force the one-off kernel build), ``timed`` (set-up,
one episode with the host's speed sampled throughout, then verify
that episode's output and count what it did), ``traced`` (the same under
cProfile, between two calibrations) and ``probes`` (the per-layer
microbenchmarks).
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import resource
import sys
import time

import ledger


def build_episode(params: dict):
    """Turn plain workload parameters into ``(call, spec)``: the public
    entry point one episode goes through and its argument."""
    fields = {k: v for k, v in params.items() if k != "kind"}
    if params["kind"] == "serve":
        from repro.apps.serving import ServingSpec
        from repro.bench.serving import run_serving

        return run_serving, ServingSpec(**fields)
    from repro.bench.executor import RunSpec, run_spec

    return run_spec, RunSpec(verify=False, **fields)


def sim_result(result) -> dict:
    """The simulated (virtual-time) results of one episode and a digest
    of everything deterministic about it."""
    if isinstance(result, dict):  # serve report
        from repro.bench.serving import report_digest

        return {
            "digest": report_digest(result),
            "sim_time_us": result["sim_time_us"],
            "sim_msgs": result["messages"],
            "sim_bytes": result["bytes_total"],
            "req_p99_us": result["latency_us"]["all"]["p99"],
            "requests": result["requests"],
        }
    blob = json.dumps(result.deterministic(), sort_keys=True)
    return {
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
        "sim_time_us": result.time_us,
        "sim_msgs": result.messages,
        "sim_bytes": result.bytes_total,
    }


def provenance(seed: int) -> dict:
    """Where the measured code came from and what it ran on."""
    import numpy
    import repro
    from repro import _kernel

    return {
        "repro_file": os.path.realpath(repro.__file__),
        "backend": _kernel.backend_name(),
        "build_hash": _kernel.build_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "calib_ref_s": ledger.CALIB_REF_S,
    }


def bind_backend(expected: str) -> None:
    """Load the kernel and insist on the requested backend.

    ``REPRO_BACKEND=compiled`` already raises when the extension is
    unavailable; this also catches an environment that lost the variable.
    """
    from repro import _kernel

    bound = _kernel.backend_name()
    if bound != expected:
        raise RuntimeError(f"backend {bound!r} bound, {expected!r} requested")


def capture_runs() -> list:
    """Record ``(app, RunResult)`` of every ``DistributedJVM.run`` from
    here on (one pass-through frame per episode) — the only way to reach
    the application's verifier, the oracle's inputs, ClusterStats peaks
    and a serving run's event count from outside."""
    import repro

    captured: list = []
    original = repro.DistributedJVM.run

    def run(self, app, *args, **kwargs):
        result = original(self, app, *args, **kwargs)
        captured.append((app, result))
        return result

    repro.DistributedJVM.run = run
    return captured


def counters(result, report: dict | None) -> dict:
    """Table (a): exact per-layer counts of one episode."""
    stats = result.stats
    events = stats.events
    remote = events.get("remote_read", 0) + events.get("diff", 0)
    migrations = result.migrations
    exclusive = events.get("exclusive_home_write", 0)
    out = {
        "sim.events": result.gos.sim.events_processed,
        "cluster.data_msgs": stats.data_messages(),
        "cluster.ctrl_msgs": stats.total_messages() - stats.data_messages(),
        "dsm.remote_reads": events.get("remote_read", 0),
        "dsm.diffs": events.get("diff", 0),
        "dsm.home_writes": events.get("home_write", 0),
        "dsm.redirects": events.get("redir", 0),
        "dsm.lock_acquires": events.get("lock_acquire", 0),
        "dsm.barrier_rounds": events.get("barrier_round", 0),
        "dsm.migrations": migrations,
        "dsm.redirect_ratio": events.get("redir", 0) / remote if remote else 0.0,
        "dsm.cache_entries_peak": stats.peaks.get("cache_entries", 0),
        "core.exclusive_home_writes": exclusive,
        "core.migrate_yield": exclusive / migrations if migrations else 0.0,
    }
    spans = result.gos.spans
    out["obs.spans"] = spans.issued if spans is not None else 0
    out["bench.requests"] = report["requests"] if report is not None else 0
    if report is not None:
        misses = events.get("remote_read", 0) + events.get("remote_write", 0)
        out["obs.req_miss_ratio"] = misses / report["requests"]
    return out


def check_serving(app, result, report: dict) -> list[str]:
    """Oracle replay of the final heap, and span accounting, for one
    serving episode; returns the violations."""
    from repro.check import oracle

    problems = list(oracle.check_episode(app.spec, app.execution_log, result.output))
    expected = sum(
        1
        for phase in app.spec.phases
        for sections in phase
        for section in sections
        if section.request
    )
    spans = report["spans"]
    if not spans["opened"] == spans["closed"] == expected:
        problems.append(
            f"request spans opened={spans['opened']} closed={spans['closed']} "
            f"expected={expected}"
        )
    return problems


def set_up(workload: ledger.Workload, args):
    """Everything a user pays before the first result: imports, kernel
    load and a shrunken warm-up episode.  Returns the full-size episode."""
    bind_backend(workload.backend)
    warm_call, warm_spec = build_episode(workload.params(args.seed, True))
    warm_call(warm_spec)
    return build_episode(workload.params(args.seed, args.small))


def checked(workload: ledger.Workload, captured: list, result) -> dict:
    """Verify the episode that was just measured and count what it did:
    its simulated result, the problems found and the table (a) counters."""
    out = {"sim": sim_result(result), "problems": [], "counters": {}}
    if not captured:
        out["problems"].append("DistributedJVM.run was not reached: nothing verified")
        return out
    app, run_result = captured[-1]
    report = result if workload.serving else None
    if report is not None:
        out["problems"] += check_serving(app, run_result, report)
    else:
        try:
            app.verify(run_result.output)
        except Exception as exc:  # any verifier failure is a wrong output
            out["problems"].append(f"{type(exc).__name__}: {exc}".splitlines()[0])
    out["counters"] = counters(run_result, report)
    return out


def run_timed(workload: ledger.Workload, args) -> dict:
    """Set up, then one episode with the host's speed sampled throughout."""
    call, spec = set_up(workload, args)
    captured = capture_runs()
    setup_s = time.process_time()  # CPU seconds since this process began
    sampler = ledger.SpeedSampler()
    sampler.start()
    try:
        wall_start = time.perf_counter()
        result = call(spec)
        episode = sampler.lap()
        wall_raw_s = time.perf_counter() - wall_start - episode.sampler_s
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "cpu_raw_s": episode.cpu_s,
        "wall_raw_s": wall_raw_s,
        "speed": episode.speed,
        "wall_adj_s": episode.adjusted_s,
        "peak_rss_mb": peak_rss_mb,
        **checked(workload, captured, result),
    }


def run_traced(workload: ledger.Workload, args) -> dict:
    """The same episode under cProfile, between two calibrations (the
    sampler's passes would land in the profile)."""
    call, spec = set_up(workload, args)
    captured = capture_runs()
    profiler = cProfile.Profile()
    calib_before = ledger.calibrate()
    cpu_start = time.process_time()
    result = profiler.runcall(call, spec)
    cpu_raw_s = time.process_time() - cpu_start
    shares, calls = ledger.fold_profile(profiler.getstats())
    return {
        "shares": shares,
        "calls": calls,
        "cpu_adj_s": ledger.drift_corrected(cpu_raw_s, calib_before, ledger.calibrate()),
        **checked(workload, captured, result),
    }


def run_prepare(_workload, _args) -> dict:
    """Force the first-use build of the compiled kernel (importing
    ``repro`` already loads it); report how long that took and whether
    it had to compile."""
    import importlib.util

    package_dir = importlib.util.find_spec("repro").submodule_search_locations[0]
    build_dir = os.path.join(package_dir, "_kernel", "_build")
    before = set(os.listdir(build_dir)) if os.path.isdir(build_dir) else set()
    start = time.perf_counter()
    bind_backend("compiled")
    seconds = time.perf_counter() - start
    after = set(os.listdir(build_dir)) if os.path.isdir(build_dir) else set()
    return {"kernel_load_s": seconds, "built": bool(after - before)}


def run_probes(_workload, args) -> dict:
    import probes

    bind_backend(args.backend)
    values, reasons = probes.run_all()
    return {"probes": values, "reasons": reasons}


MODES = {
    "prepare": run_prepare,
    "timed": run_timed,
    "traced": run_traced,
    "probes": run_probes,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", choices=sorted(ledger.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--backend", choices=("compiled", "python"), default="compiled")
    args = parser.parse_args(argv)
    workload = ledger.WORKLOADS.get(args.workload)
    if workload is None and args.mode in ("timed", "traced"):
        parser.error(f"mode {args.mode} needs --workload")
    payload = MODES[args.mode](workload, args)
    payload["provenance"] = provenance(args.seed)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
