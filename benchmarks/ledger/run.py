"""Cost ledger: end-to-end legs, per-layer probes and a traced run.

Two ways in, one measurement path:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one leg for
  about ``S`` seconds; the last stdout line is one JSON object
  ``{"correct", "attempted", "failed", "metrics"}`` holding every
  end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``) of BENCHMARK.json.
* ``run.py [--seed 0] [--rounds 7] [--layers] [--aa] [--out FILE]`` — the
  whole ledger: ``rounds`` interleaved passes over all workloads, with
  the per-layer tables on ``--layers`` and a same-code A/A comparison on
  ``--aa``; exits non-zero on any failed operation.

Every episode runs alone in a fresh interpreter (``worker.py``) against
the ``src/`` of this checkout; see README.md for the method.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: One worker may take this long before it counts as failed.
WORKER_TIMEOUT_S = 150

#: Fewest timed episodes behind one leg's medians; a ``--trace 1`` run
#: times exactly this many for its host figures.
MIN_EPISODES = 3


class Tally:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def spawn(tally: Tally, mode: str, backend: str, **options) -> dict | None:
    """Run one worker to completion; ``None`` (and a tallied failure) on
    a crash, a timeout, malformed output or a provenance mismatch."""
    tally.attempted += 1
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--backend", backend]
    for key, value in options.items():
        if value is True:
            cmd.append(f"--{key}")
        elif value is not None and value is not False:
            cmd += [f"--{key}", str(value)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", REPRO_BACKEND=backend)
    # Bytecode caches on, as users have them: otherwise set-up time
    # recompiles the whole package in every worker.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    label = f"{mode} {options.get('workload') or backend}"
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        tally.fail(f"{label}: timed out after {WORKER_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        tally.fail(f"{label}: exit {proc.returncode}: {tail}")
        return None
    try:
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        origin = payload["provenance"]
    except (IndexError, KeyError, ValueError) as exc:
        tally.fail(f"{label}: unreadable result ({exc})")
        return None
    if not origin["repro_file"].startswith(os.path.realpath(SRC) + os.sep):
        tally.fail(f"{label}: measured {origin['repro_file']}, not this checkout")
        return None
    if origin["backend"] != backend:
        tally.fail(f"{label}: ran on {origin['backend']}, {backend} requested")
        return None
    return payload


def timed_episode(tally: Tally, workload: ledger.Workload, seed: int, small: bool) -> dict | None:
    """One timed episode; the worker reports its host times both raw and
    at the reference host speed."""
    return spawn(
        tally, "timed", workload.backend, workload=workload.name, seed=seed, small=small
    )


def consistent(tally: Tally, name: str, samples: list[dict]) -> bool:
    """Every episode verified its own output; here they must also agree
    on the simulated result.  ``False`` when there is nothing to report."""
    for index, sample in enumerate(samples):
        for problem in sample["problems"]:
            tally.fail(f"{name} #{index}: {problem}")
        if sample["sim"] != samples[0]["sim"]:
            tally.fail(
                f"{name} #{index}: simulated result {sample['sim']['digest'][:12]} "
                f"differs from episode #0's {samples[0]['sim']['digest'][:12]}"
            )
    return bool(samples)


def end_to_end(samples: list[dict]) -> dict:
    """``{metric: {median, iqr, n}}`` over one workload's timed samples."""
    return {
        name: ledger.summarize([s[name] for s in samples])
        for name in ledger.END_TO_END
    }


def kernel_build_s() -> tuple[float | None, str | None]:
    """Drift-corrected seconds the compiled kernel takes to build: the
    compiler line of the first-use build's log, re-run to a scratch file."""
    build_dir = SRC / "repro" / "_kernel" / "_build"
    try:
        first = (build_dir / "build.log").read_text().splitlines()[0]
        cmd = shlex.split(first.removeprefix("$ "))
        target = build_dir / "ledger-build-timing.tmp"
        cmd[cmd.index("-o") + 1] = str(target)
    except (OSError, IndexError, ValueError) as exc:
        return None, f"no replayable build log ({type(exc).__name__}: {exc})"
    before = ledger.calibrate()
    spent = os.times()
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=WORKER_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, f"compiler did not run ({exc})"
    finally:
        target.unlink(missing_ok=True)
    if proc.returncode != 0:
        return None, f"compiler exit {proc.returncode}"
    now = os.times()
    seconds = (now.children_user - spent.children_user) + (
        now.children_system - spent.children_system
    )
    return ledger.drift_corrected(seconds, before, ledger.calibrate()), None


def run_probes(tally: Tally) -> tuple[dict, dict]:
    """Table (c) under both backends: ``(values, reasons)``; the
    pure-Python figures carry a ``.py`` suffix."""
    values: dict = {}
    reasons: dict = {}
    for backend, suffix in (("compiled", ""), ("python", ".py")):
        payload = spawn(tally, "probes", backend)
        for name in ledger.PROBES:
            key = name + suffix
            if payload is None:
                values[key], reasons[key] = None, "probe worker failed"
                continue
            values[key] = payload["probes"].get(name)
            if values[key] is None:
                reasons[key] = payload["reasons"].get(name, "not reported")
    return values, reasons


def layer_tables(tally, workload, seed, small, samples, shared) -> dict:
    """Tables (a), (b) and (d) of one workload plus the shared (c) probes
    and kernel build time; a figure that could not be had is ``None``."""
    sim = samples[0]["sim"]
    out = {name: sim.get(name) for name in ledger.SIM_METRICS}
    out.update({name: samples[0]["counters"].get(name) for name in ledger.COUNTERS})

    wall = ledger.summarize([s["wall_adj_s"] for s in samples])
    events = out["sim.events"]
    out["host.wall_raw_s"] = statistics.median(s["wall_raw_s"] for s in samples)
    out["host.speed"] = statistics.median(s["speed"] for s in samples)
    out["host.wall_iqr"] = wall["iqr"]
    out["host.on_cpu_share"] = statistics.median(
        s["cpu_raw_s"] / s["wall_raw_s"] for s in samples
    )
    out["host.us_per_event"] = wall["median"] * 1e6 / events if events else None
    out["host.us_per_msg"] = wall["median"] * 1e6 / sim["sim_msgs"]
    out["host.req_per_s"] = sim["requests"] / wall["median"] if workload.serving else None
    out["kernel.build_s"] = shared["build_s"]
    out["kernel.compiled"] = 1 if workload.backend == "compiled" else 0
    out.update(shared["probes"])

    traced = spawn(
        tally, "traced", workload.backend, workload=workload.name, seed=seed, small=small
    )
    for layer in ledger.LAYERS:
        out[f"{layer}.self_share"] = traced["shares"][layer] if traced else None
    out["prof.calls"] = traced["calls"] if traced else None
    out["prof.overhead_x"] = None
    if traced is not None:
        consistent(tally, f"traced {workload.name}", [samples[0], traced])
        out["prof.overhead_x"] = traced["cpu_adj_s"] / wall["median"]
    return out


def shared_layers(tally: Tally) -> dict:
    """The per-layer figures that do not depend on the workload."""
    probes, reasons = run_probes(tally)
    build_s, why = kernel_build_s()
    if why is not None:
        reasons["kernel.build_s"] = why
    for name, reason in sorted(reasons.items()):
        print(f"null {name}: {reason}")
    return {"probes": probes, "build_s": build_s, "reasons": reasons}


def prepare(tally: Tally) -> dict | None:
    """Untimed: force the one-off gcc build of the compiled kernel."""
    payload = spawn(tally, "prepare", "compiled")
    if payload is not None and payload["built"]:
        print(f"prepare: built the compiled kernel in {payload['kernel_load_s']:.1f} s")
    return payload


def show(name: str, value, unit: str, note: str = "") -> None:
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<28} {text:>12} {unit:<6} {note}".rstrip())


# -- one leg for the driver ---------------------------------------------------


def driver_run(args) -> int:
    """``--workload``: one leg, one JSON result line."""
    workload = ledger.WORKLOADS[args.workload]
    tally = Tally()
    if prepare(tally) is None:
        return 1
    samples: list[dict] = []
    started = time.monotonic()
    cycle = 0.0

    def another() -> bool:
        if len(samples) < MIN_EPISODES:
            return True
        if args.trace:
            return False
        # Stop when half of another episode would overrun: the run then
        # measures for --seconds on average, whatever the episode length.
        return time.monotonic() - started + cycle / 2.0 < args.seconds

    while another():
        began = time.monotonic()
        sample = timed_episode(tally, workload, args.seed, args.small)
        cycle = time.monotonic() - began
        if sample is None:
            break
        samples.append(sample)
    if not consistent(tally, workload.name, samples):
        print(f"{workload.name}: nothing measured", file=sys.stderr)
        return 1

    print(f"{workload.name} seed={args.seed} backend={workload.backend} episodes={len(samples)}")
    if args.trace:
        table = layer_tables(
            tally, workload, args.seed, args.small, samples, shared_layers(tally)
        )
        units = ledger.per_layer_units()
        metrics = {}
        for name, unit in units.items():
            show(name, table[name], unit)
            value = ledger.NOT_APPLICABLE if table[name] is None else table[name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {}
        for name, summary in end_to_end(samples).items():
            unit = ledger.END_TO_END[name][0]
            show(name, summary["median"], unit, f"iqr {summary['iqr']:.4g} n={summary['n']}")
            metrics[name] = {"value": summary["median"], "unit": unit}
        show("host.wall_raw_s", statistics.median(s["wall_raw_s"] for s in samples), "s")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


# -- the whole ledger ---------------------------------------------------------


def run_set(args, tally: Tally) -> dict:
    """``rounds`` interleaved passes over every workload (and the
    per-layer tables on ``--layers``)."""
    names = list(ledger.WORKLOADS)
    samples: dict[str, list] = {name: [] for name in names}
    tallies = {name: Tally() for name in names}
    for round_no in range(args.rounds):
        for name in names:
            sample = timed_episode(tallies[name], ledger.WORKLOADS[name], args.seed, args.small)
            if sample is not None:
                samples[name].append(sample)
        print(f"round {round_no + 1}/{args.rounds} done", file=sys.stderr)
    shared = shared_layers(tally) if args.layers else None
    result: dict = {"workloads": {}}
    for name in names:
        workload, own = ledger.WORKLOADS[name], tallies[name]
        if not consistent(own, name, samples[name]):
            own.fail(f"{name}: nothing measured")
            tally.absorb(own)
            continue
        first = samples[name][0]
        sim = {k: first["sim"][k] for k in ledger.SIM_METRICS if k in first["sim"]}
        entry = {"end_to_end": end_to_end(samples[name]), "sim": sim}
        entry["wall_raw_s"] = ledger.summarize([s["wall_raw_s"] for s in samples[name]])
        if shared is not None:
            table = layer_tables(
                own, workload, args.seed, args.small, samples[name], shared
            )
            entry["per_layer"] = {k: v for k, v in table.items() if k not in sim}
        entry["ops_attempted"] = own.attempted
        entry["ops_failed"] = own.failed
        entry["provenance"] = first["provenance"]
        result["workloads"][name] = entry
        tally.absorb(own)
    if shared is not None:
        result["null_reasons"] = shared["reasons"]
    return result


def print_set(result: dict) -> None:
    units = ledger.per_layer_units()
    for name, entry in result["workloads"].items():
        print(f"{name}  (ops {entry['ops_attempted']}, failed {entry['ops_failed']})")
        for metric, summary in entry["end_to_end"].items():
            show(metric, summary["median"], ledger.END_TO_END[metric][0],
                 f"iqr {summary['iqr']:.4g} n={summary['n']}")
        if "per_layer" not in entry:
            show("host.wall_raw_s", entry["wall_raw_s"]["median"], "s",
                 f"iqr {entry['wall_raw_s']['iqr']:.4g}")
        for metric, value in entry["sim"].items():
            show(metric, value, ledger.SIM_METRICS[metric], "exact")
        for metric, value in entry.get("per_layer", {}).items():
            if value is not None or metric in result.get("null_reasons", {}):
                show(metric, value, units[metric])


def compare_sets(a: dict, b: dict, tally: Tally) -> None:
    """The A/A table: two sets of the same code, raw beside corrected."""
    print("A/A self-check: medians of two back-to-back sets of the same checkout")
    print(f"{'workload':<16} {'metric':<12} {'A':>10} {'B':>10} {'diff':>8} {'bound':>6}")
    for name, first in a["workloads"].items():
        second = b["workloads"].get(name)
        if second is None:
            continue
        rows = [
            (metric, first["end_to_end"][metric]["median"],
             second["end_to_end"][metric]["median"], bound)
            for metric, (_unit, bound) in ledger.END_TO_END.items()
        ]
        rows.insert(1, ("(wall raw)", first["wall_raw_s"]["median"],
                        second["wall_raw_s"]["median"], None))
        for metric, x, y, bound in rows:
            diff = (y - x) / x
            limit = "" if bound is None else f"{bound:.0%}"
            print(f"{name:<16} {metric:<12} {x:>10.4f} {y:>10.4f} {diff:>+8.2%} {limit:>6}")
            if bound is not None and abs(diff) > bound:
                tally.fail(f"A/A {name} {metric}: {diff:+.2%} exceeds {bound:.0%}")
        if first["sim"] != second["sim"]:
            tally.fail(f"A/A {name}: simulated results differ between the sets")
        for metric in (*ledger.COUNTERS, "prof.calls"):
            x, y = (s.get("per_layer", {}).get(metric) for s in (first, second))
            if x != y:
                tally.fail(f"A/A {name} {metric}: exact count {x} became {y}")


def ledger_run(args) -> int:
    """No ``--workload``: the whole ledger, optionally twice (``--aa``)."""
    tally = Tally()
    if prepare(tally) is None:
        return 1
    result = run_set(args, tally)
    print_set(result)
    if args.aa:
        result["second_set"] = run_set(args, tally)
        compare_sets(result, result["second_set"], tally)
    result["ops_attempted"] = tally.attempted
    result["ops_failed"] = tally.failed
    result["problems"] = tally.problems
    print(f"ops_attempted {tally.attempted}  ops_failed {tally.failed}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 1 if tally.failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ledger.WORKLOADS),
                        help="run this one leg and end with a JSON result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="with --workload: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--out", help="write the whole ledger as JSON here")
    parser.add_argument("--small", action="store_true",
                        help="shrunken workloads (smoke tests only)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: nothing to measure", file=sys.stderr)
        return 2
    return driver_run(args) if args.workload else ledger_run(args)


if __name__ == "__main__":
    sys.exit(main())
