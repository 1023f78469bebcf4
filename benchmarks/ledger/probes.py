"""Per-layer probes: drift-corrected timings of documented public calls.

Each probe times one entry point of docs/API.md in isolation, under the
backend the worker was started with.  A probe whose entry point was
renamed or removed reports ``None`` with a one-line reason and never
fails the run, so a refactor cannot break the benchmark it is judged by.
"""

from __future__ import annotations

import statistics
import time

import ledger

REPEATS = 5


def _per_unit(fn, units: int, scale: float) -> float:
    """Median CPU seconds of ``fn()`` over :data:`REPEATS` calls, divided
    by ``units`` and multiplied by ``scale`` (1e9 for ns per unit)."""
    samples = []
    for _ in range(REPEATS):
        start = time.process_time()
        fn()
        samples.append(time.process_time() - start)
    return statistics.median(samples) / units * scale


def sim_event_ns() -> float:
    from repro.sim import make_simulator

    n = 20_000

    def noop():
        pass

    def run():
        sim = make_simulator()
        for i in range(n):
            sim.schedule(float(i % 97), noop)
        sim.run()

    return _per_unit(run, n, 1e9)


def sim_switch_ns() -> float:
    from repro.sim import Delay, make_simulator

    procs, steps = 4, 2_000

    def body():
        for _ in range(steps):
            yield Delay(1.0)

    def run():
        sim = make_simulator()
        for _ in range(procs):
            sim.spawn(body(), name="p")
        sim.run()

    return _per_unit(run, procs * steps, 1e9)


def _send_ns(topology) -> float:
    from repro.cluster.hockney import FAST_ETHERNET
    from repro.cluster.message import MsgCategory
    from repro.cluster.network import Network
    from repro.sim import make_simulator

    nodes, n = 64, 10_000

    def run():
        sim = make_simulator()
        net = Network(sim, FAST_ETHERNET, nodes, topology=topology)
        for node in net.nodes:
            node.install_handler(lambda message: None)
        for i in range(n):
            net.send(i % nodes, (i * 7 + 1) % nodes, MsgCategory.DIFF, 64)
        sim.run()

    return _per_unit(run, n, 1e9)


def cluster_send_ns() -> float:
    return _send_ns(None)


def cluster_send_topo_ns() -> float:
    return _send_ns(ledger.FAT_TREE)


def memory_diff_ns() -> float:
    import numpy as np
    from repro.memory.diff import apply_diff, compute_diff

    twin = np.zeros(256)
    current = twin.copy()
    current[10:40] = 1.0
    current[200] = 2.0
    target = twin.copy()
    n = 2_000

    def run():
        for _ in range(n):
            apply_diff(target, compute_diff(1, twin, current))

    return _per_unit(run, n, 1e9)


def memory_arena_ns() -> float:
    from repro.memory.arena import new_arena

    n = 5_000

    def run():
        arena = new_arena()
        for _ in range(n):
            arena.free(arena.alloc(256))

    return _per_unit(run, n, 1e9)


def core_eq2_ns() -> float:
    from repro.core import adaptive_threshold

    n = 20_000

    def run():
        for i in range(n):
            adaptive_threshold(1.0, i & 7, i & 3, 0.5)

    return _per_unit(run, n, 1e9)


def _jvm_seconds(app, nodes: int, policy) -> float:
    """CPU seconds ``DistributedJVM.run`` takes for ``app`` (cluster
    build excluded)."""
    from repro import FAST_ETHERNET, DistributedJVM

    jvm = DistributedJVM(nodes=nodes, comm_model=FAST_ETHERNET, policy=policy)
    start = time.process_time()
    jvm.run(app)
    return time.process_time() - start


def _jvm_per_unit(make_app, nodes: int, make_policy, units: int, scale: float) -> float:
    """Median :func:`_jvm_seconds` over :data:`REPEATS` fresh runs, per unit."""
    samples = [_jvm_seconds(make_app(), nodes, make_policy()) for _ in range(REPEATS)]
    return statistics.median(samples) / units * scale


def _probe_app(setup, body, threads: int):
    """A minimal DsmApplication from two callables."""
    from repro.apps import DsmApplication

    class ProbeApp(DsmApplication):
        name = "ledger-probe"

        def default_threads(self, nnodes):
            return threads

        def setup(self, gos, nthreads):
            setup(self, gos, nthreads)

        def thread_body(self, ctx, tid):
            return body(self, ctx, tid)

        def finalize(self, gos):
            return None

        def verify(self, output):
            return None

    return ProbeApp()


def dsm_local_hit_ns() -> float:
    from repro import NoMigration

    n = 20_000

    def setup(app, gos, nthreads):
        app.obj = gos.alloc_array(16, home=0)

    def body(app, ctx, tid):
        for _ in range(n):
            yield from ctx.read(app.obj)

    return _jvm_per_unit(lambda: _probe_app(setup, body, 1), 2, NoMigration, n, 1e9)


def dsm_lock_update_us() -> float:
    from repro import AdaptiveThreshold
    from repro.apps import SingleWriterBenchmark

    n = 1_000

    return _jvm_per_unit(
        lambda: SingleWriterBenchmark(total_updates=n, repetition=4),
        4, AdaptiveThreshold, n, 1e6,
    )


def dsm_barrier_us() -> float:
    from repro import NoMigration

    nodes, rounds = 16, 100

    def setup(app, gos, nthreads):
        app.barrier = gos.alloc_barrier(nthreads, home=0)

    def body(app, ctx, tid):
        for _ in range(rounds):
            yield from ctx.barrier(app.barrier)

    return _jvm_per_unit(
        lambda: _probe_app(setup, body, nodes), nodes, NoMigration, rounds, 1e6
    )


def _gos_build_ms(nodes: int, topology) -> float:
    from repro import FAST_ETHERNET, AdaptiveThreshold
    from repro.gos.space import GlobalObjectSpace

    def run():
        GlobalObjectSpace(
            nodes, FAST_ETHERNET, policy=AdaptiveThreshold(), topology=topology
        )

    return _per_unit(run, 1, 1e3)


def gos_build_ms_16() -> float:
    return _gos_build_ms(16, None)


def gos_build_ms_1024() -> float:
    return _gos_build_ms(1024, ledger.FAT_TREE)


def obs_span_ns() -> float:
    from repro import TraceRecorder
    from repro.obs.spans import SpanTracer

    n = 5_000

    def run():
        spans = SpanTracer(TraceRecorder(kinds=("span_open", "span_close")))
        for i in range(n):
            op = spans.open("read_miss", i, 1, 0)
            spans.close(op, "read_miss", i + 1, 1, 0)

    return _per_unit(run, n, 1e9)


def obs_hist_ns() -> float:
    from repro.obs.hist import LatencyHistogram

    n = 10_000

    def run():
        hist = LatencyHistogram()
        for i in range(n):
            hist.record(float(i % 4096))

    return _per_unit(run, n, 1e9)


def apps_expand_ms() -> float:
    from repro.apps.serving import ServingSpec, build_serving_program

    spec = ServingSpec(nodes=64, keys=128, phases=2, requests_per_thread=16)
    return _per_unit(lambda: build_serving_program(spec), 1, 1e3)


PROBE_FUNCS = {
    "sim.event_ns": sim_event_ns,
    "sim.switch_ns": sim_switch_ns,
    "cluster.send_ns": cluster_send_ns,
    "cluster.send_topo_ns": cluster_send_topo_ns,
    "memory.diff_ns": memory_diff_ns,
    "memory.arena_ns": memory_arena_ns,
    "core.eq2_ns": core_eq2_ns,
    "dsm.local_hit_ns": dsm_local_hit_ns,
    "dsm.lock_update_us": dsm_lock_update_us,
    "dsm.barrier_us": dsm_barrier_us,
    "gos.build_ms_16": gos_build_ms_16,
    "gos.build_ms_1024": gos_build_ms_1024,
    "obs.span_ns": obs_span_ns,
    "obs.hist_ns": obs_hist_ns,
    "apps.expand_ms": apps_expand_ms,
}


def run_probe(func) -> tuple[float | None, str | None]:
    """``(drift-corrected value, None)`` or ``(None, reason)``."""
    calib_before = ledger.calibrate()
    try:
        raw = func()
    except Exception as exc:  # a missing entry point must not fail the run
        return None, f"{type(exc).__name__}: {exc}".splitlines()[0]
    return ledger.drift_corrected(raw, calib_before, ledger.calibrate()), None


def run_all(funcs: dict | None = None) -> tuple[dict, dict]:
    """Run every probe; returns ``(values, reasons)`` keyed by name."""
    values: dict = {}
    reasons: dict = {}
    for name, func in (PROBE_FUNCS if funcs is None else funcs).items():
        values[name], reason = run_probe(func)
        if reason is not None:
            reasons[name] = reason
    return values, reasons
