"""Cost-ledger definitions shared by the driver, the worker and the tests.

Everything here is plain data and pure functions: the calibration work
and the drift correction built on it, the quartile summary, the workload
table, the metric tables and the profile fold.  Nothing in this module
imports ``repro`` — the calibration work in particular must not change
when the code under measurement does.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import re
import signal
import statistics
import struct
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# -- calibration and drift correction ---------------------------------------
#
# One fixed piece of work measures how fast the host is right now.  The
# per-layer figures (probes, traced run, kernel build) bracket what they
# time with calibrate(); the end-to-end legs run short passes of the
# same work throughout the episode (SpeedSampler, below).

#: A calibration runs as this many short passes ...
CALIB_PASSES = 8

#: ... of this many rounds each (about 8 ms a pass, 64 ms in all).
CALIB_PASS_ROUNDS = 100

#: Bench-host median of :func:`calibrate`, frozen when the ledger was
#: written.  Every reported host time is scaled to this host speed, so
#: the figures of two sets of runs compare even when the host ran 20 %
#: slower during one of them.  Changing it rescales every host time:
#: re-measure the baseline in the same change.
CALIB_REF_S = 0.0720

_DOC = {
    "nodes": [
        {"id": i, "name": f"n{i}", "w": [i * 0.5, i * 1.5], "tags": ["a", "b"]}
        for i in range(10)
    ],
    "meta": {"k": "v", "n": 3, "f": 1.25, "l": [1, 2, 3]},
}
_WORD_NUMBER = re.compile(r"(\w+)-(\d+)")
_TWIN = np.arange(256.0)
_CURRENT = _TWIN.copy()
_CURRENT[10:40] += 1.0
_CURRENT[200] = 2.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def norm(self):
        return (self.x * self.x + self.y * self.y) ** 0.5


def _calibration_pass(rounds: int) -> float:
    """CPU seconds of one pass: ``rounds`` times a fixed mix of
    interpreter, standard-library and numpy work.

    The mix is wide on purpose.  What changes this host's speed is
    mostly a neighbour competing for the core, and that slows code by
    how much of the core it needs: a tight loop over a heap and a dict
    (the first calibration loop) slowed by 13 % when the simulator,
    whose code and data are spread wide, slowed by 40 %.  Over 94 noisy
    episodes of each driver leg this mix slowed in step with them
    (fitted exponent 0.8-1.15; the tight loop: 0.5-1.3).
    """
    dumps, loads = json.dumps, json.loads
    pack, unpack = struct.pack, struct.unpack
    flatnonzero = np.flatnonzero
    start = time.process_time()
    for j in range(rounds):
        text = dumps(_DOC)
        doc = loads(text)
        swapped = _WORD_NUMBER.sub(r"\2:\1", "alpha-12 beta-7 gamma-99 delta-3")
        nodes = sorted(doc["nodes"], key=lambda node: -node["w"][1])
        unpack("<3d", pack("<3d", 1.0, 2.0, j + 0.5))
        line = "%s|%05d|%.3f" % (swapped, len(text), nodes[0]["w"][0])
        "-".join(line.split("|"))
        {node["id"] % 5 for node in nodes}
        _Point(j, 2).norm()
        try:
            doc["missing"]
        except KeyError:
            pass
        ids = [node["id"] for node in nodes]
        ids.sort()
        bisect.bisect_left(ids, 4)
        f"{j:>8}{swapped[:5]!r}".encode().decode()
        for _ in range(13):  # as long again: diff two small arrays, patch a copy
            changed = flatnonzero(_TWIN != _CURRENT)
            patched = _TWIN.copy()
            patched[changed] = _CURRENT[changed]
            patched.sum()
    return time.process_time() - start


def calibrate(passes: int = CALIB_PASSES, rounds: int = CALIB_PASS_ROUNDS) -> float:
    """CPU seconds the fixed calibration work takes at the host's speed
    right now: the median pass times the number of passes.

    The median over short passes drops the passes a preemption landed
    in.  The cyclic collector is off while it runs (after one full
    collection): a generation-2 sweep landing in a pass would bill the
    size of the caller's heap, not host speed.
    """
    gc.collect()
    gc.disable()
    try:
        return passes * statistics.median(
            _calibration_pass(rounds) for _ in range(passes)
        )
    finally:
        gc.enable()


def drift_corrected(seconds: float, calib_before: float, calib_after: float) -> float:
    """``seconds`` rescaled from the host speed seen around it (the mean
    of the two calibration passes) to the frozen reference speed."""
    mean = (calib_before + calib_after) / 2.0
    if mean <= 0.0:
        raise ValueError(f"calibration time must be positive, got {mean!r}")
    return seconds * CALIB_REF_S / mean


# -- host speed sampled while the measured code runs ---------------------------
#
# The bench host changes speed in steps of 5-25 % that last 0.1-2 s, so
# two calibrations around a 1.5-3.5 s episode say little about the speed
# *during* it.  The end-to-end legs therefore sample the speed throughout.

#: While measured code runs, one calibration pass of this many rounds
#: (about 2 ms) ...
SAMPLE_ROUNDS = 25

#: ... is timed every this many wall-clock seconds.  (Not a CPU-time
#: timer: while one is armed Linux serves the process CPU clock from a
#: per-tick sum, and ``process_time()`` steps by 4 ms.)
SAMPLE_INTERVAL_S = 0.020

#: CPU seconds of one sampling pass at the reference host speed.
SAMPLE_REF_S = CALIB_REF_S * SAMPLE_ROUNDS / (CALIB_PASSES * CALIB_PASS_ROUNDS)


class Lap(NamedTuple):
    """What :meth:`SpeedSampler.lap` found since the previous lap."""

    #: CPU seconds of the measured code, the sampler's own excluded.
    cpu_s: float
    #: Host speed over them relative to the reference (1.0 = reference).
    speed: float
    #: CPU seconds the sampler itself took.
    sampler_s: float

    @property
    def adjusted_s(self) -> float:
        """The CPU seconds rescaled to the reference host speed."""
        return self.cpu_s * self.speed


class SpeedSampler:
    """Samples the host's speed *while* the measured code runs.

    An interval timer interrupts the main thread every
    :data:`SAMPLE_INTERVAL_S` and the handler times one short calibration
    pass (Python runs it between two bytecodes of the measured code).
    """

    def __init__(self) -> None:
        self._passes: list[float] = []
        self._own = 0.0
        self._mark = 0.0
        self._frozen = False

    def start(self) -> None:
        """Begin the first lap and the sampling."""
        _calibration_pass(SAMPLE_ROUNDS)  # untimed: the first pass of a process runs cold
        self._mark = time.process_time()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _sample(self, _signum, _frame) -> None:
        if self._frozen:
            return
        entered = time.process_time()
        collecting = gc.isenabled()
        gc.disable()  # as in calibrate(): no sweep of the caller's heap in a pass
        self._passes.append(_calibration_pass(SAMPLE_ROUNDS))
        if collecting:
            gc.enable()
        self._own += time.process_time() - entered

    def lap(self) -> Lap:
        """Close the lap that began at the previous one (or at
        :meth:`start`).

        Work done is speed integrated over time and the samples are
        evenly spaced in time, so the lap's speed is the mean of the
        sampled speeds ``SAMPLE_REF_S / pass`` — not the reference over
        the mean pass.  A lap too short to be sampled takes one pass now.
        """
        self._frozen = True  # a handler that fires from here on is a no-op
        now = time.process_time()
        own = self._own
        passes = self._passes or [_calibration_pass(SAMPLE_ROUNDS)]
        speed = statistics.fmean(SAMPLE_REF_S / p for p in passes)
        lap = Lap(now - self._mark - own, speed, own)
        self._passes, self._own, self._mark = [], 0.0, time.process_time()
        self._frozen = False
        return lap


def summarize(values: list[float]) -> dict:
    """Median, inter-quartile range and count of one metric's samples."""
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "iqr": 0.0, "n": len(values)}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr": q3 - q1, "n": len(values)}


# -- workloads ----------------------------------------------------------------

#: The PR-9 scale-tier interconnect, shared by the 1024- and 256-node legs.
FAT_TREE = "fat-tree:edge=16:pod=4:oversub=2:contention=1"


@dataclass(frozen=True)
class Workload:
    """One benchmark leg: which backend runs it, why it was chosen, and
    how ``(seed, small)`` turns into plain episode parameters."""

    name: str
    backend: str
    why: str
    params: Callable[[int, bool], dict]

    @property
    def serving(self) -> bool:
        return self.name.startswith("serve_")


def _batch(app, app_kwargs, policy, nodes, seed, **run_kwargs) -> dict:
    return {
        "kind": "batch",
        "app": app,
        "app_kwargs": app_kwargs,
        "policy": policy,
        "nodes": nodes,
        "seed": seed,
        **run_kwargs,
    }


def _asp_16(seed: int, small: bool) -> dict:
    return _batch("asp", {"size": 32 if small else 256, "seed": seed}, "NM", 16, seed)


def _sor_16(seed: int, small: bool) -> dict:
    kwargs = (
        {"size": 32, "iterations": 8, "seed": seed}
        if small
        else {"size": 128, "iterations": 400, "seed": seed}
    )
    return _batch("sor", kwargs, "AT", 16, seed)


def _synth(updates: int) -> Callable[[int, bool], dict]:
    def params(seed: int, small: bool) -> dict:
        n = 128 if small else updates
        # The seed moves the transient->lasting phase boundary by under
        # 0.4 %: total work is constant, the interleaving is not.
        shift = random.Random(seed).randrange(-(n // 256), n // 256 + 1)
        schedule = [(n + shift, 2), (n - shift, 16)]
        return _batch("synthetic", {"schedule": schedule}, "AT", 16, seed)

    return params


def _asp_1024(seed: int, small: bool) -> dict:
    return _batch(
        "asp",
        {"size": 16 if small else 96, "seed": seed},
        "NM",
        64 if small else 1024,
        seed,
        topology=FAT_TREE,
        release_fanout=8,
    )


def _serve(read_fraction: float) -> Callable[[int, bool], dict]:
    def params(seed: int, small: bool) -> dict:
        shape = (
            {"nodes": 32, "keys": 64, "phases": 2, "requests_per_thread": 4}
            if small
            else {"nodes": 256, "keys": 512, "phases": 4, "requests_per_thread": 32}
        )
        return {
            "kind": "serve",
            "seed": seed,
            "churn": 0.125,
            "policy": "AT",
            "topology": FAT_TREE,
            "read_fraction": read_fraction,
            **shape,
        }

    return params


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "asp_nm_16", "compiled",
            "read-miss fault-in, twin/diff flush, barriers, no migration: dsm handlers are half the self time",
            _asp_16,
        ),
        Workload(
            "sor_at_16", "compiled",
            "bypass leg: after 120 early migrations every write is a home write and numpy app compute is 30 %",
            _sor_16,
        ),
        Workload(
            "synth_at_16", "compiled",
            "paper Fig. 4/5 pattern, transient then lasting: locks, migration handshake, redirect chains; memory idle",
            _synth(32768),
        ),
        Workload(
            "synth_at_16_py", "python",
            "same layers through the pure-Python reference backend, so a gain that costs the other backend shows",
            _synth(8192),
        ),
        Workload(
            "asp_nm_1024", "compiled",
            "large-N paths: 1024-way read fan-in, relay barrier release, fat-tree tables; cluster is 10 % here",
            _asp_1024,
        ),
        Workload(
            "serve_get_256", "compiled",
            "read-heavy serving: spans, histograms and traffic expansion are 45 % of the time, dsm only 15 %",
            _serve(0.9),
        ),
        Workload(
            "serve_put_256", "compiled",
            "write-heavy serving: spans, histograms, traffic expansion ~45 % of the time, dsm ~15 %; migrations, lock hand-offs, diffs",
            _serve(0.1),
        ),
    )
}

#: The legs BENCHMARK.json hands to the benchmark driver.  Its time limit
#: covers 4 + 22 x (number of legs) runs, and a run must be 30 s long to
#: be steady on the bench host, so four fit: one per mechanism, each a
#: bypass leg for the others (no migration / idle memory layer /
#: 16 nodes on an ideal switch / dsm at 15 %).  The full pass runs all.
DRIVER_WORKLOADS = ("asp_nm_16", "synth_at_16", "asp_nm_1024", "serve_put_256")

# -- metrics ------------------------------------------------------------------

#: name -> (unit, bound).  Lower is better for all three.
END_TO_END: dict[str, tuple[str, float]] = {
    "wall_adj_s": ("s", 0.25),
    "setup_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.03),
}

#: Reported in place of a number where the driver contract wants every
#: metric on every workload: the metric does not apply there (a request
#: percentile on a batch leg) or its probe's entry point is gone.
NOT_APPLICABLE = -1.0

#: Simulated results: exact functions of (workload, seed), identical on
#: every round and on both backends.
SIM_METRICS = {
    "sim_time_us": "us",
    "sim_msgs": "count",
    "sim_bytes": "B",
    "req_p99_us": "us",
}

#: (a) exact counters, from RunResult / ClusterStats / the serve report.
COUNTERS = {
    "sim.events": "count",
    "cluster.data_msgs": "count",
    "cluster.ctrl_msgs": "count",
    "dsm.remote_reads": "count",
    "dsm.diffs": "count",
    "dsm.home_writes": "count",
    "dsm.redirects": "count",
    "dsm.lock_acquires": "count",
    "dsm.barrier_rounds": "count",
    "dsm.migrations": "count",
    "dsm.redirect_ratio": "ratio",
    "dsm.cache_entries_peak": "count",
    "core.exclusive_home_writes": "count",
    "core.migrate_yield": "ratio",
    "obs.spans": "count",
    "obs.req_miss_ratio": "ratio",
    "bench.requests": "count",
}

#: (b) host figures derived from the untraced episodes.
HOST = {
    "host.wall_raw_s": "s",
    "host.speed": "ratio",
    "host.wall_iqr": "s",
    "host.on_cpu_share": "ratio",
    "host.us_per_event": "us",
    "host.us_per_msg": "us",
    "host.req_per_s": "1/s",
    "kernel.build_s": "s",
    "kernel.compiled": "count",
}

#: (c) probes of documented public calls; each also runs under the
#: pure-Python backend with a ``.py`` suffix.
PROBES = {
    "sim.event_ns": "ns",
    "sim.switch_ns": "ns",
    "cluster.send_ns": "ns",
    "cluster.send_topo_ns": "ns",
    "memory.diff_ns": "ns",
    "memory.arena_ns": "ns",
    "core.eq2_ns": "ns",
    "dsm.local_hit_ns": "ns",
    "dsm.lock_update_us": "us",
    "dsm.barrier_us": "us",
    "gos.build_ms_16": "ms",
    "gos.build_ms_1024": "ms",
    "obs.span_ns": "ns",
    "obs.hist_ns": "ns",
    "apps.expand_ms": "ms",
}

#: (d) layers the traced run folds self time into.
LAYERS = (
    "sim", "cluster", "dsm", "memory", "core", "gos", "apps", "obs",
    "trace", "bench", "kernel", "numpy", "builtin", "other",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in table order."""
    units = dict(SIM_METRICS)
    units.update(COUNTERS)
    units.update(HOST)
    for name, unit in PROBES.items():
        units[name] = unit
        units[name + ".py"] = unit
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    units["prof.calls"] = "count"
    units["prof.overhead_x"] = "x"
    return units


# -- traced run: fold profile rows by layer ----------------------------------


def layer_of(filename: str, funcname: str) -> str:
    """The ledger layer one cProfile row ``(filename, funcname)`` bills to.

    Python functions bill to their ``repro.<package>``; C functions (which
    cProfile files under ``~``) bill to ``kernel`` when they belong to the
    compiled extension, to ``numpy`` when numpy's, else to ``builtin``.
    """
    path = filename.replace("\\", "/")
    if path == "~":
        if "_kernelc" in funcname:
            return "kernel"
        if "numpy" in funcname:
            return "numpy"
        return "builtin"
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        package = path[at + len(marker):].split("/", 1)[0].lstrip("_")
        if package in LAYERS:
            return package
        return "other"
    if "/numpy/" in path:
        return "numpy"
    return "other"


def fold_profile(entries) -> tuple[dict[str, float], int]:
    """Fold ``cProfile.Profile.getstats()`` entries into per-layer
    self-time shares.

    Returns ``(shares, calls)``: shares over :data:`LAYERS` summing to 1,
    and the total call count (exact for a deterministic episode).  The
    raw entries are used, not ``pstats``: its table is keyed by (file,
    line, name), under which the generated ``__init__`` of every
    dataclass collides, and which of them survives varies run to run.
    """
    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = 0
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # a C function, labelled by its repr
            layer = layer_of("~", code)
        else:
            layer = layer_of(code.co_filename, code.co_name)
        self_time[layer] += entry.inlinetime
        calls += entry.callcount
    total = sum(self_time.values())
    if total <= 0.0:
        raise ValueError("profile holds no self time")
    return {layer: t / total for layer, t in self_time.items()}, calls
