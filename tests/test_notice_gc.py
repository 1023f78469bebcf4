"""Barrier-epoch memory GC: result-neutral, bounded, and switchable.

The memory-engine GC (``ProtocolEngine.collect_garbage``) runs at every
barrier release and must be a pure *storage* operation: dropping dead
INVALID cache entries, pruning version-horizon-covered write-notice
floors, and compacting pending-work maps may never change simulated
time, message traffic, stats, or application output.  These tests pin
that contract and the boundedness claims the large-workload tier
measures.
"""

import hashlib
import json

import numpy as np

from repro.apps import Asp, Sor
from repro.core.policies import make_policy
from repro.dsm.redirection import make_mechanism
from repro.cluster.hockney import FAST_ETHERNET
from repro.dsm.cache import AccessMode
from repro.gos.jvm import DistributedJVM


def _run(gc_enabled, iterations=6, policy="AT"):
    jvm = DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=make_policy(policy),
        mechanism=make_mechanism("forwarding-pointer"),
        gc_enabled=gc_enabled,
    )
    return jvm.run(Sor(size=24, iterations=iterations))


def _digest(result) -> str:
    payload = {
        "stats": result.stats.snapshot(),
        "time_us": result.execution_time_us,
        "migrations": result.migrations,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def test_gc_on_and_off_produce_identical_runs():
    on = _run(gc_enabled=True)
    off = _run(gc_enabled=False)
    assert _digest(on) == _digest(off)
    np.testing.assert_array_equal(on.output, off.output)
    assert on.execution_time_us == off.execution_time_us
    assert on.stats.total_messages() == off.stats.total_messages()


def test_gc_drops_dead_cache_entries_and_notice_floors():
    on = _run(gc_enabled=True)
    off = _run(gc_enabled=False)
    fp_on = on.gos.memory_footprint()
    fp_off = off.gos.memory_footprint()
    assert fp_on["gc_enabled"] is True
    assert fp_off["gc_enabled"] is False
    # with GC the run ends drained; without it, history accretes
    assert fp_on["cache_entries"] == 0
    assert fp_on["notice_floors"] == 0
    assert fp_on["gc_cache_drops"] > 0
    assert fp_on["gc_notice_prunes"] > 0
    assert fp_off["gc_cache_drops"] == 0
    assert fp_off["gc_notice_prunes"] == 0
    assert fp_off["notice_floors"] > 0
    assert fp_off["cache_payload_bytes"] > fp_on["cache_payload_bytes"]


def test_gc_bounds_steady_state_independent_of_run_length():
    # peak live protocol state must track the live set, not the run
    # history: tripling the iteration count must not grow the peaks
    short = _run(gc_enabled=True, iterations=4)
    long = _run(gc_enabled=True, iterations=12)
    peaks_short = short.gos.memory_footprint()["peaks"]
    peaks_long = long.gos.memory_footprint()["peaks"]
    assert peaks_long["cache_entries"] <= peaks_short["cache_entries"] + 2
    assert peaks_long["notice_floors"] <= peaks_short["notice_floors"] + 2


def test_no_migration_policy_also_gc_neutral():
    # the notice-horizon rule must hold when homes never move
    on = _run(gc_enabled=True, policy="NM")
    off = _run(gc_enabled=False, policy="NM")
    assert _digest(on) == _digest(off)
    np.testing.assert_array_equal(on.output, off.output)
    assert on.gos.memory_footprint()["notice_floors"] == 0


def test_peaks_channel_is_excluded_from_stats_snapshot():
    result = _run(gc_enabled=True)
    snapshot = result.stats.snapshot()
    assert "peaks" not in snapshot
    peaks = result.stats.memory_snapshot()
    assert peaks.get("cache_entries", 0) > 0


def _asp_nm_64(size):
    jvm = DistributedJVM(
        nodes=64,
        comm_model=FAST_ETHERNET,
        policy=make_policy("NM"),
        mechanism=make_mechanism("forwarding-pointer"),
    )
    return jvm.run(Asp(size=size, seed=3))


def _per_engine_maps(result):
    """(hint count, cache count) per engine, after checking that each map
    holds only what the node still needs."""
    heap = result.gos.heap
    maps = []
    for engine in result.gos.engines:
        # hints hold only moved homes, and NM moves none
        assert not [
            oid for oid, home in engine.home_hint.items()
            if home == heap.initial_home(oid)
        ]
        # the cache holds live entries only: the barrier GC left no dead
        # (invalid, twinless) copy behind
        live = [
            entry for entry in engine.cache.values()
            if not (entry.mode is AccessMode.INVALID and entry.twin is None)
        ]
        assert len(engine.cache) == len(live)
        maps.append((len(engine.home_hint), len(engine.cache)))
    return maps


def test_per_node_state_tracks_live_set_not_history(backend):
    # 64 nodes read every ASP row once per round: per-node maps that
    # grew with each object touched would double with the iterations
    short = _asp_nm_64(size=64)
    long = _asp_nm_64(size=128)
    maps_short = _per_engine_maps(short)
    maps_long = _per_engine_maps(long)
    for node, (before, after) in enumerate(zip(maps_short, maps_long)):
        assert after[0] <= before[0] and after[1] <= before[1], (
            node, before, after
        )
    # each thread of the longer run also writes two remote-homed rows
    peaks_short = short.gos.memory_footprint()["peaks"]
    peaks_long = long.gos.memory_footprint()["peaks"]
    assert peaks_long["cache_entries"] <= peaks_short["cache_entries"] + 2
