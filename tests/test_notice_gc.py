"""Protocol state stays bounded by the live set, not the run history.

Every invalidation drops the cached copy (docs/PROTOCOL.md §12), so a
node's cache holds only copies valid in the current interval.  These
tests pin the boundedness claims the large-workload tier measures.
"""

from repro.apps import Asp, Sor
from repro.core.policies import make_policy
from repro.dsm.redirection import make_mechanism
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.jvm import DistributedJVM


def _run(iterations=6, policy="AT"):
    jvm = DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=make_policy(policy),
        mechanism=make_mechanism("forwarding-pointer"),
    )
    return jvm.run(Sor(size=24, iterations=iterations))


def test_gc_bounds_steady_state_independent_of_run_length():
    # peak live protocol state must track the live set, not the run
    # history: tripling the iteration count must not grow the peaks
    short = _run(iterations=4)
    long = _run(iterations=12)
    peaks_short = short.gos.memory_footprint()["peaks"]
    peaks_long = long.gos.memory_footprint()["peaks"]
    assert peaks_long["cache_entries"] <= peaks_short["cache_entries"] + 2
    # the final barrier release dropped every copy
    assert long.gos.memory_footprint()["cache_entries"] == 0


def test_peaks_channel_is_excluded_from_stats_snapshot():
    result = _run()
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
