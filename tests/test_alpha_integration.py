"""Integration of the home access coefficient with the live protocol."""

import pytest

from repro.core.coefficient import home_access_coefficient
from repro.core.policies import AdaptiveThreshold
from repro.gos.thread import ThreadContext

from tests.conftest import make_gos, run_threads


def test_engine_alpha_uses_object_size_and_diff_average(gos):
    big = gos.alloc_array(2048, home=0)
    small = gos.alloc_fields(("v",), home=0)
    engine = gos.engines[0]
    alpha_big = engine.homes[big.oid].state.alpha
    alpha_small = engine.homes[small.oid].state.alpha
    assert alpha_big > alpha_small
    m_half = gos.network.comm_model.half_peak_bytes
    # before any diff is observed, the diff average is seeded with the
    # object size
    assert alpha_big == pytest.approx(
        home_access_coefficient(big.size_bytes, big.size_bytes, m_half)
    )


def test_alpha_tracks_observed_diff_sizes():
    gos = make_gos(nnodes=3)
    obj = gos.alloc_array(2048, home=0)
    lock = gos.alloc_lock(home=0)

    def sparse_writer():
        ctx = ThreadContext(gos, tid=0, node=1)
        for i in range(4):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[i] = 1.0  # one element per interval: tiny diffs
            yield from ctx.release(lock)

    run_threads(gos, sparse_writer())
    engine = gos.engines[gos.current_home(obj)]
    state = engine.homes[obj.oid].state
    # the EWMA pulled the diff average far below the object size
    assert state.diff_bytes_avg < obj.size_bytes / 4
    alpha_now = state.alpha
    alpha_seeded = home_access_coefficient(
        obj.size_bytes, obj.size_bytes, gos.network.comm_model.half_peak_bytes
    )
    assert alpha_now < alpha_seeded


def test_larger_objects_tolerate_more_redirections():
    """Policy-level consequence of alpha: for the same feedback history,
    a large object's exclusive home writes buy back more redirections."""
    policy = AdaptiveThreshold()
    gos = make_gos(nnodes=3, policy=policy)
    big = gos.alloc_array(8192, home=0)
    small = gos.alloc_fields(("v",), home=0)
    engine = gos.engines[0]
    for obj in (big, small):
        state = engine.homes[obj.oid].state
        state.record_redirections(6)
        state.record_home_write()
        state.record_home_write()
        state.record_home_write()  # E = 2
    big_state = engine.homes[big.oid].state
    small_state = engine.homes[small.oid].state
    t_big = policy.current_threshold(big_state, big_state.alpha)
    t_small = policy.current_threshold(small_state, small_state.alpha)
    assert t_big < t_small
