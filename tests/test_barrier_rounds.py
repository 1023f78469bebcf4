"""Barrier rounds are kept by the engine, per node.

A node's current round of a barrier is the number of that barrier's
releases it has received; ``SyncManager._on_barrier_release`` opens the
next one before it wakes the waiters, and every thread of the node
arrives in it.  Checked on the home-based and the homeless engine,
under both backends: two threads per node across two barriers homed on
different nodes for several rounds, and a thread that first calls a
barrier after rounds have closed, which joins the current round.
"""

from __future__ import annotations

import pytest

from repro.cluster.hockney import FAST_ETHERNET
from repro.core.policies import NoMigration
from repro.dsm.barrier import BarrierState
from repro.gos.homeless import HomelessObjectSpace
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext

from tests.conftest import run_threads

ROUNDS = 4


def _space(engine: str, nnodes: int):
    if engine == "homeless":
        return HomelessObjectSpace(nnodes, FAST_ETHERNET)
    return GlobalObjectSpace(
        nnodes=nnodes, comm_model=FAST_ETHERNET, policy=NoMigration()
    )


def _record_arrivals(monkeypatch) -> list:
    """Every arrival the managers see, as ``(barrier id, node, round)``."""
    arrivals = []
    arrive = BarrierState.arrive

    def recorded(state, node, notices, round_no):
        arrivals.append((state.handle.barrier_id, node, round_no))
        return arrive(state, node, notices, round_no)

    monkeypatch.setattr(BarrierState, "arrive", recorded)
    return arrivals


@pytest.mark.parametrize("engine", ("home-based", "homeless"))
def test_two_threads_per_node_keep_step_on_two_barriers(
    backend, engine, monkeypatch
):
    arrivals = _record_arrivals(monkeypatch)
    gos = _space(engine, nnodes=3)
    threads = 6  # two per node
    bar_a = gos.alloc_barrier(parties=threads, home=0)
    bar_b = gos.alloc_barrier(parties=threads, home=2)
    obj = gos.alloc_array(threads)
    rounds_seen = []

    def body(tid):
        ctx = ThreadContext(gos, tid, tid % 3)
        rounds = ctx.engine._barrier_rounds
        for r in range(ROUNDS):
            payload = yield from ctx.write(obj)
            payload[tid] = float(10 * r + tid)
            yield from ctx.barrier(bar_a)
            rounds_seen.append((tid, "a", r, rounds[bar_a.barrier_id]))
            payload = yield from ctx.read(obj)
            assert list(payload) == [float(10 * r + t) for t in range(threads)]
            yield from ctx.barrier(bar_b)
            rounds_seen.append((tid, "b", r, rounds[bar_b.barrier_id]))

    run_threads(gos, *(body(tid) for tid in range(threads)))

    # a thread leaving round r finds its node in round r + 1
    assert all(now == r + 1 for _tid, _bar, r, now in rounds_seen)
    assert len(rounds_seen) == 2 * threads * ROUNDS
    for bar in (bar_a, bar_b):
        state = gos.engines[bar.home].barriers[bar.barrier_id]
        assert state.round.round_no == ROUNDS
        for engine_ in gos.engines:  # every node got every release
            assert engine_._barrier_rounds[bar.barrier_id] == ROUNDS
            assert bar.barrier_id not in engine_._barrier_waiters
        per_round = [
            sorted(node for bid, node, rnd in arrivals
                   if bid == bar.barrier_id and rnd == r)
            for r in range(ROUNDS)
        ]
        assert per_round == [[0, 0, 1, 1, 2, 2]] * ROUNDS


@pytest.mark.parametrize("engine", ("home-based", "homeless"))
def test_a_late_first_call_joins_the_current_round(
    backend, engine, monkeypatch
):
    """Threads on nodes 0 and 1 pass two rounds; then node 1's thread
    is done, and a thread on node 2, which never arrived before, makes
    its first call.  Its node has received both releases, so it arrives
    in round 2 with node 0's third call (a per-thread count would have
    said round 0 and the manager would have refused it)."""
    arrivals = _record_arrivals(monkeypatch)
    gos = _space(engine, nnodes=3)
    barrier = gos.alloc_barrier(parties=2, home=0)
    joined = {}

    def steady():
        ctx = ThreadContext(gos, 0, 0)
        for _ in range(3):
            yield from ctx.barrier(barrier)

    def early():
        ctx = ThreadContext(gos, 1, 1)
        for _ in range(2):
            yield from ctx.barrier(barrier)
        joined["early done"] = ctx.now

    def late():
        ctx = ThreadContext(gos, 2, 2)
        yield from ctx.compute(50_000.0)  # both rounds closed by now
        joined["late start"] = ctx.now
        joined["round"] = ctx.engine._barrier_rounds[barrier.barrier_id]
        yield from ctx.barrier(barrier)

    run_threads(gos, steady(), early(), late())

    assert joined["early done"] < joined["late start"]
    assert joined["round"] == 2
    assert arrivals[-2:] in (
        [(barrier.barrier_id, 0, 2), (barrier.barrier_id, 2, 2)],
        [(barrier.barrier_id, 2, 2), (barrier.barrier_id, 0, 2)],
    )
    assert gos.engines[0].barriers[barrier.barrier_id].round.round_no == 3
