"""Co-located faults of one object coalesce into one fetch.

While a fetch is out, ``DsmEngine._inflight[oid]`` is ``None``; the
first co-located thread that faults the same object stores the future
the fetch resolves when it ends, and waits on it.  A woken joiner reads
what the fetch left: the installed copy, or the home itself after a
hand-off, or — when a co-located sync point dropped the copy before the
joiner resumed — nothing, and then it fetches again.  Each branch is
driven here under both backends, two threads on node 1 faulting an
object homed on node 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import _kernel
from repro.cluster.hockney import FAST_ETHERNET
from repro.core.policies import MigratingHome, NoMigration
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext


def _space(policy=None) -> tuple[GlobalObjectSpace, object]:
    gos = GlobalObjectSpace(
        nnodes=2,
        comm_model=FAST_ETHERNET,
        policy=policy if policy is not None else NoMigration(),
    )
    obj = gos.alloc_array(4, home=0)
    gos.write_global(obj, np.arange(4.0))
    return gos, obj


def test_a_lone_fetch_makes_no_future_and_a_joiner_makes_one(backend):
    gos, obj = _space()
    engine = gos.engines[1]
    seen = {}

    def fetcher():
        ctx = ThreadContext(gos, tid=0, node=1)
        payload = yield from ctx.read(obj)
        seen["fetcher"] = payload

    def joiner():
        ctx = ThreadContext(gos, tid=1, node=1)
        payload = yield from ctx.read(obj)
        seen["joiner"] = payload

    gos.sim.spawn(fetcher(), name="fetcher")
    gos.sim.run(until=1.0)  # the request is on the wire, the reply is not
    assert engine._inflight == {obj.oid: None}
    gos.sim.spawn(joiner(), name="joiner")
    gos.sim.run(until=2.0)
    assert isinstance(engine._inflight[obj.oid], _kernel.SEAMS.Future)
    gos.sim.run()

    assert engine._inflight == {}
    # case 1: the joiner is woken and reads the copy the fetch installed
    installed = engine.cache[obj.oid].payload
    assert seen["fetcher"] is installed
    assert seen["joiner"] is installed
    assert list(seen["joiner"]) == [0.0, 1.0, 2.0, 3.0]
    assert gos.stats.events["remote_read"] == 1


def test_a_joiner_reads_the_home_a_hand_off_installed(backend):
    """Case 2: the fetch is a write miss that the policy answers with
    the home itself; the joiner wakes to find the object homed on its
    node and reads the home copy."""
    gos, obj = _space(policy=MigratingHome())
    engine = gos.engines[1]
    seen = {}

    def writer():
        ctx = ThreadContext(gos, tid=0, node=1)
        payload = yield from ctx.write(obj)
        seen["writer"] = payload

    def joiner():
        ctx = ThreadContext(gos, tid=1, node=1)
        payload = yield from ctx.read(obj)
        seen["joiner"] = payload

    gos.sim.spawn(writer(), name="writer")
    gos.sim.spawn(joiner(), name="joiner")
    gos.sim.run(until=1.0)
    assert isinstance(engine._inflight[obj.oid], _kernel.SEAMS.Future)
    gos.sim.run()

    assert obj.oid in engine.homes and obj.oid not in engine.cache
    assert seen["joiner"] is engine.homes[obj.oid].payload
    assert seen["writer"] is engine.homes[obj.oid].payload
    assert gos.stats.events["migration"] == 1
    assert gos.stats.events["remote_read"] == 1


@pytest.mark.parametrize("sync", ("acquire", "barrier"))
def test_a_joiner_fetches_again_after_a_co_located_drop(backend, sync):
    """Case 3: the fetcher's thread synchronizes on a node-local lock or
    barrier right after its read returns, before the joiner resumes, so
    the sync point drops the copy the joiner was woken for; the joiner
    finds nothing and fetches again."""
    gos, obj = _space()
    engine = gos.engines[1]
    lock = gos.alloc_lock(home=1)
    barrier = gos.alloc_barrier(parties=1, home=1)
    seen = {}

    def fetcher():
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.read(obj)
        # node-local and uncontended: the drop runs before any yield
        if sync == "acquire":
            yield from ctx.acquire(lock)
        else:
            yield from ctx.barrier(barrier)
        seen["cached after sync"] = obj.oid in engine.cache
        if sync == "acquire":
            yield from ctx.release(lock)

    def joiner():
        ctx = ThreadContext(gos, tid=1, node=1)
        payload = yield from ctx.read(obj)
        seen["joiner"] = payload

    gos.sim.spawn(fetcher(), name="fetcher")
    gos.sim.spawn(joiner(), name="joiner")
    gos.sim.run(until=1.0)
    assert isinstance(engine._inflight[obj.oid], _kernel.SEAMS.Future)
    gos.sim.run()

    assert seen["cached after sync"] is False
    assert gos.stats.events["remote_read"] == 2  # the joiner asked again
    assert seen["joiner"] is engine.cache[obj.oid].payload
    assert list(seen["joiner"]) == [0.0, 1.0, 2.0, 3.0]
