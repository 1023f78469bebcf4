"""One frame per blocking operation: call budgets and generator structure.

The simulator's host cost is the Python run between events, so the
protocol keeps every blocking DSM operation (a read or write miss, a
lock acquire or release, a barrier epoch) on one generator frame, with
no wrapper generators around it and no repeated local probe
(docs/PROTOCOL.md §11, DESIGN.md §6.12).  These tests pin that shape:

* a **call budget** — Python ``call`` events (function calls and
  generator resumptions, as ``sys.setprofile`` reports them) of two small
  fixed episodes may not exceed the measured count by more than 5 %, so
  a wrapper frame creeping back onto a per-message path fails here;
* the **structure** — ``ctx.acquire``/``release``/``barrier`` hand back
  the engine method's own generator, a remote read miss suspends exactly
  one DSM generator under the thread body, and the local probe runs once
  per miss.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import _kernel
from repro.apps import Asp, SingleWriterBenchmark
from repro.bench.runner import make_policy
from repro.cluster.hockney import FAST_ETHERNET
from repro.dsm.protocol import DsmEngine
from repro.gos.jvm import DistributedJVM
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext

#: Python ``call`` events of one episode, measured per backend on
#: CPython 3.11 (the compiled backend runs the event loop, the arrival
#: re-queue, delivery and hit paths in C; the lock table, the request
#: monitor and the deferral queues are Python on both backends).  The
#: assert allows 5 % on top.
CALL_BUDGET = {
    "synthetic-at-4": {"python": 19272, "compiled": 5876},
    "asp-nm-4": {"python": 45254, "compiled": 13732},
}
SLACK = 1.05
MEASURED_ON = (3, 11)


def _episode(name: str):
    if name == "synthetic-at-4":
        return (
            DistributedJVM(nodes=4, comm_model=FAST_ETHERNET, policy=make_policy("AT")),
            SingleWriterBenchmark(schedule=[(96, 2), (96, 16)]),
        )
    return (
        DistributedJVM(nodes=4, comm_model=FAST_ETHERNET, policy=make_policy("NM")),
        Asp(size=24),
    )


def python_calls(name: str) -> int:
    """Python ``call`` events while ``DistributedJVM.run`` executes the
    named episode (cluster build included, verification included)."""
    jvm, app = _episode(name)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        jvm.run(app)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.skipif(
    sys.version_info[:2] != MEASURED_ON,
    reason="call budgets are measured on CPython 3.11; other interpreters "
    "make a different number of internal calls",
)
@pytest.mark.parametrize("name", sorted(CALL_BUDGET))
def test_call_budget(name):
    budget = CALL_BUDGET[name][_kernel.backend_name()]
    calls = python_calls(name)
    assert calls <= budget * SLACK, (
        f"{name}: {calls} Python calls, budget {budget} (+5 %): a wrapper "
        "frame or an indirection is back on a per-message path"
    )


# -- structure -----------------------------------------------------------------


@pytest.fixture
def gos():
    return GlobalObjectSpace(nnodes=2, comm_model=FAST_ETHERNET)


def test_sync_operations_return_the_engines_own_generator(gos):
    ctx = ThreadContext(gos, tid=0, node=1)
    lock = gos.alloc_lock(home=0)
    barrier = gos.alloc_barrier(parties=1, home=1)
    for gen, method in (
        (ctx.acquire(lock), DsmEngine.acquire),
        (ctx.release(lock), DsmEngine.release),
        (ctx.barrier(barrier), DsmEngine.barrier),
    ):
        assert gen.gi_code is method.__code__
        gen.close()


def _suspended_chain(gen) -> list:
    """The generators suspended under ``gen``, outermost first."""
    chain = []
    inner = gen.gi_yieldfrom
    while inner is not None:
        chain.append(inner)
        inner = getattr(inner, "gi_yieldfrom", None)
    return chain


def test_remote_read_miss_is_one_generator_frame(gos):
    obj = gos.alloc_array(4, home=0)
    gos.write_global(obj, np.arange(4.0))
    ctx = ThreadContext(gos, tid=0, node=1)
    seen = []

    def body():
        payload = yield from ctx.read(obj)
        seen.append(float(payload[3]))

    gen = body()
    gos.sim.spawn(gen, name="reader")
    gos.sim.run(until=1.0)  # the request is on the wire, the reply is not
    chain = _suspended_chain(gen)
    assert [g.gi_code for g in chain] == [DsmEngine._fault_in.__code__]
    gos.sim.run()
    assert seen == [3.0]


class _CountingProbe:
    """Stands in for an engine's ``try_read_local``, counting calls."""

    def __init__(self, probe):
        self._probe = probe
        self.calls = 0

    def probe(self, oid):
        self.calls += 1
        return self._probe(oid)


def test_local_probe_runs_once_per_miss(gos):
    obj = gos.alloc_array(4, home=0)
    engine = gos.engines[1]
    counter = _CountingProbe(engine.try_read_local)
    engine.try_read_local = counter.probe  # before the context binds it
    ctx = ThreadContext(gos, tid=0, node=1)

    def body():
        yield from ctx.read(obj)  # miss: probe, then the fault generator
        yield from ctx.read(obj)  # hit: probe only

    gos.sim.spawn(body(), name="reader")
    gos.sim.run()
    assert counter.calls == 2
    assert gos.stats.events["remote_read"] == 1


if __name__ == "__main__":  # re-measure the budgets: python tests/test_frame_budget.py
    for episode in sorted(CALL_BUDGET):
        print(episode, _kernel.backend_name(), python_calls(episode))
