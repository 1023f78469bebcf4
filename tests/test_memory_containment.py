"""§5's lightweight-protocol claim: metadata memory is contained.

"The GOS needs to allocate memory for the adaptive threshold, consecutive
remote writes, redirected object requests, and exclusive home writes, for
each shared Java object ... the memory consumption of the adaptive home
migration protocol is well contained."
"""

import numpy as np

from repro.apps import DsmApplication, Sor, SingleWriterBenchmark
from repro.bench.runner import run_once
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.jvm import DistributedJVM


def test_monitor_memory_scales_with_objects_only():
    small = run_once(Sor(size=16, iterations=2), policy="AT", nodes=4)
    large = run_once(Sor(size=32, iterations=2), policy="AT", nodes=4)
    small_mem = small.gos.protocol_memory_estimate()
    large_mem = large.gos.protocol_memory_estimate()
    # monitor bytes = 48 per shared object, independent of activity
    assert small_mem["monitor_bytes"] == 48 * len(small.gos.heap)
    assert large_mem["monitor_bytes"] == 48 * len(large.gos.heap)


def test_migration_adds_only_pointer_words():
    nm = run_once(Sor(size=24, iterations=3), policy="NM", nodes=4)
    at = run_once(Sor(size=24, iterations=3), policy="AT", nodes=4)
    nm_mem = nm.gos.protocol_memory_estimate()
    at_mem = at.gos.protocol_memory_estimate()
    # identical monitor footprint; AT adds 8 bytes per migration chain hop
    assert at_mem["monitor_bytes"] == nm_mem["monitor_bytes"]
    assert nm_mem["forwarding_bytes"] == 0
    assert 0 < at_mem["forwarding_bytes"] <= 8 * at.migrations


def test_metadata_dwarfed_by_data():
    result = run_once(
        SingleWriterBenchmark(total_updates=128, repetition=8),
        policy="AT",
        nodes=5,
    )
    mem = result.gos.protocol_memory_estimate()
    total_meta = mem["monitor_bytes"] + mem["forwarding_bytes"]
    # one shared counter: tens of bytes of protocol metadata in total
    assert total_meta < 200


class _HeldPayload(DsmApplication):
    """Node 1 reads ``a``, keeps the array across a barrier, then reads
    ``b`` (same layout, same home) into a fresh copy."""

    name = "held-payload"

    def setup(self, gos, nthreads):
        self.a = gos.alloc_array(8, home=0, label="a")
        self.b = gos.alloc_array(8, home=0, label="b")
        self.gate = gos.alloc_barrier(nthreads)

    def setup_run(self):
        self.seen = {}

    def thread_body(self, ctx, tid):
        if tid == 0:
            a = yield from ctx.write(self.a)
            a[:] = np.arange(1.0, 9.0)
            b = yield from ctx.write(self.b)
            b[:] = -np.arange(1.0, 9.0)
        yield from ctx.barrier(self.gate)
        if tid == 1:
            held = yield from ctx.read(self.a)
            self.seen["a"] = held.copy()
        # invalidates node 1's copy of ``a``; the barrier GC drops it
        yield from ctx.barrier(self.gate)
        if tid == 1:
            yield from ctx.read(self.b)
            self.seen["held"] = held.copy()

    def finalize(self, gos):
        return self.seen


def test_held_payload_is_never_recycled(backend):
    # a thread may keep a payload reference past a barrier: the next
    # fault-in on its node must get its own buffer, never that one
    app = _HeldPayload()
    app.setup_run()
    jvm = DistributedJVM(nodes=2, comm_model=FAST_ETHERNET)
    seen = jvm.run(app, nthreads=2).output
    np.testing.assert_array_equal(seen["a"], np.arange(1.0, 9.0))
    np.testing.assert_array_equal(seen["held"], seen["a"])
