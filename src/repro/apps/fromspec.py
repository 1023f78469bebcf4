"""Program-from-spec runner: execute a fuzzed episode on the DSM.

:class:`SpecProgram` turns a :class:`repro.check.fuzz.ProgramSpec` into
a :class:`~repro.apps.base.DsmApplication`: threads walk their section
lists, acquiring the guarding lock around each critical section and
hitting the global barrier between phases.

Every executed operation is appended to :attr:`SpecProgram.execution_log`
as ``(tid, op, observed)`` at the moment its effect lands.  The
simulator is single-threaded and deterministic, so the append order *is*
the execution order — and because fuzzed programs are data-race-free by
construction (see :mod:`repro.check.fuzz`), that order is a legal
happens-before linearization per object.  :mod:`repro.check.oracle`
replays the log sequentially against a plain numpy heap to compute the
legal final state.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

import numpy as np

from repro.apps.base import DsmApplication
from repro.sim.process import Delay

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.fuzz import ProgramSpec
    from repro.gos.space import GlobalObjectSpace
    from repro.gos.thread import ThreadContext


def _ship_add_fn(idx: int, delta: float):
    """Build the shipped method for a ``ship_add`` op: add-and-observe."""

    def fn(payload: np.ndarray) -> float:
        payload[idx] += delta
        return float(payload[idx])

    return fn


class SpecProgram(DsmApplication):
    """One fuzzed episode as a runnable DSM application."""

    name = "fromspec"

    def __init__(self, spec: "ProgramSpec"):
        self.spec = spec
        self.objects: dict[str, Any] = {}
        self.locks: list[Any] = []
        self.barrier_handle: Any = None
        #: ``(tid, op, observed)`` triples in execution order; the
        #: oracle's input.  ``observed`` is the value a ``read`` or
        #: ``ship_add`` saw, ``None`` for pure writes.
        self.execution_log: list[tuple[int, tuple, float | None]] = []

    def default_threads(self, nnodes: int) -> int:
        """The spec fixes its own thread count."""
        return self.spec.nthreads

    def placement(self, tid: int, nnodes: int, nthreads: int) -> int:
        """The spec fixes its own thread placement."""
        return self.spec.placement[tid]

    def setup(self, gos: "GlobalObjectSpace", nthreads: int) -> None:
        """Allocate the spec's objects/locks/barrier and seed initial data."""
        spec = self.spec
        for o in spec.objects:
            obj = gos.alloc_array(o.length, home=o.home, label=o.name)
            gos.write_global(obj, np.array(o.init, dtype=np.float64))
            self.objects[o.name] = obj
        self.locks = [gos.alloc_lock(home=h) for h in spec.lock_homes]
        self.barrier_handle = gos.alloc_barrier(
            parties=spec.nthreads, home=spec.barrier_home
        )

    def thread_body(
        self, ctx: "ThreadContext", tid: int
    ) -> Generator[Any, Any, None]:
        """Walk this thread's sections phase by phase, logging each op.

        Each op re-traps through ``ctx.read``/``ctx.write``, so access
        states and twins evolve exactly as the protocol dictates; the
        arithmetic mirrors :func:`repro.check.oracle.apply_op` expression
        for expression (same numpy float64 ops, same order), which is
        what makes exact comparison sound.  Ops run inline in this one
        frame, and ``observed`` is what a ``read`` or ``ship_add`` saw
        (``None`` for writes).

        Sections labelled with a ``request`` class are bracketed in a
        ``request`` causal span (lock wait included), feeding the SLO
        pipeline; spans read only the tracer and virtual clock, so the
        simulated schedule and results are bit-identical with tracing
        on or off.
        """
        log = self.execution_log
        objects = self.objects
        read, write = ctx.read, ctx.write
        sim = ctx.gos.sim
        spans = getattr(ctx.gos, "spans", None)
        sp = spans if (spans is not None and spans.enabled) else None
        for epoch, phase in enumerate(self.spec.phases):
            for section in phase[tid]:
                req = None
                if sp is not None and section.request is not None:
                    oid = (
                        objects[section.ops[0][1]].oid
                        if section.ops else -1
                    )
                    req = sp.open(
                        "request", sim.now, oid, ctx.node,
                        cls=section.request, epoch=epoch, tid=tid,
                    )
                if section.lock is not None:
                    yield from ctx.acquire(self.locks[section.lock])
                for op in section.ops:
                    kind = op[0]
                    obj = objects[op[1]]
                    observed = None
                    if kind == "read":
                        payload = yield from read(obj)
                        observed = float(payload[op[2]])
                    elif kind == "set":
                        payload = yield from write(obj)
                        payload[op[2]] = op[3]
                    elif kind == "add":
                        payload = yield from write(obj)
                        payload[op[2]] += op[3]
                    elif kind == "scale":
                        payload = yield from write(obj)
                        payload[op[2]] = op[3] * payload[op[2]] + op[4]
                    elif kind == "copy":
                        payload = yield from write(obj)
                        payload[op[2]] = payload[op[3]] + op[4]
                    elif kind == "ship_add":
                        result = yield from ctx.ship(
                            obj, _ship_add_fn(op[2], op[3])
                        )
                        observed = float(result)
                    else:
                        raise ValueError(f"unknown op kind {kind!r}")
                    log.append((tid, op, observed))
                if section.compute_us > 0:
                    yield Delay(section.compute_us)
                if section.lock is not None:
                    yield from ctx.release(self.locks[section.lock])
                if req is not None:
                    sp.close(req, "request", sim.now, oid, ctx.node)
            yield from ctx.barrier(self.barrier_handle)

    def finalize(self, gos: "GlobalObjectSpace") -> dict[str, np.ndarray]:
        """Authoritative (home) copy of every object after the run."""
        return {
            name: gos.read_global(obj) for name, obj in self.objects.items()
        }
