"""Program-from-spec runner: execute a fuzzed episode on the DSM.

:class:`SpecProgram` turns a :class:`repro.check.fuzz.ProgramSpec` into
a :class:`~repro.apps.base.DsmApplication`: threads walk their packed
section columns, acquiring the guarding lock around each critical
section and hitting the global barrier between phases.

Every executed operation is appended to :attr:`SpecProgram.execution_log`
(a columnar :class:`~repro.check.oracle.ExecutionLog`) as
``(tid, op, observed)`` at the moment its effect lands.  The
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
from repro.obs.spans import span_guard
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
        # Local import: the repro.check package imports this module.
        from repro.check.oracle import ExecutionLog

        self.spec = spec
        self.objects: dict[str, Any] = {}
        self.locks: list[Any] = []
        self.barrier_handle: Any = None
        #: ``(tid, op, observed)`` triples in execution order; the
        #: oracle's input.  ``observed`` is the value a ``read`` or
        #: ``ship_add`` saw, ``None`` for pure writes.
        self.execution_log = ExecutionLog()

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

        The sections are read straight from their
        :class:`~repro.check.fuzz.PackedSections` columns, without making
        a row per section.

        Each op re-traps through ``ctx.read``/``ctx.write``, so access
        states and twins evolve exactly as the protocol dictates; the
        arithmetic mirrors :func:`repro.check.oracle.apply_op` expression
        for expression (same numpy float64 ops, same order), which is
        what makes exact comparison sound.  Ops run inline in this one
        frame, and ``observed`` is what a ``read`` or ``ship_add`` saw
        (``None`` for writes).

        A section's ``think_us`` is waited out before anything else, so
        it never lands inside a request span.  Sections labelled with a
        ``request`` class are bracketed in a ``request`` causal span
        (lock wait included) and handed over once, at its close, feeding
        the SLO pipeline; spans read only
        the tracer and virtual clock, so the simulated schedule and
        results are bit-identical with tracing on or off.
        """
        log = self.execution_log
        log_tid, log_op, log_observed = (
            log.tids.append, log.ops.append, log.observed.append)
        objects = self.objects
        read, write = ctx.read, ctx.write
        sim = ctx.gos.sim
        sp = span_guard(getattr(ctx.gos, "spans", None), "request")
        for epoch, phase in enumerate(self.spec.phases):
            sections = phase[tid]
            ops, classes = sections.ops, sections.classes
            start = 0
            for lock, compute_us, request, think_us, end in zip(
                sections.locks, sections.compute_us, sections.requests,
                sections.think_us, sections.ends,
            ):
                if think_us > 0:
                    yield Delay(think_us)
                opened = None
                if sp is not None and request:  # code 0 is no request
                    opened = sim.now
                if lock >= 0:
                    yield from ctx.acquire(self.locks[lock])
                for op in ops[start:end]:
                    kind = op[0]
                    obj = objects[op[1]]
                    observed = 0.0  # the log's placeholder for a write
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
                    log_tid(tid)
                    log_op(op)
                    log_observed(observed)
                if compute_us > 0:
                    yield Delay(compute_us)
                if lock >= 0:
                    yield from ctx.release(self.locks[lock])
                if opened is not None:
                    oid = objects[ops[start][1]].oid if end > start else -1
                    sp.completed(
                        "request", opened, sim.now, oid, ctx.node,
                        cls=classes[request], epoch=epoch, tid=tid,
                    )
                start = end
            yield from ctx.barrier(self.barrier_handle)

    def finalize(self, gos: "GlobalObjectSpace") -> dict[str, np.ndarray]:
        """Authoritative (home) copy of every object after the run."""
        return {
            name: gos.read_global(obj) for name, obj in self.objects.items()
        }
