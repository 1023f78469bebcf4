"""ThreadContext: the API simulated Java threads program against.

Blocking methods return what to ``yield from`` (the engine's own
generator, or a finished ``Ready`` iterator on a local hit); application
thread bodies are generator functions that compose them::

    def body(ctx, tid):
        yield from ctx.acquire(lock)
        counter = yield from ctx.write(counter_obj)
        counter[0] += 1
        yield from ctx.release(lock)
        yield from ctx.barrier(barrier)

Element-level mutation happens directly on the returned numpy payload —
protocol-equivalent under LRC because access states only change at
synchronization points (DESIGN.md, decision 2).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, TYPE_CHECKING

import numpy as np

from repro import _kernel
from repro.memory.objects import FieldsSpec, SharedObject
from repro.sim.errors import SimulationError
from repro.sim.process import Delay

if TYPE_CHECKING:  # pragma: no cover
    from repro.gos.space import GlobalObjectSpace

_INF = float("inf")


class _PyReady:
    """Pure-Python twin of the kernel ``Ready`` iterator.

    A single-use iterable whose iteration immediately ends with the given
    value: ``yield from _PyReady(x)`` evaluates to ``x`` without ever
    suspending.  Replaces generator-frame creation on local-hit accesses.
    """

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value

    def __iter__(self):
        return self

    def __next__(self):
        value = self._value
        if value is None:
            raise StopIteration
        self._value = None
        raise StopIteration(value)


class _PyAccessor:
    """Pure-Python twin of the kernel ``Accessor``: the ``read`` and
    ``write`` bodies of one thread over its engine's local-hit probes
    (a ``LocalAccess``) and miss generator.  A context holds this
    object's bound methods, which do not point back at the context, so a
    finished thread is freed by reference counting."""

    __slots__ = ("_try_read", "_try_write", "_fault_in", "_ready")

    def __init__(self, local_access, fault_in):
        self._try_read = local_access.try_read
        self._try_write = local_access.try_write
        self._fault_in = fault_in
        self._ready = _kernel.SEAMS.Ready

    def read(self, obj: SharedObject) -> Generator[Any, Any, np.ndarray]:
        """Readable payload of ``obj`` (may fault in from the home)."""
        # Local hits (home copy or valid cached copy) resolve without a
        # generator frame: the Ready iterator finishes immediately under
        # ``yield from``.  The protocol generator is only built when
        # communication is actually needed.  Same side effects either way.
        payload = self._try_read(obj.oid)
        if payload is None:
            return self._fault_in(False, obj.oid)
        return self._ready(payload)

    def write(self, obj: SharedObject) -> Generator[Any, Any, np.ndarray]:
        """Writable payload of ``obj`` (faults, twins, or home-write traps)."""
        payload = self._try_write(obj.oid)
        if payload is None:
            return self._fault_in(True, obj.oid)
        return self._ready(payload)


class ThreadContext:
    """One simulated application thread pinned to one cluster node.

    Slotted, like the engines: a thread carries only its pre-bound entry
    points.  ``read``/``write`` are per-instance callables, the methods
    of the compiled ``Accessor`` or of its Python twin.
    """

    __slots__ = {
        "gos": "The owning GlobalObjectSpace.",
        "tid": "Thread id.",
        "node": "The node the thread is pinned to.",
        "engine": "That node's protocol engine.",
        "acquire": (
            "acquire(lock): enter a synchronized section (Java "
            "monitorenter), flushing the interval's diffs; the engine's "
            "own generator method."
        ),
        "release": (
            "release(lock): leave a synchronized section, flushing the "
            "interval's diffs; the engine's own generator method."
        ),
        "barrier": (
            "barrier(handle): the node's current round of a barrier, "
            "flushing the interval's diffs; the engine's own generator."
        ),
        "read": (
            "read(obj): readable payload of ``obj`` (may fault in from "
            "the home); ``yield from`` the result."
        ),
        "write": (
            "write(obj): writable payload of ``obj`` (faults, twins, or "
            "home-write traps); ``yield from`` the result."
        ),
    }

    def __init__(self, gos: "GlobalObjectSpace", tid: int, node: int):
        if not 0 <= node < gos.nnodes:
            raise ValueError(f"thread {tid} placed on node {node} outside cluster")
        self.gos = gos
        self.tid = tid
        self.node = node
        self.engine = engine = gos.engines[node]
        # Bound here so a sync operation costs no wrapper call.
        self.acquire = engine.acquire
        self.release = engine.release
        self.barrier = engine.barrier
        # Both protocol engines expose their probes as ``local_access`` and
        # the same miss entry ``_fault_in(for_write, oid)``, never rebound:
        # the accessor resolves them once, and a miss enters the engine's
        # fault generator directly.  Over the compiled LocalAccess the
        # whole read/write body is one C call; the C Accessor drives no
        # other probe, so the homeless engine's (the Python twin on
        # either backend) gets the Python accessor.
        seams = _kernel.SEAMS
        local_access = engine.local_access
        accessor = (
            seams.Accessor
            if type(local_access) is seams.LocalAccess
            else _PyAccessor
        )(local_access, engine._fault_in)
        self.read = accessor.read
        self.write = accessor.write

    # -- object access --------------------------------------------------

    def read_many(
        self, objs: list[SharedObject]
    ) -> Generator[Any, Any, None]:
        """Prefetch readable copies of many objects with batched fault-ins
        (one message per home node — the GOS's object pushing, §5.1).
        Subsequent :meth:`read` calls in the same interval are local hits.
        """
        return self.engine.read_many([obj.oid for obj in objs])

    def get_field(
        self, obj: SharedObject, name: str
    ) -> Generator[Any, Any, float]:
        """Read one named field of a fields object."""
        payload = yield from self.read(obj)
        return float(payload[self._slot(obj, name)])

    def put_field(
        self, obj: SharedObject, name: str, value: float
    ) -> Generator[Any, Any, None]:
        """Write one named field of a fields object."""
        payload = yield from self.write(obj)
        payload[self._slot(obj, name)] = value

    @staticmethod
    def _slot(obj: SharedObject, name: str) -> int:
        if not isinstance(obj.spec, FieldsSpec):
            raise TypeError(f"{obj!r} is not a fields object")
        return obj.spec.slot(name)

    def ship(
        self,
        obj: SharedObject,
        fn,
        compute_us: float = 0.0,
        args_bytes: int = 8,
    ) -> Generator[Any, Any, Any]:
        """Synchronized method shipping: run ``fn(payload)`` at ``obj``'s
        home node instead of faulting the object here (§5.1's GOS
        optimization).  Call while holding the guarding lock; returns
        ``fn``'s result.  ``compute_us`` is the method's CPU cost, charged
        at the executing node."""
        return self.engine.ship(
            obj.oid, fn, compute_us=compute_us, args_bytes=args_bytes
        )

    # -- local work --------------------------------------------------------

    def compute(self, duration_us: float) -> Iterable[Delay]:
        """Charge ``duration_us`` of local CPU time (finite, non-negative;
        zero charges nothing): ``yield from`` the result.

        A plain call, no generator: a positive duration is one
        :class:`~repro.sim.process.Delay`, zero an empty tuple.
        """
        # the same check and message as Delay, before anything is charged
        if not 0.0 <= duration_us < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got {duration_us!r}"
            )
        if duration_us > 0:
            return (Delay(duration_us),)
        return ()

    @property
    def now(self) -> float:
        """Current simulated time (microseconds)."""
        return self.gos.sim.now
