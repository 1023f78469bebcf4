"""ThreadContext: the API simulated Java threads program against.

Blocking methods return what to ``yield from`` (the engine's own
generator, or a finished ``Ready`` iterator on a local hit); application
thread bodies are generator functions that compose them::

    def body(ctx, tid):
        yield from ctx.acquire(lock)
        counter = yield from ctx.write(counter_obj)
        counter[0] += 1
        yield from ctx.release(lock)
        yield from ctx.barrier()

Element-level mutation happens directly on the returned numpy payload —
protocol-equivalent under LRC because access states only change at
synchronization points (DESIGN.md, decision 2).
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

import numpy as np

from repro import _kernel
from repro.dsm.barrier import BarrierHandle
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


class ThreadContext:
    """One simulated application thread pinned to one cluster node."""

    def __init__(self, gos: "GlobalObjectSpace", tid: int, node: int):
        if not 0 <= node < gos.nnodes:
            raise ValueError(f"thread {tid} placed on node {node} outside cluster")
        self.gos = gos
        self.tid = tid
        self.node = node
        self.engine = engine = gos.engines[node]
        self._barrier_rounds: dict[int, int] = {}
        kernel_module = _kernel.kernel()
        self._ready = (
            kernel_module.Ready if kernel_module is not None else _PyReady
        )
        # Hot-path pre-binds: both protocol engines expose the same probe
        # and miss entry points, installed at construction and never
        # rebound, so one attribute resolution here replaces two per
        # access.  A miss enters the engine's fault generator directly.
        self._try_read = engine.try_read_local
        self._try_write = engine.try_write_local
        self._miss_read = engine.read_miss
        self._miss_write = engine.write_miss
        #: ``acquire(lock)`` enters a synchronized section (Java
        #: monitorenter) and ``release(lock)`` leaves it, flushing the
        #: interval's diffs: both are the engine's own generator methods,
        #: bound here so a lock operation costs no wrapper call.
        self.acquire = engine.acquire
        self.release = engine.release
        # The compiled home-based engine's probes are methods of its
        # kernel LocalAccess: then the whole read/write body collapses
        # into one C call (instance attributes shadow the class methods
        # below; same probe, same miss generator, same Ready iterator).
        if kernel_module is not None and isinstance(
            self._try_read.__self__, kernel_module.LocalAccess
        ):
            accessor = kernel_module.Accessor(
                self._try_read.__self__, self._miss_read, self._miss_write
            )
            self.read = accessor.read
            self.write = accessor.write

    # -- object access --------------------------------------------------

    def read(self, obj: SharedObject) -> Generator[Any, Any, np.ndarray]:
        """Readable payload of ``obj`` (may fault in from the home)."""
        # Local hits (home copy or valid cached copy) resolve without a
        # generator frame: the Ready iterator finishes immediately under
        # ``yield from``.  The protocol generator is only built when
        # communication is actually needed.  Same side effects either way.
        payload = self._try_read(obj.oid)
        if payload is None:
            return self._miss_read(obj.oid)
        return self._ready(payload)

    def write(self, obj: SharedObject) -> Generator[Any, Any, np.ndarray]:
        """Writable payload of ``obj`` (faults, twins, or home-write traps)."""
        payload = self._try_write(obj.oid)
        if payload is None:
            return self._miss_write(obj.oid)
        return self._ready(payload)

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

    # -- synchronization --------------------------------------------------
    # ``acquire``/``release`` are the engine's methods, bound in __init__;
    # ``barrier`` returns the engine's own generator: each blocking
    # operation runs in that one frame, with no wrapper generator.

    def barrier(self, handle: BarrierHandle) -> Generator[Any, Any, None]:
        """One barrier episode; rounds are tracked per thread."""
        round_no = self._barrier_rounds.get(handle.barrier_id, 0)
        self._barrier_rounds[handle.barrier_id] = round_no + 1
        return self.engine.barrier(handle, round_no)

    # -- local work --------------------------------------------------------

    def compute(self, duration_us: float) -> Generator[Any, Any, None]:
        """Charge ``duration_us`` of local CPU time (finite, non-negative;
        zero charges nothing)."""
        # the same check and message as Delay, before anything is charged
        if not 0.0 <= duration_us < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got {duration_us!r}"
            )
        if duration_us > 0:
            yield Delay(duration_us)

    @property
    def now(self) -> float:
        """Current simulated time (microseconds)."""
        return self.gos.sim.now
