"""The discrete-event simulator core: a deterministic time-ordered heap.

Two interchangeable backends implement the same contract:

* :class:`PySimulator` — the pure-Python reference implementation;
* :class:`CompiledSimulator` — a thin wrapper over the C event-heap in
  :mod:`repro._kernel` (created only when the compiled backend is
  active).

``Simulator`` is bound to the active backend's class at import time
(``REPRO_BACKEND`` selects it; see :mod:`repro._kernel`), and
:func:`make_simulator` constructs an instance of whichever backend is
active *now* — use it instead of ``Simulator()`` in library code so a
runtime :func:`repro._kernel.select_backend` call takes effect.

Both backends pop events in the identical (time, seq) order, so runs are
bit-for-bit reproducible whichever is active.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro import _kernel
from repro.sim.errors import DeadlockError, SimulationError

#: Upper bound (exclusive) of a schedulable delay or time: NaN and
#: infinities are rejected, since the backends would order them differently.
_INF = float("inf")


class PySimulator:
    """Deterministic discrete-event simulator (pure-Python backend).

    Events are ``(time, seq, callback, args)`` tuples kept in a binary
    heap; the monotonically increasing ``seq`` breaks ties so that events
    scheduled for the same instant run in scheduling order.  Determinism
    of the whole reproduction rests on this property plus seeded
    application randomness.

    Callbacks are invoked as ``callback(*args)``.  Carrying the arguments
    in the event tuple lets hot callers (the network's delivery path, the
    process stepper) schedule a pre-bound method with its operands instead
    of allocating a fresh closure per event — the per-message lambda churn
    was the single largest interpreter overhead in the PR-1 profile.

    Time is a float in **microseconds** by convention throughout the
    package (the Hockney model's natural unit).
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._processes: list[Any] = []  # Process instances, for deadlock report
        self.events_processed: int = 0

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` ``delay`` microseconds from now.

        ``delay`` must be finite and non-negative; zero-delay events run
        after all events already scheduled for the current instant.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay!r}"
            )
        heappush(self._heap, (self._now + delay, self._seq, callback, args))
        self._seq += 1

    def at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time`` (finite,
        not before now)."""
        if not self._now <= time < _INF:
            raise SimulationError(
                f"cannot schedule at {time!r}: time must be finite and not "
                f"before the current time {self._now!r}"
            )
        heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at the current instant (after
        pending ties)."""
        heappush(self._heap, (self._now, self._seq, callback, args))
        self._seq += 1

    def spawn(
        self, generator: Generator[Any, Any, Any], name: str = "proc"
    ) -> "Process":
        """Wrap ``generator`` in a :class:`Process` and start it immediately."""
        from repro.sim.process import Process

        process = Process(self, generator, name)
        self._processes.append(process)
        process.start()
        return process

    def run(self, until: float | None = None) -> float:
        """Drain the event heap; return the final simulated time.

        If ``until`` is given, stop once the next event lies beyond it (the
        clock is then advanced exactly to ``until``).  If the heap drains
        while spawned processes are still blocked, raise
        :class:`~repro.sim.errors.DeadlockError` naming them.
        """
        # The unbounded drain is the hot loop of every simulation: keep
        # the heap and pop local, pop exactly once per iteration, and
        # batch the processed-event accounting (callbacks never read it
        # mid-run; the try/finally keeps the counter exact even when a
        # callback raises).
        heap = self._heap
        pop = heappop
        processed = 0
        try:
            if until is None:
                while heap:
                    time, _seq, callback, args = pop(heap)
                    self._now = time
                    processed += 1
                    # args-free events take the fast CALL path; argful
                    # ones pay the unpacking call exactly once.
                    if args:
                        callback(*args)
                    else:
                        callback()
            else:
                while heap:
                    time = heap[0][0]
                    if time > until:
                        self._now = until
                        return self._now
                    _, _seq, callback, args = pop(heap)
                    self._now = time
                    processed += 1
                    if args:
                        callback(*args)
                    else:
                        callback()
        finally:
            self.events_processed += processed
        blocked = [p.name for p in self._processes if not p.done]
        if blocked:
            raise DeadlockError(blocked)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator now={self._now:.3f}us pending={len(self._heap)} "
            f"processed={self.events_processed}>"
        )


def _build_compiled_class(kernel_module: Any) -> type:
    """Create the CompiledSimulator class over the loaded C kernel.

    The class subclasses the extension's ``Engine`` type, so the hot
    entry points (``schedule``/``at``/``call_soon``, the ``_now`` and
    ``events_processed`` attributes) resolve straight to C descriptors
    with no Python frame in between; only the cold orchestration
    (process bookkeeping, the deadlock report) stays in Python.
    """

    class CompiledSimulator(kernel_module.Engine):
        """Deterministic discrete-event simulator (compiled backend).

        Same contract as :class:`PySimulator` — identical event order
        (``(time, seq)`` heap), identical ``run(until)``/deadlock
        semantics, identical error messages — with the event
        heap, pop loop and callback dispatch implemented in C by
        :mod:`repro._kernel`.
        """

        def __init__(self) -> None:
            super().__init__()
            self._processes: list[Any] = []

        def spawn(
            self, generator: Generator[Any, Any, Any], name: str = "proc"
        ) -> "Process":
            """Wrap ``generator`` in a :class:`Process` and start it
            immediately."""
            from repro.sim.process import Process

            process = Process(self, generator, name)
            self._processes.append(process)
            process.start()
            return process

        def run(self, until: float | None = None) -> float:
            """Drain the event heap; return the final simulated time
            (see :meth:`PySimulator.run`)."""
            if self._drain(until):
                # Early stop at `until`: later events stay queued and a
                # still-blocked process is not a deadlock — it may be
                # waiting for events beyond the horizon.
                return self._now
            blocked = [p.name for p in self._processes if not p.done]
            if blocked:
                raise DeadlockError(blocked)
            if until is not None and until > self._now:
                self._now = until
            return self._now

        def __repr__(self) -> str:  # pragma: no cover - debug aid
            return (
                f"<Simulator now={self._now:.3f}us pending={self._pending} "
                f"processed={self.events_processed}>"
            )

    CompiledSimulator.__module__ = __name__
    CompiledSimulator.__qualname__ = "CompiledSimulator"
    return CompiledSimulator


#: The compiled backend's simulator class; ``None`` until (and unless)
#: the compiled kernel is active.
CompiledSimulator: type | None = None


def _active_class() -> type:
    """The simulator class of the currently active backend."""
    kernel_module = _kernel.kernel()
    if kernel_module is None:
        return PySimulator
    global CompiledSimulator
    if CompiledSimulator is None:
        CompiledSimulator = _build_compiled_class(kernel_module)
    return CompiledSimulator


def make_simulator() -> "PySimulator":
    """Construct a simulator on the active backend.

    Library code should prefer this over ``Simulator()``: the module-level
    ``Simulator`` name is bound once at import, while this factory honours
    a later :func:`repro._kernel.select_backend` call.
    """
    return _active_class()()


def _rebind_kernel() -> None:
    """Re-point ``Simulator`` here and in :mod:`repro.sim` at the active
    backend (called by :func:`repro._kernel.select_backend`)."""
    global Simulator
    Simulator = _active_class()
    sim_pkg = sys.modules.get("repro.sim")
    if sim_pkg is not None:
        sim_pkg.Simulator = Simulator


#: The active backend's simulator class, selected at import from
#: ``REPRO_BACKEND`` (``auto`` builds/loads the compiled kernel and falls
#: back to :class:`PySimulator` with a one-line warning).
Simulator: type = _active_class()
