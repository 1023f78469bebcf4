"""The discrete-event simulator core: a deterministic time-ordered heap.

A simulator is one :class:`Simulator` body — process spawning, the
drain-and-deadlock ``run`` — over an *event core* that holds the heap:
:class:`PyEngine` here, or the C ``Engine`` of :mod:`repro._kernel`,
whichever the kernel's seam table names.  :func:`make_simulator` is the
one constructor; it builds on the table's core at the time of the call,
so a runtime :func:`repro._kernel.select_backend` takes effect.

Both cores pop events in the identical (time, seq) order, so runs are
bit-for-bit reproducible whichever is active.
"""

from __future__ import annotations

from functools import cache
from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro import _kernel
from repro.sim.errors import DeadlockError, SimulationError

#: Upper bound (exclusive) of a schedulable delay or time: NaN and
#: infinities are rejected, since the backends would order them differently.
_INF = float("inf")


class PyEngine:
    """Deterministic event core (pure-Python twin of the kernel ``Engine``).

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

    @property
    def _pending(self) -> int:
        """Number of events currently queued."""
        return len(self._heap)

    def _drain(self, until: float | None) -> bool:
        """Drain the heap; ``True`` when stopped early at ``until`` (the
        clock then reads ``until`` and later events stay queued),
        ``False`` when the heap ran empty."""
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
                        return True
                    _, _seq, callback, args = pop(heap)
                    self._now = time
                    processed += 1
                    if args:
                        callback(*args)
                    else:
                        callback()
        finally:
            self.events_processed += processed
        return False


class Simulator:
    """Deterministic discrete-event simulator: the one body over either
    event core (build one with :func:`make_simulator`).

    The core's entry points (``schedule``/``at``/``call_soon``, ``now``,
    ``events_processed``) resolve straight to it — to C descriptors under
    the compiled core, with no Python frame in between; this body adds
    only the cold orchestration: process bookkeeping and the deadlock
    report.
    """

    def __init__(self) -> None:
        if type(self) is Simulator:
            raise TypeError("Simulator is a body without a core: use make_simulator()")
        super().__init__()
        self._processes: list[Any] = []  # Process instances, for deadlock report

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


@cache
def _simulator_class(core: type) -> type:
    """The :class:`Simulator` body over the event core ``core``."""
    qualname = f"Simulator[{core.__name__}]"
    return type("Simulator", (Simulator, core), {"__qualname__": qualname})


def make_simulator() -> Simulator:
    """Construct a simulator over the seam table's event core."""
    return _simulator_class(_kernel.SEAMS.Engine)()
