"""Generator-based cooperative processes.

A simulated thread is an ordinary Python generator.  It performs work by
yielding *effects*:

``yield Delay(dt)``
    advance this process's clock by ``dt`` microseconds (models local
    computation);

``yield future``
    block until the :class:`~repro.sim.future.Future` resolves; the yield
    expression evaluates to the future's value (or re-raises its failure
    exception inside the generator);

``yield None``
    cooperative no-op reschedule at the current instant.

Nested protocol steps compose with ``yield from``, so application code reads
like straight-line threaded code.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MethodType
from typing import Any, Generator, TYPE_CHECKING

from repro.sim.errors import ProcessFailed, SimulationError
from repro.sim.future import Future, future_classes

_INF = float("inf")

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class Delay:
    """Effect: advance simulated time by ``duration_us`` for this process."""

    duration_us: float

    def __post_init__(self) -> None:
        # the same check and message as Simulator.schedule (both backends)
        if not 0.0 <= self.duration_us < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got "
                f"{self.duration_us!r}"
            )


class Process:
    """Drives one generator coroutine to completion on a simulator.

    The process's :attr:`finished` future resolves with the generator's
    return value, or fails with :class:`~repro.sim.errors.ProcessFailed`
    if the generator raises.
    """

    __slots__ = (
        "sim", "name", "_gen", "finished", "_started", "_blocking", "_resume"
    )

    def __init__(
        self, sim: "Simulator", generator: Generator[Any, Any, Any], name: str
    ):
        self.sim = sim
        self.name = name
        self._gen = generator
        self.finished: Future = Future(label=f"{name}.finished")
        self._started = False
        # Effect classes that block this process: the Python Future plus
        # the kernel's C twin when the compiled backend is active.
        self._blocking = future_classes()
        # A blocked future's done-callback, ``future -> call_soon(_step,
        # future)`` with no Python frame in between: ``call_soon`` bound
        # to ``_step`` as its first argument (one object, where
        # ``functools.partial`` would allocate three).
        self._resume = MethodType(sim.call_soon, self._step)

    @property
    def done(self) -> bool:
        """Whether the generator ran to completion (or failed)."""
        return self.finished.resolved

    def start(self) -> None:
        """Schedule the first step at the current instant."""
        if self._started:
            raise SimulationError(f"process {self.name!r} started twice")
        self._started = True
        self.sim.call_soon(self._step)

    def _step(self, resumed: Any = None) -> None:
        # Hot loop: one generator resumption per iteration.  Effect
        # dispatch is inlined (no trampoline call) and continuation events
        # are scheduled as bare bound methods (or with the one future that
        # resumes them), so stepping never allocates a closure.  A yield
        # of an *already resolved* future continues the generator inline
        # instead of paying a schedule/dispatch round trip — that is the
        # ``while True``.
        gen = self._gen
        sim = self.sim
        if resumed is None:
            value = exc = None
        else:
            value, exc = resumed.peek()
        while True:
            try:
                if exc is not None:
                    effect = gen.throw(exc)
                else:
                    effect = gen.send(value)
            except StopIteration as stop:
                self.finished.resolve(stop.value)
                return
            except Exception as error:  # noqa: BLE001 - simulated-code boundary
                self.finished.fail(ProcessFailed(self.name, error))
                return
            if effect is None:
                sim.call_soon(self._step)
                return
            if type(effect) is Delay:
                sim.schedule(effect.duration_us, self._step)
                return
            if isinstance(effect, self._blocking):
                if effect.resolved:
                    value, exc = effect.peek()
                    continue
                effect.add_done_callback(self._resume)
                return
            self.finished.fail(
                ProcessFailed(
                    self.name,
                    SimulationError(f"process yielded unknown effect {effect!r}"),
                )
            )
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"<Process {self.name!r} {state}>"


def join_all(processes: list[Process]) -> Generator[Any, Any, list[Any]]:
    """Generator helper: wait for every process, return their results in order.

    If any process failed, its :class:`~repro.sim.errors.ProcessFailed` is
    re-raised in the caller as soon as it is reached in order.
    """
    results = []
    for process in processes:
        value = yield process.finished
        results.append(value)
    return results
