"""One-shot future values used as blocking points for simulated processes."""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.errors import SimulationError

_UNSET = object()


class Future:
    """A value that becomes available at some simulated time.

    A process blocks on a future by yielding it; the engine resumes the
    process with the resolved value.  Non-process code can attach callbacks
    with :meth:`add_done_callback`.

    Futures are single-assignment: resolving twice raises
    :class:`~repro.sim.errors.SimulationError`.
    """

    __slots__ = ("_value", "_exception", "_callbacks", "label")

    def __init__(self, label: str = ""):
        self._value: Any = _UNSET
        self._exception: BaseException | None = None
        # Lazily allocated: most futures get zero or one callback, and
        # tens of thousands are created per run.
        self._callbacks: list[Callable[[Future], None]] | None = None
        self.label = label

    @property
    def resolved(self) -> bool:
        """Whether the future holds a value or an exception."""
        return self._value is not _UNSET or self._exception is not None

    @property
    def value(self) -> Any:
        """The resolved value; raises if unresolved or resolved to an error."""
        if self._exception is not None:
            raise self._exception
        if self._value is _UNSET:
            raise SimulationError(f"future {self.label!r} read before resolution")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The exception this future was failed with, if any."""
        return self._exception

    def resolve(self, value: Any = None) -> None:
        """Provide the value and fire callbacks (in registration order)."""
        if self.resolved:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._value = value
        self._fire()

    def fail(self, exc: BaseException) -> None:
        """Resolve the future with an exception instead of a value."""
        if self.resolved:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._exception = exc
        self._fire()

    def peek(self) -> tuple[Any, BaseException | None]:
        """``(value, exception)`` without raising — exactly one is set.

        Hot-path accessor for the process stepper: resuming a generator
        needs both slots without the :attr:`value` property's raise-on-
        error behaviour.  Must only be called on a resolved future; on an
        unresolved one it raises :class:`SimulationError`.
        """
        if self._exception is not None:
            return None, self._exception
        if self._value is _UNSET:
            raise SimulationError(f"future {self.label!r} peeked unresolved")
        return self._value, None

    def add_done_callback(self, callback: Callable[[Future], None]) -> None:
        """Run ``callback(self)`` when resolved (immediately if already)."""
        if self.resolved:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "resolved" if self.resolved else "pending"
        return f"<Future {self.label!r} {state}>"

