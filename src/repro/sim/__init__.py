"""Deterministic discrete-event simulation engine.

The engine is deliberately minimal: a time-ordered event heap with
deterministic FIFO tie-breaking (:class:`~repro.sim.engine.Simulator`,
built by :func:`~repro.sim.engine.make_simulator`),
one-shot :class:`~repro.sim.future.Future` values, and generator-based
cooperative :class:`~repro.sim.process.Process` coroutines.

Simulated code *yields* blocking effects — a :class:`~repro.sim.process.Delay`
or a :class:`~repro.sim.future.Future` — and is resumed by the engine when
the effect completes.  All state transitions happen at deterministic
simulated times, so identical inputs always produce identical traces.
"""

from repro.sim.engine import PyEngine, Simulator, make_simulator
from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.future import Future
from repro.sim.process import Delay, Process

__all__ = [
    "DeadlockError",
    "Delay",
    "Future",
    "Process",
    "PyEngine",
    "SimulationError",
    "Simulator",
    "make_simulator",
]
