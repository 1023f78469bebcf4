"""Tests for the discrete-event simulator core."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.future import Future
from repro.sim.process import Delay


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_advances_clock(sim):
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    assert sim.run() == 5.0
    assert fired == [5.0]


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(10.0, lambda: order.append("late"))
    sim.schedule(1.0, lambda: order.append("early"))
    sim.schedule(5.0, lambda: order.append("middle"))
    sim.run()
    assert order == ["early", "middle", "late"]


def test_ties_break_in_scheduling_order(sim):
    order = []
    for i in range(10):
        sim.schedule(3.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_nested_scheduling(sim):
    order = []

    def outer():
        order.append(("outer", sim.now))
        sim.schedule(2.0, inner)

    def inner():
        order.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert order == [("outer", 1.0), ("inner", 3.0)]


def test_call_soon_runs_at_current_instant(sim):
    times = []
    sim.schedule(4.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [4.0]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_at_in_the_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_non_finite_and_negative_times_rejected(sim, bad):
    """NaN or infinity in the heap would order events differently per
    backend (and end the clock at inf): both entry points and the Delay
    effect reject them with one line naming the value."""
    sim.schedule(3.0, lambda: None)
    with pytest.raises(SimulationError) as by_delay:
        sim.schedule(bad, lambda: None)
    assert str(by_delay.value) == (
        f"delay must be finite and non-negative, got {bad!r}"
    )
    with pytest.raises(SimulationError) as by_time:
        sim.at(bad, lambda: None)
    assert str(by_time.value) == (
        f"cannot schedule at {bad!r}: time must be finite and not before "
        "the current time 0.0"
    )
    with pytest.raises(SimulationError) as by_effect:
        Delay(bad)
    assert str(by_effect.value) == str(by_delay.value)
    assert sim.run() == 3.0


def test_run_until_stops_early(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(100.0, lambda: fired.append(2))
    assert sim.run(until=50.0) == 50.0
    assert fired == [1]
    # the remaining event still fires on the next run
    sim.run()
    assert fired == [1, 2]


def test_run_until_beyond_last_event_advances_clock(sim):
    sim.schedule(1.0, lambda: None)
    assert sim.run(until=10.0) == 10.0


def test_events_processed_counter(sim):
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_empty_run_returns_zero(sim):
    assert sim.run() == 0.0


def test_deadlock_detection_names_blocked_process(sim):
    def blocked_forever():
        yield Future(label="never")

    sim.spawn(blocked_forever(), name="stuck-thread")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "stuck-thread" in str(exc.value)


def test_no_deadlock_when_processes_finish(sim):
    def quick():
        yield Delay(1.0)

    sim.spawn(quick(), name="quick")
    assert sim.run() == 1.0


def test_determinism_across_instances():
    def build_and_run():
        sim = Simulator()
        log = []

        def worker(name, delays):
            for d in delays:
                yield Delay(d)
                log.append((name, sim.now))

        sim.spawn(worker("a", [1.0, 2.0, 3.0]), name="a")
        sim.spawn(worker("b", [2.0, 2.0, 2.0]), name="b")
        sim.run()
        return log

    assert build_and_run() == build_and_run()


# -- run(until=...) edge cases with argument-carrying event tuples ---------


def test_zero_delay_ties_from_inside_callback_run_in_order(sim):
    """Events scheduled at the current instant from a running callback
    execute after already-queued ties, in scheduling order — for arg
    tuples exactly as for bare callbacks."""
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "nested-arg")
        sim.call_soon(lambda: order.append("nested-lambda"))

    sim.at(1.0, first)
    sim.at(1.0, order.append, "tie")
    assert sim.run() == 1.0
    assert order == ["first", "tie", "nested-arg", "nested-lambda"]


def test_run_until_boundary_executes_events_at_until(sim):
    """An event scheduled exactly at ``until`` runs; strictly-later ones
    do not."""
    ran = []
    sim.at(5.0, ran.append, "at-until")
    sim.at(5.0 + 1e-9, ran.append, "after")
    assert sim.run(until=5.0) == 5.0
    assert ran == ["at-until"]


def test_run_until_with_blocked_process_does_not_raise(sim):
    """Stopping at ``until`` with a process still blocked is not a
    deadlock — the process may be waiting for events beyond the horizon."""
    def sleeper():
        yield Delay(100.0)

    sim.spawn(sleeper(), name="sleeper")
    assert sim.run(until=1.0) == 1.0
    # draining past the wake-up completes it without error
    assert sim.run() == 100.0


def test_deadlock_report_names_blocked_processes_with_tuple_events(sim):
    """A drained heap with waiting processes still names every blocked
    process, also when the heap only ever held argument-carrying tuples."""
    gate = Future(label="never")

    def waiter(name):
        yield gate

    sim.spawn(waiter("w1"), name="w1")
    sim.spawn(waiter("w2"), name="w2")
    sim.at(1.0, (lambda *a: None), "arg1", "arg2")
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    assert "w1" in str(excinfo.value) and "w2" in str(excinfo.value)
