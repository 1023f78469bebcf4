"""Tests for the GlobalObjectSpace facade."""

import numpy as np
import pytest

from repro.gos.thread import ThreadContext

from tests.conftest import make_gos, run_threads


def test_alloc_array_installs_home(gos):
    obj = gos.alloc_array(16, home=2, label="arr")
    assert obj.oid in gos.engines[2].homes
    assert gos.current_home(obj) == 2
    assert gos.heap.initial_home(obj.oid) == 2


def test_alloc_fields_installs_home(gos):
    obj = gos.alloc_fields(("a", "b"), home=1)
    assert gos.current_home(obj) == 1


def test_write_and_read_global_roundtrip(gos):
    obj = gos.alloc_array(4, home=3)
    gos.write_global(obj, np.array([1.0, 2.0, 3.0, 4.0]))
    out = gos.read_global(obj)
    assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0])
    # read_global returns a copy
    out[0] = 99.0
    assert gos.read_global(obj)[0] == 1.0


def test_lock_ids_unique(gos):
    a = gos.alloc_lock(home=0)
    b = gos.alloc_lock(home=1)
    assert a.lock_id != b.lock_id
    assert b.home == 1


def test_barrier_registration(gos):
    handle = gos.alloc_barrier(parties=3, home=2)
    assert handle.barrier_id in gos.engines[2].barriers


def test_barrier_on_wrong_node_rejected(gos):
    from repro.dsm.barrier import BarrierHandle

    with pytest.raises(ValueError):
        gos.engines[1].register_barrier(
            BarrierHandle(barrier_id=99, home=0, parties=2)
        )


def test_migration_count_tracks_stats(gos):
    assert gos.migration_count() == 0
    gos.stats.incr("migration", 3)
    assert gos.migration_count() == 3


def test_thread_context_placement_validation(gos):
    with pytest.raises(ValueError):
        ThreadContext(gos, tid=0, node=99)


def test_get_put_field_roundtrip(gos):
    obj = gos.alloc_fields(("x", "y"), home=0)
    got = []

    def body():
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.put_field(obj, "y", 3.5)
        value = yield from ctx.get_field(obj, "y")
        got.append(value)

    run_threads(gos, body())
    assert got == [3.5]


def test_field_access_on_array_rejected(gos):
    obj = gos.alloc_array(4, home=0)

    def body():
        ctx = ThreadContext(gos, tid=0, node=1)
        yield from ctx.get_field(obj, "x")

    from repro.sim.errors import ProcessFailed

    with pytest.raises(ProcessFailed):
        run_threads(gos, body())


def test_compute_charges_time(gos):
    def body():
        ctx = ThreadContext(gos, tid=0, node=0)
        yield from ctx.compute(123.0)

    end = run_threads(gos, body())
    assert end == 123.0


def test_compute_zero_is_free(gos):
    def body():
        ctx = ThreadContext(gos, tid=0, node=0)
        yield from ctx.compute(0.0)

    assert run_threads(gos, body()) == 0.0


@pytest.mark.parametrize("bad", [-5.0, float("nan"), float("inf")])
def test_compute_rejects_negative_or_non_finite(backend, bad):
    """A bad duration fails at entry with Delay's message, before any
    time is charged (it used to be skipped silently for -5 and nan)."""
    from repro.sim.errors import SimulationError

    ctx = ThreadContext(make_gos(nnodes=2), tid=0, node=0)
    with pytest.raises(SimulationError) as err:
        next(ctx.compute(bad))
    assert str(err.value) == (
        f"delay must be finite and non-negative, got {bad!r}"
    )
