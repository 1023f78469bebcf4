"""Tests for cached copies: valid or gone (docs/PROTOCOL.md §12).

A copy is read-only while it has no twin and writable once it has one;
every invalidation drops it, and a diff ack keeps it only while it still
equals the home copy.
"""

import numpy as np

from repro.dsm.cache import CacheEntry
from repro.gos.thread import ThreadContext

from tests.conftest import make_gos, run_threads


def make_entry(version=3):
    return CacheEntry(payload=np.arange(4.0), version=version)


def test_fresh_entry_readable_not_writable():
    entry = make_entry()
    assert entry.twin is None


def test_upgrade_creates_twin():
    entry = make_entry()
    entry.upgrade_to_write()
    assert entry.twin is not None
    assert np.array_equal(entry.twin, entry.payload)
    entry.payload[0] = 99.0
    assert entry.twin[0] == 0.0  # twin is an independent snapshot


def test_upgrade_idempotent():
    entry = make_entry()
    entry.upgrade_to_write()
    twin = entry.twin
    entry.payload[1] = 5.0
    entry.upgrade_to_write()
    assert entry.twin is twin  # not re-snapshotted


def test_invalidate_read_copy():
    engine = make_gos(nnodes=2).engines[1]
    engine.cache[7] = make_entry()
    engine.invalidate_all_cached()
    assert engine.cache == {}


def test_invalidate_spares_dirty_copy():
    engine = make_gos(nnodes=2).engines[1]
    engine.cache[7] = make_entry()
    engine.cache[8] = dirty = make_entry()
    dirty.upgrade_to_write()
    engine.dirty.add(8)
    engine.invalidate_all_cached()
    assert engine.cache == {8: dirty}


def _writer(gos, node, obj, field, delay_us, value=None):
    """Acquire a lock of the writer's own node, write ``field`` of
    ``obj`` after ``delay_us`` (leave it as it is for ``value=None``),
    release."""
    lock = gos.alloc_lock(home=node)

    def body():
        ctx = ThreadContext(gos, tid=node, node=node)
        yield from ctx.acquire(lock)
        payload = yield from ctx.write(obj)
        yield from ctx.compute(delay_us)
        if value is not None:
            payload[field] = value
        yield from ctx.release(lock)

    return body()


def test_downgrade_contiguous_ack_stays_valid():
    gos = make_gos(nnodes=2)
    obj = gos.alloc_fields(("x", "y"), home=0)
    run_threads(gos, _writer(gos, 1, obj, 0, 10.0, value=7.0))
    entry = gos.engines[1].cache[obj.oid]
    assert entry.version == 1 and entry.twin is None
    assert entry.payload[0] == 7.0


def test_downgrade_interleaved_ack_invalidates():
    """Another writer's diff applied first: our copy misses it."""
    gos = make_gos(nnodes=3)
    obj = gos.alloc_fields(("x", "y"), home=0)
    run_threads(
        gos,
        _writer(gos, 1, obj, 0, 10_000.0, value=1.0),
        _writer(gos, 2, obj, 1, 10.0, value=2.0),
    )
    assert obj.oid not in gos.engines[1].cache
    assert gos.engines[2].cache[obj.oid].version == 1
    assert gos.engines[0].homes[obj.oid].version == 2
    assert list(gos.read_global(obj)) == [1.0, 2.0]


def test_downgrade_clean_drops_twin():
    gos = make_gos(nnodes=2)
    obj = gos.alloc_fields(("x", "y"), home=0)
    run_threads(gos, _writer(gos, 1, obj, 0, 10.0))
    entry = gos.engines[1].cache[obj.oid]
    assert entry.version == 0 and entry.twin is None
    assert gos.stats.events.get("diff", 0) == 0
