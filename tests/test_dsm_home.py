"""The home-write trap (§3.3): one body, ``FaultInMixin._trap_home_write``.

Every test drives the trap through the engine's write probe, which is
the Python ``_write_local`` under one backend and the kernel's
``LocalAccess.try_write`` under the other: both must trap once per local
interval, apply the E / C-chain rule of ``record_home_write``, and keep
the ``home_write`` / ``exclusive_home_write`` stats equal to the monitor.
"""

import numpy as np

from repro.dsm.cache import CacheEntry
from repro.dsm.wire import ObjReply

from tests.conftest import make_gos


def _home_of(gos, node=0):
    """A fresh object homed at ``node``: (engine, oid, its HomeEntry)."""
    obj = gos.alloc_array(8, home=node)
    engine = gos.engines[node]
    return engine, obj.oid, engine.homes[obj.oid]


def _write_in(engine, oid, interval):
    engine.interval = interval
    payload = engine.local_access.try_write(oid)
    assert payload is engine.homes[oid].payload
    assert oid in engine.home_dirty


def _assert_stats_equal_monitor(gos, state):
    events = gos.stats.events
    assert events["home_write"] == state.home_writes
    assert events["exclusive_home_write"] == state.exclusive_home_writes


def test_home_write_trapped_once_per_interval(backend):
    gos = make_gos()
    engine, oid, entry = _home_of(gos)
    _write_in(engine, oid, 1)
    _write_in(engine, oid, 1)
    assert entry.write_interval == 1
    assert entry.state.home_writes == 1
    _write_in(engine, oid, 2)
    assert entry.state.home_writes == 2
    _assert_stats_equal_monitor(gos, entry.state)


def test_consecutive_interval_home_writes_become_exclusive(backend):
    gos = make_gos()
    engine, oid, entry = _home_of(gos)
    _write_in(engine, oid, 1)
    assert entry.state.exclusive_home_writes == 0  # last writer unknown
    _write_in(engine, oid, 2)
    _write_in(engine, oid, 3)
    assert entry.state.exclusive_home_writes == 2
    _assert_stats_equal_monitor(gos, entry.state)


def test_home_write_breaks_the_remote_chain(backend):
    """A remote write between two home writes makes the second one not
    exclusive, and a home write zeroes the consecutive-writer chain C."""
    gos = make_gos()
    engine, oid, entry = _home_of(gos)
    _write_in(engine, oid, 1)
    entry.state.record_remote_write(2, 64)
    entry.state.record_remote_write(2, 64)
    assert entry.state.consecutive_writes == 2
    _write_in(engine, oid, 2)
    assert entry.state.exclusive_home_writes == 0
    assert entry.state.consecutive_writes == 0
    assert entry.state.consecutive_writer is None
    _assert_stats_equal_monitor(gos, entry.state)


def test_home_read_is_not_trapped(backend):
    """A home read traps nothing; a write after it in the same interval
    still traps."""
    gos = make_gos()
    engine, oid, entry = _home_of(gos)
    engine.interval = 1
    assert engine.local_access.try_read(oid) is entry.payload
    assert entry.write_interval == -1
    assert entry.state.home_writes == 0
    assert oid not in engine.home_dirty
    _write_in(engine, oid, 1)
    assert entry.state.home_writes == 1


def test_transfer_onto_a_twinned_copy_traps_once_per_interval(backend):
    """A barrier-ordered (JiaJia) transfer that replays a local write is
    that interval's one home write: the same thread's next write in the
    interval does not trap again, and the stats count it like the
    monitor."""
    gos = make_gos()
    obj = gos.alloc_array(8, home=0)
    oid = obj.oid
    old_home = gos.engines[0].homes[oid]
    engine = gos.engines[1]
    engine.interval = 3
    cached = CacheEntry(old_home.payload.copy(), old_home.version)
    engine.cache[oid] = cached
    assert engine.local_access.try_write(oid) is cached.payload
    cached.payload[0] = 7.0
    assert oid in engine.dirty

    image = np.arange(8.0)
    engine._install_home_transfer(
        ObjReply(
            oid=oid,
            request_id=None,
            version=old_home.version + 1,
            data=image,
            home=1,
            migrated=True,
            monitor=old_home.state,
        )
    )
    entry = engine.homes[oid]
    assert entry.payload is cached.payload
    assert entry.payload[0] == 7.0 and entry.payload[1] == 1.0
    assert oid in engine.home_dirty and oid not in engine.dirty
    assert entry.write_interval == 3
    assert entry.state.home_writes == 1

    _write_in(engine, oid, 3)
    assert entry.state.home_writes == 1
    _assert_stats_equal_monitor(gos, entry.state)
