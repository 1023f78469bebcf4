"""Tests for home-side entries and interval-based access trapping."""

import numpy as np

from repro.core.state import ObjectAccessState
from repro.dsm.home import HomeEntry


def make_home():
    return HomeEntry(
        payload=np.zeros(8),
        version=0,
        state=ObjectAccessState(oid=1, object_bytes=64),
    )


def test_home_read_trapped_once_per_interval():
    entry = make_home()
    assert entry.trap_home_read(interval=1)
    assert not entry.trap_home_read(interval=1)
    assert entry.trap_home_read(interval=2)
    assert entry.state.home_reads == 2


def test_home_write_trapped_once_per_interval():
    entry = make_home()
    trapped, exclusive = entry.trap_home_write(interval=1)
    assert trapped and not exclusive
    trapped, _ = entry.trap_home_write(interval=1)
    assert not trapped
    assert entry.state.home_writes == 1


def test_consecutive_interval_home_writes_become_exclusive():
    entry = make_home()
    _, exclusive1 = entry.trap_home_write(interval=1)
    _, exclusive2 = entry.trap_home_write(interval=2)
    assert not exclusive1
    assert exclusive2
    assert entry.state.exclusive_home_writes == 1


def test_reads_and_writes_trap_independently():
    entry = make_home()
    assert entry.trap_home_read(1)
    trapped, _ = entry.trap_home_write(1)
    assert trapped

