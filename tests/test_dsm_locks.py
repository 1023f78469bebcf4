"""Tests for the lock manager table."""

import pytest

from repro.dsm.locks import LockHandle, LockTable


def test_handle_validation():
    LockHandle(lock_id=1, home=0)
    with pytest.raises(ValueError):
        LockHandle(lock_id=-1, home=0)
    with pytest.raises(ValueError):
        LockHandle(lock_id=1, home=-2)


def test_acquire_free_lock():
    table = LockTable()
    assert table.try_acquire(1, node=2, request_id=(2, 1))
    assert table.state(1).holder == 2


def test_contention_queues_fifo():
    table = LockTable()
    assert table.try_acquire(1, 2, (2, 1))
    assert not table.try_acquire(1, 3, (3, 1))
    assert not table.try_acquire(1, 4, (4, 1))
    waiter = table.release(1, 2, notices={})
    assert waiter.node == 3
    assert table.state(1).holder == 3
    waiter = table.release(1, 3, notices={})
    assert waiter.node == 4


def test_release_empty_queue_frees_lock():
    table = LockTable()
    table.try_acquire(1, 2, (2, 1))
    assert table.release(1, 2, notices={}) is None
    assert table.state(1).holder is None
    assert table.try_acquire(1, 5, (5, 1))


def test_release_by_non_holder_rejected():
    table = LockTable()
    table.try_acquire(1, 2, (2, 1))
    with pytest.raises(RuntimeError):
        table.release(1, 3, notices={})


def test_notices_accumulate_max_version():
    table = LockTable()
    table.add_notices(1, {10: 2})
    table.add_notices(1, {10: 1, 11: 4})
    assert table.state(1).notices == {10: 2, 11: 4}


def test_grant_notices_incremental():
    table = LockTable()
    table.add_notices(1, {10: 1})
    first = table.grant_notices(1, node=5)
    assert first == {10: 1}
    # nothing new: next grant to the same node is empty
    assert table.grant_notices(1, node=5) == {}
    table.add_notices(1, {10: 3, 12: 1})
    assert table.grant_notices(1, node=5) == {10: 3, 12: 1}


def test_grant_notices_fresh_node_sees_history():
    table = LockTable()
    table.add_notices(1, {10: 1})
    table.add_notices(1, {11: 2})
    assert table.grant_notices(1, node=9) == {10: 1, 11: 2}


def test_locks_are_independent():
    table = LockTable()
    table.add_notices(1, {10: 1})
    assert table.grant_notices(2, node=5) == {}
    assert table.try_acquire(1, 2, (2, 1))
    assert table.try_acquire(2, 3, (3, 1))


def test_add_notices_epoch_bookkeeping_on_scripted_releases():
    """Pins which entries each release bumps (and in which order grants
    list them): a notice raises an entry's epoch only when it raises the
    accumulated floor; a stale or equal notice leaves the entry where it
    was, so nodes that already saw it are not sent it again."""
    table = LockTable()
    lock = table.state(7)
    assert table.try_acquire(7, 0, (0, 1))
    for node in (1, 2, 3):
        assert not table.try_acquire(7, node, (node, 1))

    # release 1 — two new entries
    assert table.release(7, 0, {10: 1, 11: 1}).node == 1
    assert list(table.grant_notices(7, 1).items()) == [(10, 1), (11, 1)]
    # release 2 — 10 raised, 11 re-announced at its floor, 12 new
    assert table.release(7, 1, {11: 1, 10: 3, 12: 2}).node == 2
    assert lock._entry_epoch == {10: 2, 11: 1, 12: 2}
    # node 2 never saw anything: whole history, first-announcement order
    assert list(table.grant_notices(7, 2).items()) == [
        (10, 3), (11, 1), (12, 2),
    ]
    # release 3 — every notice stale or equal: the epoch still advances,
    # no entry moves
    assert table.release(7, 2, {10: 2, 12: 2}).node == 3
    assert lock.notice_epoch == 3
    assert lock._entry_epoch == {10: 2, 11: 1, 12: 2}
    assert lock.notices == {10: 3, 11: 1, 12: 2}
    assert table.grant_notices(7, 3) == {10: 3, 11: 1, 12: 2}
    # empty release: no epoch at all
    assert table.release(7, 3, {}) is None
    assert lock.notice_epoch == 3
    # node 1 was brought up to epoch 1: it is owed only what release 2
    # raised, and afterwards nothing
    assert table.grant_notices(7, 1) == {10: 3, 12: 2}
    assert table.grant_notices(7, 1) == {}
    # release 4 — 11 finally raised: only it is fresh for nodes 1 and 2
    table.add_notices(7, {11: 5, 10: 3})
    assert lock._entry_epoch == {10: 2, 11: 4, 12: 2}
    assert table.grant_notices(7, 1) == {11: 5}
    assert table.grant_notices(7, 2) == {11: 5}
