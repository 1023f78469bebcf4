"""Tests for the lock manager table: its two steps, ``acquire`` and
``release``."""

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
    assert table.acquire(1, node=2, request_id=(2, 1), notices={}) == {}
    assert table.locks[1].holder == 2


def test_contention_queues_fifo():
    table = LockTable()
    assert table.acquire(1, 2, (2, 1), {}) == {}
    assert table.acquire(1, 3, (3, 1), {}) is None
    assert table.acquire(1, 4, (4, 1), {}) is None
    assert [waiter for waiter in table.locks[1].queue] == [(3, (3, 1)), (4, (4, 1))]
    # each release hands the lock to the oldest waiter, with its grant
    assert table.release(1, 2, notices={}) == ((3, (3, 1)), {})
    assert table.locks[1].holder == 3
    assert table.release(1, 3, notices={}) == ((4, (4, 1)), {})
    assert table.locks[1].holder == 4


def test_release_empty_queue_frees_lock():
    table = LockTable()
    table.acquire(1, 2, (2, 1), {})
    assert table.release(1, 2, notices={}) is None
    assert table.locks[1].holder is None
    assert table.acquire(1, 5, (5, 1), {}) == {}


def test_release_by_non_holder_rejected():
    table = LockTable()
    table.acquire(1, 2, (2, 1), {})
    with pytest.raises(RuntimeError) as held:
        table.release(1, 3, notices={})
    assert str(held.value) == "lock 1 released by node 3 but held by 2"
    # a lock never acquired: the same message, and no state is created
    with pytest.raises(RuntimeError) as unknown:
        table.release(9, 3, notices={5: 1})
    assert str(unknown.value) == "lock 9 released by node 3 but held by None"
    assert 9 not in table.locks


def test_notices_accumulate_max_version():
    table = LockTable()
    table.acquire(1, 0, (0, 1), {10: 2})
    table.release(1, 0, {10: 1, 11: 4})
    assert table.locks[1].notices == {10: 2, 11: 4}


def test_grant_notices_incremental():
    table = LockTable()
    assert table.acquire(1, 5, (5, 1), {10: 1}) == {10: 1}
    table.release(1, 5, {})
    # nothing new: a second grant to the same node is empty
    assert table.acquire(1, 5, (5, 2), {}) == {}
    table.release(1, 5, {10: 3, 12: 1})
    assert table.acquire(1, 7, (7, 1), {}) == {10: 3, 12: 1}
    table.release(1, 7, {})
    assert table.acquire(1, 5, (5, 3), {}) == {10: 3, 12: 1}


def test_grant_notices_fresh_node_sees_history():
    table = LockTable()
    table.acquire(1, 0, (0, 1), {10: 1})
    table.release(1, 0, {11: 2})
    assert table.acquire(1, 9, (9, 1), {}) == {10: 1, 11: 2}


def test_locks_are_independent():
    table = LockTable()
    assert table.acquire(1, 2, (2, 1), {10: 1}) == {10: 1}
    assert table.acquire(2, 5, (5, 1), {}) == {}
    assert table.acquire(2, 3, (3, 1), {}) is None
    assert table.locks[1].holder == 2 and table.locks[2].holder == 5


def test_retry_refusal_folds_notices_without_queueing():
    """A ``None`` request id refuses a busy lock instead of queueing it,
    but the refused acquire's notices still reach the lock."""
    table = LockTable()
    table.acquire(1, 2, (2, 1), {})
    assert table.acquire(1, 3, None, {10: 4}) is None
    assert not table.locks[1].queue
    assert table.locks[1].notices == {10: 4}
    assert table.release(1, 2, {}) is None
    assert table.acquire(1, 3, None, {}) == {10: 4}


def test_add_notices_epoch_bookkeeping_on_scripted_releases():
    """Pins which entries each release bumps (and in which order grants
    list them): a notice raises an entry's epoch only when it raises the
    accumulated floor; a stale or equal notice leaves the entry where it
    was, so nodes that already saw it are not sent it again.  The notice
    dict keeps first-insertion order."""
    table = LockTable()
    assert table.acquire(7, 0, (0, 1), {}) == {}
    lock = table.locks[7]
    for node in (1, 2, 3):
        assert table.acquire(7, node, (node, 1), {}) is None

    # release 1 — two new entries
    waiter, grant = table.release(7, 0, {10: 1, 11: 1})
    assert waiter == (1, (1, 1))
    assert list(grant.items()) == [(10, 1), (11, 1)]
    # release 2 — 10 raised, 11 re-announced at its floor, 12 new
    waiter, grant = table.release(7, 1, {11: 1, 10: 3, 12: 2})
    assert waiter == (2, (2, 1))
    assert lock._entry_epoch == {10: 2, 11: 1, 12: 2}
    # node 2 never saw anything: whole history, first-announcement order
    assert list(grant.items()) == [(10, 3), (11, 1), (12, 2)]
    # release 3 — every notice stale or equal: the epoch still advances,
    # no entry moves
    waiter, grant = table.release(7, 2, {10: 2, 12: 2})
    assert waiter == (3, (3, 1))
    assert lock.notice_epoch == 3
    assert lock._entry_epoch == {10: 2, 11: 1, 12: 2}
    assert list(lock.notices.items()) == [(10, 3), (11, 1), (12, 2)]
    assert grant == {10: 3, 11: 1, 12: 2}
    # empty release: no epoch at all
    assert table.release(7, 3, {}) is None
    assert lock.notice_epoch == 3
    # node 1 was brought up to epoch 1: it is owed only what release 2
    # raised, and afterwards nothing
    assert list(table.acquire(7, 1, (1, 2), {}).items()) == [(10, 3), (12, 2)]
    assert table.release(7, 1, {}) is None
    assert table.acquire(7, 1, (1, 3), {}) == {}
    # release 4 — 11 finally raised: only it is fresh for nodes 1 and 2
    assert table.acquire(7, 2, (2, 2), {}) is None
    waiter, grant = table.release(7, 1, {11: 5, 10: 3})
    assert lock._entry_epoch == {10: 2, 11: 4, 12: 2}
    assert waiter == (2, (2, 2)) and grant == {11: 5}
    assert table.release(7, 2, {}) is None
    assert table.acquire(7, 1, (1, 4), {}) == {11: 5}
