"""Distributed locks with LRC write-notice piggybacking.

Each lock has a fixed *home* (manager) node.  The manager keeps the lock's
holder, a FIFO wait queue, and the accumulated write notices of every
release of this lock — lazy release consistency: the notices travel to the
next acquirer on the grant message, which then invalidates its stale
cached copies.

Grant notices are sent *incrementally*: the manager remembers how much of
its notice history each node has already seen for this lock and sends only
newer entries, so grant sizes stay proportional to actual recent writes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class LockHandle:
    """Application-facing lock identity: id + manager (home) node."""

    lock_id: int
    home: int

    def __post_init__(self) -> None:
        if self.lock_id < 0 or self.home < 0:
            raise ValueError(f"invalid lock handle ({self.lock_id}, {self.home})")


@dataclass(slots=True)
class _Waiter:
    node: int
    request_id: tuple[int, int]


@dataclass(slots=True)
class LockState:
    """Manager-side state of one lock."""

    lock_id: int
    holder: int | None = None  # node id currently holding the lock
    queue: deque = field(default_factory=deque)
    #: Accumulated notice map oid -> max version, in arrival order.
    notices: dict[int, int] = field(default_factory=dict)
    #: Monotone counter of notice updates, for incremental grants.
    notice_epoch: int = 0
    #: Epoch each (oid) entry was last bumped at.
    _entry_epoch: dict[int, int] = field(default_factory=dict)
    #: Last epoch each node has been brought up to.
    _node_epoch: dict[int, int] = field(default_factory=dict)


class LockTable:
    """All locks managed at one node."""

    def __init__(self) -> None:
        self._locks: dict[int, LockState] = {}

    def state(self, lock_id: int) -> LockState:
        lock = self._locks.get(lock_id)
        if lock is None:
            lock = self._locks[lock_id] = LockState(lock_id)
        return lock

    def try_acquire(
        self, lock_id: int, node: int, request_id: tuple[int, int]
    ) -> bool:
        """Grant immediately if free, else enqueue.  True if granted now."""
        lock = self.state(lock_id)
        if lock.holder is None:
            lock.holder = node
            return True
        lock.queue.append(_Waiter(node, request_id))
        return False

    def release(
        self, lock_id: int, node: int, notices: dict[int, int]
    ) -> _Waiter | None:
        """Record the release (+its notices); return the next waiter if any.

        The caller is responsible for sending the grant to the returned
        waiter; this method already marks it as the new holder.
        """
        lock = self.state(lock_id)
        if lock.holder != node:
            raise RuntimeError(
                f"lock {lock_id} released by node {node} but held by "
                f"{lock.holder}"
            )
        self.add_notices(lock_id, notices)
        if lock.queue:
            waiter = lock.queue.popleft()
            lock.holder = waiter.node
            return waiter
        lock.holder = None
        return None

    def add_notices(self, lock_id: int, notices: dict[int, int]) -> None:
        """Fold a release's notices into the lock's accumulated map."""
        if not notices:
            return
        lock = self.state(lock_id)
        lock.notice_epoch += 1
        epoch = lock.notice_epoch
        accumulated = lock.notices
        entry_epoch = lock._entry_epoch
        for oid, version in notices.items():
            if accumulated.get(oid, 0) < version:
                accumulated[oid] = version
                entry_epoch[oid] = epoch

    def grant_notices(self, lock_id: int, node: int) -> dict[int, int]:
        """Notices ``node`` has not seen yet for this lock; marks them seen."""
        lock = self.state(lock_id)
        seen = lock._node_epoch.get(node, 0)
        fresh = {
            oid: lock.notices[oid]
            for oid, epoch in lock._entry_epoch.items()
            if epoch > seen
        }
        lock._node_epoch[node] = lock.notice_epoch
        return fresh
