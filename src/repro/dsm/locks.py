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
class LockState:
    """Manager-side state of one lock."""

    lock_id: int
    holder: int | None = None  # node id currently holding the lock
    #: FIFO of waiting ``(node, request_id)`` pairs.
    queue: deque = field(default_factory=deque)
    #: Accumulated notice map oid -> max version, in first-insertion order.
    notices: dict[int, int] = field(default_factory=dict)
    #: Monotone counter of notice updates, for incremental grants.
    notice_epoch: int = 0
    #: Epoch each (oid) entry was last bumped at.
    _entry_epoch: dict[int, int] = field(default_factory=dict)
    #: Last epoch each node has been brought up to.
    _node_epoch: dict[int, int] = field(default_factory=dict)


class LockTable:
    """All locks managed at one node: two manager steps, :meth:`acquire`
    and :meth:`release`.

    Each step folds the message's notices into the lock's accumulated
    map (a non-empty fold opens a new notice epoch; an entry's epoch
    moves only when its version rises) and computes the grant — the
    entries bumped since the grantee was last brought up to date, in
    first-insertion order — in its own loop, so a lock hand-off costs
    one Python frame at the manager.
    """

    def __init__(self) -> None:
        #: lock id -> state, created by a lock's first acquire.
        self.locks: dict[int, LockState] = {}

    def acquire(
        self,
        lock_id: int,
        node: int,
        request_id: tuple[int, int] | None,
        notices: dict[int, int],
    ) -> dict[int, int] | None:
        """Fold an acquire's notices; grant the lock if it is free.

        Returns the notices ``node`` has not seen yet (and makes it the
        holder), or ``None`` when the lock is held: the request then
        waits in FIFO order — unless ``request_id`` is ``None``, which
        refuses it instead (the retry discipline).
        """
        lock = self.locks.get(lock_id)
        if lock is None:
            lock = self.locks[lock_id] = LockState(lock_id)
        if notices:
            lock.notice_epoch = epoch = lock.notice_epoch + 1
            accumulated = lock.notices
            entry_epoch = lock._entry_epoch
            for oid, version in notices.items():
                if accumulated.get(oid, 0) < version:
                    accumulated[oid] = version
                    entry_epoch[oid] = epoch
        if lock.holder is not None:
            if request_id is not None:
                lock.queue.append((node, request_id))
            return None
        lock.holder = node
        fresh: dict[int, int] = {}
        epoch = lock.notice_epoch
        node_epoch = lock._node_epoch
        seen = node_epoch.get(node, 0)
        if seen < epoch:
            accumulated = lock.notices
            for oid, bumped in lock._entry_epoch.items():
                if bumped > seen:
                    fresh[oid] = accumulated[oid]
            node_epoch[node] = epoch
        return fresh

    def release(
        self, lock_id: int, node: int, notices: dict[int, int]
    ) -> tuple[tuple[int, tuple[int, int]], dict[int, int]] | None:
        """Fold a release's notices and hand the lock on.

        Returns ``(waiter, grant)`` — the next FIFO ``(node,
        request_id)``, already the holder, and the notices it has not
        seen yet — or ``None`` when nobody waits and the lock is free.
        The caller sends the grant.
        """
        lock = self.locks.get(lock_id)
        holder = None if lock is None else lock.holder
        if holder != node:
            raise RuntimeError(
                f"lock {lock_id} released by node {node} but held by {holder}"
            )
        if notices:
            lock.notice_epoch = epoch = lock.notice_epoch + 1
            accumulated = lock.notices
            entry_epoch = lock._entry_epoch
            for oid, version in notices.items():
                if accumulated.get(oid, 0) < version:
                    accumulated[oid] = version
                    entry_epoch[oid] = epoch
        if not lock.queue:
            lock.holder = None
            return None
        waiter = lock.queue.popleft()
        lock.holder = grantee = waiter[0]
        fresh: dict[int, int] = {}
        epoch = lock.notice_epoch
        node_epoch = lock._node_epoch
        seen = node_epoch.get(grantee, 0)
        if seen < epoch:
            accumulated = lock.notices
            for oid, bumped in lock._entry_epoch.items():
                if bumped > seen:
                    fresh[oid] = accumulated[oid]
            node_epoch[grantee] = epoch
        return waiter, fresh
