"""Locks and barriers: the synchronization points where an LRC interval
closes.

:class:`SyncManager` is the manager side, shared by both protocols.  A
lock or barrier lives at one manager node: the manager queues lock
requests FIFO and hands each grant the write notices the requester has
not seen, and closes a barrier round once every party arrived, then
releases it with the merged notices — as a direct N-1 burst, or through
the k-ary relay tree of PROTOCOL.md §15.
:class:`~repro.dsm.protocol.DsmEngine` (home-based) and
:class:`~repro.dsm.homeless.HomelessEngine` (TreadMarks-style) both
inherit it, so each manager step has one code path across engines
(DESIGN.md §6 rule 15).  An engine supplies three things:

* ``NOTICE_BYTES`` — the wire size of one write notice;
* ``_round_complete(barrier_id, writers) -> new_homes`` — run when a
  barrier round closes, before any release is sent;
* ``release_fanout`` — ``None`` (the direct burst) unless it is set.

:class:`SyncMixin` is the home-based thread side; the homeless thread
side lives with its engine.  Every home-based synchronization flushes
the interval's diffs first
(:meth:`~repro.dsm.interval.IntervalMixin.flush_diffs`), so its write
notices ride on the acquire, release or arrival message; an acquire or
a barrier release then applies the notices it receives and invalidates
every cached copy (Java consistency).  Each blocking operation runs on
one generator frame (DESIGN.md §6.12).  A home-based barrier manager
may also order JiaJia-style migrations, whose new homes ride on the
release.
"""

from __future__ import annotations

from typing import Any, Generator

from repro import _kernel
from repro.cluster.message import MsgCategory, NOTICE_ENTRY_BYTES
from repro.dsm.barrier import BarrierHandle, BarrierState
from repro.dsm.locks import LockHandle, LockTable
from repro.dsm.redirection import fanout_children
from repro.dsm.wire import (
    REQUEST_BYTES,
    SYNC_BASE_BYTES,
    BarrierArriveMsg,
    BarrierReleaseMsg,
    LockAcquireMsg,
    LockGrantMsg,
    LockReleaseMsg,
)
from repro.sim.future import Future
from repro.sim.process import Delay

#: Retry-discipline lock backoff: base + U(0, jitter) microseconds.
LOCK_RETRY_BASE_US = 150.0
LOCK_RETRY_JITTER_US = 450.0

_LOCK_ACQUIRE = MsgCategory.LOCK_ACQUIRE
_LOCK_GRANT = MsgCategory.LOCK_GRANT
_LOCK_RELEASE = MsgCategory.LOCK_RELEASE
_BARRIER_ARRIVE = MsgCategory.BARRIER_ARRIVE
_BARRIER_RELEASE = MsgCategory.BARRIER_RELEASE


class SyncManager:
    """Lock and barrier managers plus the request/reply helpers: the base
    of both protocol engines (see the module docstring for what each
    engine supplies)."""

    #: Wire bytes of one write notice.
    NOTICE_BYTES = NOTICE_ENTRY_BYTES
    #: Only the home-based engine also offers ``"retry"`` (per instance).
    lock_discipline = "fifo"

    def __init__(
        self, node_id: int, sim, network, heap, stats,
        release_fanout: int | None = None,
    ):
        """Declare the state both engines share: the node's identity,
        the request/reply maps and the manager state."""
        if release_fanout is not None and release_fanout < 2:
            raise ValueError(
                f"release_fanout must be >= 2, got {release_fanout}"
            )
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.heap = heap
        self.stats = stats
        #: Barrier-release multicast fan-out (PROTOCOL.md §15): ``None``
        #: keeps the direct N-1 burst from the barrier manager; ``k``
        #: relays releases through a k-ary tree instead, bounding any
        #: single NIC's injection run at k messages.
        self.release_fanout = release_fanout
        #: Resolved kernel module (or None), cached once: the hot paths
        #: branch on it per call and must not pay re-resolution.
        self._kernel = kernel_module = _kernel.kernel()
        #: Hot-path Future class: the C twin when compiled (request/reply
        #: round trips create tens of thousands per run), else the
        #: pure-Python reference.  Interchangeable by contract.  Labels on
        #: these futures are static kind strings — per-call f-strings cost
        #: more than the futures themselves at this volume.
        self._Future = (
            kernel_module.Future if kernel_module is not None else Future
        )
        self.lock_table = LockTable()
        self.barriers: dict[int, BarrierState] = {}
        #: Request id -> future of every outstanding request/reply round
        #: trip: request ids are unique per node, so one map serves every
        #: reply category.
        self._reply_waiters: dict[tuple[int, int], Any] = {}
        #: The dispatch entry of every reply category: the kernel's C
        #: twin of :meth:`_resolve_reply` over the same waiter dict
        #: (never rebound) when compiled.
        self._reply_route = (
            kernel_module.ReplyRouter(self._reply_waiters)
            if kernel_module is not None
            else self._resolve_reply
        )
        self._barrier_waiters: dict[tuple[int, int], list] = {}
        self._req_counter = 0

    # -- request/reply helpers ----------------------------------------------

    def _next_request_id(self) -> tuple[int, int]:
        self._req_counter += 1
        return (self.node_id, self._req_counter)

    def _bind_sender(self, sender: Any) -> None:
        """Install the network's per-node send callable as this engine's
        ``_send`` (``(dst, category, size_bytes, payload)``; the node id
        is pre-bound)."""
        self._send = sender

    def _resolve_reply(self, payload: Any) -> None:
        self._reply_waiters.pop(payload.request_id).resolve(payload)

    # -- locks ----------------------------------------------------------------

    def _handle_lock_acquire(self, msg: LockAcquireMsg) -> None:
        lock_id = msg.lock_id
        fifo = self.lock_discipline == "fifo"
        notices = self.lock_table.acquire(
            lock_id, msg.requester, msg.request_id if fifo else None,
            msg.notices,
        )
        if notices is None:
            if not fifo:  # retry discipline: refuse a busy lock
                self._send(
                    msg.requester,
                    _LOCK_GRANT,
                    SYNC_BASE_BYTES,
                    LockGrantMsg(lock_id, msg.request_id, {}, True),
                )
            return  # queued; the grant is sent when the holder releases
        self._send(
            msg.requester,
            _LOCK_GRANT,
            SYNC_BASE_BYTES + self.NOTICE_BYTES * len(notices),
            LockGrantMsg(lock_id, msg.request_id, notices),
        )

    def _manager_release(self, msg: LockReleaseMsg) -> None:
        """Lock manager: record a release (local or LOCK_RELEASE) and hand
        the lock to the next FIFO waiter, if any."""
        lock_id = msg.lock_id
        handed = self.lock_table.release(lock_id, msg.releaser, msg.notices)
        if handed is None:
            return
        (waiter, request_id), grant = handed
        if waiter == self.node_id:
            self._reply_waiters.pop(request_id).resolve(
                LockGrantMsg(lock_id, request_id, grant)
            )
        else:
            self._send(
                waiter,
                _LOCK_GRANT,
                SYNC_BASE_BYTES + self.NOTICE_BYTES * len(grant),
                LockGrantMsg(lock_id, request_id, grant),
            )

    # -- barriers -------------------------------------------------------------

    def register_barrier(self, handle: BarrierHandle) -> None:
        """Install manager state for a barrier homed at this node."""
        if handle.home != self.node_id:
            raise ValueError(
                f"barrier {handle.barrier_id} homed at {handle.home}, "
                f"not {self.node_id}"
            )
        self.barriers[handle.barrier_id] = BarrierState(handle)

    def _manager_barrier_arrive(self, msg: BarrierArriveMsg) -> None:
        state = self.barriers[msg.barrier_id]
        complete = state.arrive(msg.node, msg.notices, msg.round_no)
        if not complete:
            return
        round_no, merged, writers = state.complete_round()
        self.stats.events["barrier_round"] += 1
        new_homes = self._round_complete(msg.barrier_id, writers)
        release = BarrierReleaseMsg(
            msg.barrier_id, round_no, merged, new_homes
        )
        # One release object — with its one merged-notices snapshot — is
        # shared by every copy of the fan-out; receivers only read it.
        if self.release_fanout is not None:
            # the manager is the relay root: _on_barrier_release forwards
            release.root = self.node_id
            release.fanout = self.release_fanout
        else:
            size = (
                SYNC_BASE_BYTES
                + self.NOTICE_BYTES * len(merged)
                + REQUEST_BYTES * len(new_homes)
            )
            for dst in range(self.network.nnodes):
                if dst == self.node_id:
                    continue
                self._send(dst, _BARRIER_RELEASE, size, release)
        self._on_barrier_release(release)

    def _on_barrier_release(self, release: BarrierReleaseMsg) -> None:
        """Relay a multicast release to this node's tree children, then
        wake this node's waiters for the round.

        Every non-root node receives exactly one copy (N-1 messages
        total, like the direct burst) but no NIC injects more than
        ``fanout`` back to back, so the release reaches the whole
        cluster in O(log_k N) serialization depth instead of O(N).
        Leaves — heap index ``v`` with ``k*v + 1 >= N``, see
        :func:`~repro.dsm.redirection.fanout_children` — have no children,
        so only inner nodes size the message and walk the tree.
        """
        fanout = release.fanout
        if fanout:
            nnodes = self.network.nnodes
            root = release.root
            if fanout * ((self.node_id - root) % nnodes) + 1 < nnodes:
                size = (
                    SYNC_BASE_BYTES
                    + self.NOTICE_BYTES * len(release.notices)
                    + REQUEST_BYTES * len(release.new_homes)
                )
                for dst in fanout_children(self.node_id, root, fanout, nnodes):
                    self._send(dst, _BARRIER_RELEASE, size, release)
        for fut in self._barrier_waiters.pop(
            (release.barrier_id, release.round_no), ()
        ):
            fut.resolve(release)


class SyncMixin:
    """Home-based thread-side lock and barrier operations (a mixin of
    :class:`~repro.dsm.protocol.DsmEngine`; state is declared in its
    constructor)."""

    # -- locks ------------------------------------------------------------

    def acquire(self, handle: LockHandle) -> Generator[Any, Any, None]:
        """Acquire a distributed lock; applies piggybacked write notices.

        Acquiring closes the current interval: pending diffs are flushed
        first (so every synchronized update propagates separately — the
        GOS reflects remote writes at each synchronization point), and the
        interval's notices ride on the acquire message.  The whole FIFO
        hand-off runs in this one generator frame.
        """
        self.stats.events["lock_acquire"] += 1
        node = self.node_id
        lock_id = handle.lock_id
        sp = self._sp
        op = None
        if sp is not None:
            op = sp.open(
                "lock_acquire", self.sim.now, lock_id, node, home=handle.home
            )
        if self.dirty:
            own_notices = yield from self.flush_diffs(op)
        elif self.home_dirty or self.carry_notices:
            own_notices = self._home_notices({})
        else:
            own_notices = {}
        if self.lock_discipline == "retry":
            notices = yield from self._acquire_retry(handle, own_notices)
        else:
            self._req_counter += 1
            request_id = (node, self._req_counter)
            if handle.home != node:
                fut = self._Future("lock")
                self._reply_waiters[request_id] = fut
                self._send(
                    handle.home,
                    _LOCK_ACQUIRE,
                    SYNC_BASE_BYTES + NOTICE_ENTRY_BYTES * len(own_notices),
                    LockAcquireMsg(lock_id, node, request_id, own_notices),
                )
                notices = (yield fut).notices
            else:
                notices = self.lock_table.acquire(
                    lock_id, node, request_id, own_notices
                )
                if notices is None:
                    fut = self._Future("lock")
                    self._reply_waiters[request_id] = fut
                    notices = (yield fut).notices
        # apply_notices, inline: the grant raises the fault-in floors
        required = self.required_version
        for oid, version in notices.items():
            if version > required.get(oid, 0):
                required[oid] = version
        self.invalidate_all_cached()
        self.interval += 1
        if sp is not None:
            sp.close(op, "lock_acquire", self.sim.now, lock_id, node)

    def _acquire_retry(
        self, handle: LockHandle, own_notices: dict[int, int]
    ) -> Generator[Any, Any, dict[int, int]]:
        """Retry discipline: no wait queue — a busy lock is re-tried after
        a seeded random backoff.  Models the paper's runtime, where the
        releasing thread can win the lock again ("the actual consecutive
        writing times could be a multiple of r ... randomly at runtime")."""
        send_notices = own_notices
        while True:
            request_id = self._next_request_id()
            if handle.home == self.node_id:
                # no request id: a busy lock refuses instead of queueing
                grant = self.lock_table.acquire(
                    handle.lock_id, self.node_id, None, send_notices
                )
                if grant is not None:
                    return grant
            else:
                fut = self._Future("lock")
                self._reply_waiters[request_id] = fut
                self._send(
                    handle.home,
                    _LOCK_ACQUIRE,
                    SYNC_BASE_BYTES + NOTICE_ENTRY_BYTES * len(send_notices),
                    LockAcquireMsg(
                        handle.lock_id, self.node_id, request_id, send_notices
                    ),
                )
                grant: LockGrantMsg = yield fut
                if not grant.busy:
                    return grant.notices
            send_notices = {}  # notices were delivered on the first try
            yield Delay(
                LOCK_RETRY_BASE_US
                + self._rng.uniform(0.0, LOCK_RETRY_JITTER_US)
            )

    def release(self, handle: LockHandle) -> Generator[Any, Any, None]:
        """Flush this interval's diffs, then release the lock with notices."""
        node = self.node_id
        lock_id = handle.lock_id
        sp = self._sp
        op = None
        if sp is not None:
            op = sp.open(
                "lock_release", self.sim.now, lock_id, node, home=handle.home
            )
        if self.dirty:
            notices = yield from self.flush_diffs(op)
        elif self.home_dirty or self.carry_notices:
            notices = self._home_notices({})
        else:
            notices = {}
        msg = LockReleaseMsg(lock_id, node, notices)
        if handle.home == node:
            self._manager_release(msg)
        else:
            self._send(
                handle.home,
                _LOCK_RELEASE,
                SYNC_BASE_BYTES + NOTICE_ENTRY_BYTES * len(notices),
                msg,
            )
        if sp is not None:
            sp.close(op, "lock_release", self.sim.now, lock_id, node)

    # -- barriers ---------------------------------------------------------

    def barrier(
        self, handle: BarrierHandle, round_no: int
    ) -> Generator[Any, Any, None]:
        """One barrier round: flush diffs, arrive, wait for the release."""
        sp = self._sp
        op = None
        if sp is not None:
            op = sp.open(
                "barrier_wait",
                self.sim.now,
                handle.barrier_id,
                self.node_id,
                round=round_no,
            )
        if self.dirty:
            notices = yield from self.flush_diffs(op)
        elif self.home_dirty or self.carry_notices:
            notices = self._home_notices({})
        else:
            notices = {}
        fut = self._Future("barrier")
        self._barrier_waiters.setdefault(
            (handle.barrier_id, round_no), []
        ).append(fut)
        arrive = BarrierArriveMsg(
            handle.barrier_id, self.node_id, round_no, notices
        )
        if handle.home == self.node_id:
            self._manager_barrier_arrive(arrive)
        else:
            self._send(
                handle.home,
                _BARRIER_ARRIVE,
                SYNC_BASE_BYTES + NOTICE_ENTRY_BYTES * len(notices),
                arrive,
            )
        release: BarrierReleaseMsg = yield fut
        # With barrier-epoch GC on, merging the release's notices into
        # required_version is a provable no-op: collect_garbage (called
        # synchronously below, nothing observes the floors in between)
        # prunes exactly the floors at or below the released versions,
        # and every merged floor is by construction == its released
        # version.  Skipping the merge leaves required_version
        # bit-identical and removes an O(#notices) sweep per node per
        # epoch — the difference between O(N^2) and O(N^3) total work
        # for N-node barrier apps.  With GC off the floors accumulate
        # (that is the memory-ablation leg), so merge as before.
        if not self.gc_enabled:
            self.apply_notices(release.notices)
        self.home_hint.update(release.new_homes)
        self.invalidate_all_cached()
        self.interval += 1
        if self.gc_enabled:
            self.collect_garbage(release.notices, handle.barrier_id)
        if sp is not None:
            sp.close(
                op,
                "barrier_wait",
                self.sim.now,
                handle.barrier_id,
                self.node_id,
                round=round_no,
            )

    def _round_complete(
        self, barrier_id: int, writers: dict[int, set[int]]
    ) -> dict[int, int]:
        """Barrier manager hook (:class:`SyncManager`): mark the round's
        close on the trace stream, then order any JiaJia barrier
        migrations, whose new homes ride on the release."""
        if self._tr_barrier_epoch:
            self.tracer.record(
                "barrier_epoch",
                self.sim.now,
                barrier_id,
                self.node_id,
                role="manager",
            )
        if self.policy.wants_barrier_migration():
            return self._order_barrier_migrations(writers)
        return {}
