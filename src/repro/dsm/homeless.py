"""Homeless (TreadMarks-style) LRC baseline.

The paper's §1 motivates home-based protocols by the weaknesses of the
homeless multiple-writer protocol: to serve a fault, the faulting process
must fetch diffs *from every process that updated the unit* (multiple
round trips), every diff is applied once per fetching process, and diffs
accumulate in memory until a global garbage collection.

:class:`HomelessEngine` implements that protocol on the same simulator,
wire messages and network delivery ports as the home-based protocol,
and with the same lock and barrier managers
(:class:`~repro.dsm.sync.SyncManager`).  What differs:

* there are no homes — every node lazily materialises the initial image
  (as TreadMarks processes do at startup) and keeps it coherent by
  fetching *diffs*, not objects;
* a writer's diffs stay local at flush time (no diff propagation
  messages); the write notice ``(oid, writer, seq)`` travels with the
  synchronization operation;
* on an access fault, the faulting node requests the unseen diff ranges
  from each writer named by its notices — one round trip per writer —
  and applies them in causal (flush-timestamp) order;
* the cumulative bytes of diffs retained at writers is tracked in the
  ``homeless_diff_bytes`` statistic: the memory-consumption cost the
  paper cites (we never garbage-collect, as TreadMarks between GCs).

Invalidation is notice-driven (true TreadMarks behaviour): a cached copy
stays valid across synchronizations until a write notice names it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

import numpy as np

from repro.cluster.message import MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.dsm.barrier import BarrierHandle
from repro.dsm.cache import AccessMode
from repro.dsm.locks import LockHandle
from repro.dsm.sync import SyncManager
from repro.dsm.wire import (
    REQUEST_BYTES,
    SYNC_BASE_BYTES,
    BarrierArriveMsg,
    BarrierReleaseMsg,
    LockAcquireMsg,
    LockGrantMsg,
    LockReleaseMsg,
)
from repro.memory.arena import Arena, new_arena
from repro.memory.diff import Diff, apply_diff, compute_diff
from repro.memory.heap import ObjectHeap
from repro.memory.twin import make_twin
from repro.sim.engine import Simulator
from repro.sim.future import Future


@dataclass(slots=True)
class _StampedDiff:
    seq: int
    stamp: float  # flush simulated time: causal order for serialized writes
    diff: Diff


@dataclass(slots=True)
class _Replica:
    payload: np.ndarray
    mode: AccessMode = AccessMode.READ
    twin: np.ndarray | None = None
    #: writer -> highest seq applied into payload.
    applied: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class DiffRequest:
    oid: int
    writer_seq_from: int
    requester: int
    request_id: tuple[int, int]


@dataclass(slots=True)
class DiffReply:
    request_id: tuple[int, int]
    diffs: list[_StampedDiff]


@dataclass(slots=True)
class _GcTraffic:
    """Inert accounting message: the bytes a global diff GC moves.

    The GC's state changes happen at the barrier safe point (see
    HomelessObjectSpace.gc); these messages charge its communication cost
    to the network model."""

    phase: str  # "contribute" or "rebase"

    @staticmethod
    def on_arrival(traffic: "_GcTraffic") -> None:
        """Arrival handler: nothing to do, the GC already ran."""


class HomelessEngine(SyncManager):
    """TreadMarks-style LRC protocol instance on one node.

    Notices are ``(oid, writer) -> seq`` maps; ``required`` accumulates
    the highest seq this node must have applied before reading an object.
    """

    #: One homeless write notice: oid + writer + seq.
    NOTICE_BYTES = 16

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        heap: ObjectHeap,
        stats: ClusterStats,
        arena: Arena | None = None,
        release_fanout: int | None = None,
    ):
        super().__init__(node_id, sim, network, heap, stats, release_fanout)
        #: Pooled payload/twin storage (same discipline as DsmEngine;
        #: replica payloads and twins are strictly node-local here, so
        #: no cross-arena traffic exists at all).
        self.arena: Arena = arena if arena is not None else new_arena()
        self.replicas: dict[int, _Replica] = {}
        #: Our own diff history per object (retained for remote fetches).
        self.history: dict[int, list[_StampedDiff]] = {}
        #: Bytes of diffs currently retained (zeroed by a global GC).
        self.retained_bytes: int = 0
        #: Space-installed hook run by the barrier manager at round
        #: completion — the global GC's safe point.
        self.on_barrier_complete = None
        self._own_seq: dict[int, int] = {}
        self.dirty: set[int] = set()
        #: (oid, writer) -> seq this node must reach before reading.
        self.required: dict[tuple[int, int], int] = {}
        network.register_fast_dispatch(
            node_id,
            {
                MsgCategory.OBJ_REQUEST: self._handle_diff_request,
                MsgCategory.OBJ_REPLY: self._reply_route,
                MsgCategory.LOCK_ACQUIRE: self._handle_lock_acquire,
                MsgCategory.LOCK_GRANT: self._reply_route,
                MsgCategory.LOCK_RELEASE: self._manager_release,
                MsgCategory.BARRIER_ARRIVE: self._manager_barrier_arrive,
                MsgCategory.BARRIER_RELEASE: self._on_barrier_release,
                MsgCategory.CONTROL: _GcTraffic.on_arrival,
            },
            self._bind_sender,
        )

    # -- helpers -----------------------------------------------------------

    def install_initial_home(self, oid: int) -> None:
        """No homes: every node materialises the initial image lazily."""

    def _replica(self, oid: int) -> _Replica:
        replica = self.replicas.get(oid)
        if replica is None:
            # materialise the initial image locally, as TreadMarks
            # processes share identical initial pages
            payload = self.heap.get(oid).new_payload(self.arena)
            initial = getattr(self.heap, "initial_values", {}).get(oid)
            if initial is not None:
                payload[:] = initial
            replica = _Replica(payload=payload)
            self.replicas[oid] = replica
        return replica

    def _notice_size(self, notices: dict) -> int:
        return SYNC_BASE_BYTES + self.NOTICE_BYTES * len(notices)

    # -- thread-facing operations -------------------------------------------

    def try_read_local(self, oid: int) -> np.ndarray | None:
        """Readable payload if up to date locally, else ``None``.

        Same contract as the home-based protocol's ``try_read_local``:
        lets :class:`~repro.gos.thread.ThreadContext` skip generator
        construction on local hits.  Materialising the initial replica
        is a local operation, so it happens here exactly as in
        :meth:`read_miss`.
        """
        replica = self._replica(oid)
        if replica.mode is AccessMode.INVALID or self._missing_writers(
            oid, replica
        ):
            return None
        return replica.payload

    def try_write_local(self, oid: int) -> np.ndarray | None:
        """Writable payload if up to date locally, else ``None``."""
        replica = self._replica(oid)
        if replica.mode is AccessMode.INVALID or self._missing_writers(
            oid, replica
        ):
            return None
        if replica.twin is None:
            replica.twin = make_twin(replica.payload, self.arena)
            replica.mode = AccessMode.WRITE
        self.dirty.add(oid)
        return replica.payload

    def read_miss(self, oid: int) -> Generator[Any, Any, np.ndarray]:
        """Miss entry point: fetch the diffs this replica lags behind."""
        replica = self._replica(oid)
        missing = self._missing_writers(oid, replica)
        if missing or replica.mode is AccessMode.INVALID:
            yield from self._fetch_diffs(oid, replica, missing)
            if replica.mode is AccessMode.INVALID:
                replica.mode = AccessMode.READ
        return replica.payload

    def write_miss(self, oid: int) -> Generator[Any, Any, np.ndarray]:
        """Miss entry point for writes: :meth:`read_miss`, then twin."""
        replica = self._replica(oid)
        missing = self._missing_writers(oid, replica)
        if missing or replica.mode is AccessMode.INVALID:
            yield from self._fetch_diffs(oid, replica, missing)
            if replica.mode is AccessMode.INVALID:
                replica.mode = AccessMode.READ
        if replica.twin is None:
            replica.twin = make_twin(replica.payload, self.arena)
            replica.mode = AccessMode.WRITE
        self.dirty.add(oid)
        return replica.payload

    def _missing_writers(
        self, oid: int, replica: _Replica
    ) -> list[tuple[int, int, int]]:
        """(writer, have_seq, need_seq) for every writer we lag behind."""
        missing = []
        for (roid, writer), need in self.required.items():
            if roid != oid or writer == self.node_id:
                continue
            have = replica.applied.get(writer, 0)
            if have < need:
                missing.append((writer, have, need))
        return missing

    def _fetch_diffs(
        self, oid: int, replica: _Replica, missing: list[tuple[int, int, int]]
    ) -> Generator[Any, Any, None]:
        """One round trip per lagging writer (the §1 pathology), then apply
        all fetched diffs in causal order."""
        pending: list[Future] = []
        for writer, have, _need in sorted(missing):
            request_id = self._next_request_id()
            fut = self._Future(label="diffreq")
            self._reply_waiters[request_id] = fut
            self._send(
                writer,
                MsgCategory.OBJ_REQUEST,
                REQUEST_BYTES,
                DiffRequest(
                    oid=oid,
                    writer_seq_from=have + 1,
                    requester=self.node_id,
                    request_id=request_id,
                ),
            )
            self.stats.incr("homeless_fetch")
            pending.append(fut)
        fetched: list[tuple[int, _StampedDiff]] = []
        for (writer, _have, _need), fut in zip(sorted(missing), pending):
            reply: DiffReply = yield fut
            fetched.extend((writer, stamped) for stamped in reply.diffs)
        fetched.sort(key=lambda item: (item[1].stamp, item[0], item[1].seq))
        for writer, stamped in fetched:
            apply_diff(replica.payload, stamped.diff)
            self.stats.incr("homeless_diff_applied")
            have = replica.applied.get(writer, 0)
            if stamped.seq > have:
                replica.applied[writer] = stamped.seq

    def read_many(self, oids: list[int]) -> Generator[Any, Any, None]:
        """The homeless protocol has no home to batch against: fetches
        happen per lagging writer anyway, so this is a sequential walk."""
        for oid in oids:
            yield from self.read_miss(oid)

    def ship(self, oid: int, fn, compute_us: float = 0.0, args_bytes: int = 8):
        """Unsupported: method shipping needs a home to ship to."""
        raise NotImplementedError(
            "synchronized method shipping requires the home-based protocol; "
            "the homeless protocol has no authoritative copy to execute at"
        )

    def flush_local(self) -> dict:
        """Close the interval: diff dirty replicas into local history.

        Returns this interval's notices ``{(oid, writer): seq}``.  No
        messages are sent — the homeless protocol moves diffs on demand.
        """
        notices: dict[tuple[int, int], int] = {}
        for oid in sorted(self.dirty):
            replica = self.replicas.get(oid)
            if replica is None or replica.twin is None:
                continue
            diff = compute_diff(
                oid,
                replica.twin,
                replica.payload,
                scratch=self.arena.bool_scratch(replica.payload.size),
            )
            self.arena.free(replica.twin)
            replica.twin = None
            replica.mode = AccessMode.READ
            if diff is None:
                continue
            seq = self._own_seq.get(oid, 0) + 1
            self._own_seq[oid] = seq
            stamped = _StampedDiff(seq=seq, stamp=self.sim.now, diff=diff)
            self.history.setdefault(oid, []).append(stamped)
            self.retained_bytes += diff.size_bytes
            self.stats.incr("homeless_diff_bytes", diff.size_bytes)
            self.stats.incr("diff")  # interval produced one diff
            replica.applied[self.node_id] = seq
            notices[(oid, self.node_id)] = seq
        self.dirty.clear()
        return notices

    def apply_notices(self, notices: dict) -> None:
        for key, seq in notices.items():
            if self.required.get(key, 0) < seq:
                self.required[key] = seq

    # -- locks and barriers, thread side --------------------------------------

    def _gossip_notices(self) -> dict:
        """Close the interval and return this node's full known-notice map.

        TreadMarks achieves happens-before transitivity with vector
        timestamps on intervals; we achieve the same causal propagation by
        gossiping the cumulative map on every synchronization message —
        correct, at the cost of message sizes that grow with the number of
        written objects (part of the homeless protocol's overhead story).
        """
        own = self.flush_local()
        self.apply_notices(own)
        return dict(self.required)

    def acquire(self, handle: LockHandle) -> Generator[Any, Any, None]:
        self.stats.incr("lock_acquire")
        own = self._gossip_notices()
        request_id = self._next_request_id()
        if handle.home == self.node_id:
            grant = self.lock_table.acquire(
                handle.lock_id, self.node_id, request_id, own
            )
            if grant is not None:
                self.apply_notices(grant)
                return
        else:
            self._send(
                handle.home,
                MsgCategory.LOCK_ACQUIRE,
                self._notice_size(own),
                LockAcquireMsg(
                    lock_id=handle.lock_id,
                    requester=self.node_id,
                    request_id=request_id,
                    notices=own,
                ),
            )
        fut = self._Future(label="hl-lock")
        self._reply_waiters[request_id] = fut
        grant: LockGrantMsg = yield fut
        self.apply_notices(grant.notices)

    def release(self, handle: LockHandle) -> Generator[Any, Any, None]:
        notices = self._gossip_notices()
        release = LockReleaseMsg(
            lock_id=handle.lock_id, releaser=self.node_id, notices=notices
        )
        if handle.home == self.node_id:
            self._manager_release(release)
        else:
            self._send(
                handle.home,
                MsgCategory.LOCK_RELEASE,
                self._notice_size(notices),
                release,
            )
        return
        yield  # pragma: no cover - keeps this a generator

    def barrier(
        self, handle: BarrierHandle, round_no: int
    ) -> Generator[Any, Any, None]:
        notices = self._gossip_notices()
        fut = self._Future(label="hl-barrier")
        self._barrier_waiters.setdefault(
            (handle.barrier_id, round_no), []
        ).append(fut)
        arrive = BarrierArriveMsg(
            barrier_id=handle.barrier_id,
            node=self.node_id,
            round_no=round_no,
            notices=notices,
        )
        if handle.home == self.node_id:
            self._manager_barrier_arrive(arrive)
        else:
            self._send(
                handle.home,
                MsgCategory.BARRIER_ARRIVE,
                self._notice_size(notices),
                arrive,
            )
        release: BarrierReleaseMsg = yield fut
        self.apply_notices(release.notices)

    def _round_complete(
        self, barrier_id: int, writers: dict
    ) -> dict[int, int]:
        """Barrier manager hook: every party has flushed, so this is the
        global diff GC's safe point.  No homes, so no new ones."""
        if self.on_barrier_complete is not None:
            self.on_barrier_complete()
        return {}

    # -- diff service ----------------------------------------------------------

    def _handle_diff_request(self, request: DiffRequest) -> None:
        diffs = [
            stamped
            for stamped in self.history.get(request.oid, [])
            if stamped.seq >= request.writer_seq_from
        ]
        size = REQUEST_BYTES + sum(s.diff.size_bytes for s in diffs)
        self.stats.incr("obj")  # a fault-in service, for comparability
        self._send(
            request.requester,
            MsgCategory.OBJ_REPLY,
            size,
            DiffReply(request_id=request.request_id, diffs=diffs),
        )
