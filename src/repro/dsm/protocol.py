"""The per-node home-based LRC protocol engine.

One :class:`DsmEngine` runs on every cluster node.  It owns the node's
object cache, the home entries of objects homed here, the forwarding
pointers of objects that migrated away, and the manager-side state of
locks and barriers homed here.  Thread-facing operations (``read``,
``write``, ``acquire``, ``release``, ``barrier``) are generators driven by
the simulation engine; message handling is plain callbacks.

Protocol summary
----------------

**Fault-in.**  A faulting node sends OBJ_REQUEST to its best-known home.
An obsolete home answers with a redirect directive per the configured
:class:`~repro.dsm.redirection.NotificationMechanism` (each miss is one
*redirection*, the accumulation travels in the request's ``hops`` field
and feeds the adaptive threshold's negative feedback ``R``).  The home
records a remote read, asks the migration policy, and replies with the
object image — plus the home itself when the policy fires (OBJ_REPLY_MIG),
leaving a forwarding pointer behind.

**Diff propagation.**  At release/barrier, each dirty cached object's diff
is shipped to the home, which applies it, bumps the version, records a
remote write (the consecutive-writes chain ``C``), and acks with the new
version.  Release blocks on the acks, so a lock grant (which carries the
write notices) can never overtake the data it announces.

**Home accesses** are trapped once per local synchronization interval,
mirroring §3.3's invalid-on-acquire / read-only-on-release protection of
the home copy; an exclusive home write increments the positive feedback
``E``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partialmethod
from typing import Any, Generator, TYPE_CHECKING

import numpy as np

from repro import _kernel
from repro.cluster.message import MsgCategory, NOTICE_ENTRY_BYTES
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.core.coefficient import home_access_coefficient
from repro.core.policies import MigrationPolicy
from repro.core.state import ObjectAccessState
from repro.dsm.barrier import BarrierHandle, BarrierState
from repro.dsm.cache import AccessMode, CacheEntry, CacheIndex
from repro.dsm.home import HomeEntry
from repro.dsm.locks import LockHandle, LockTable
from repro.dsm.pending import KeyedFifo
from repro.dsm.redirection import (
    NOTIFY_BYTES,
    NotificationMechanism,
    fanout_children,
)
from repro.memory.arena import Arena, new_arena
from repro.memory.diff import Diff, apply_diff, compute_diff
from repro.memory.heap import ObjectHeap
from repro.obs.timers import EpochTimer, SpanTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

from repro.sim.future import Future
from repro.sim.process import Delay

#: Payload bytes of small fixed-size protocol fields.
REQUEST_BYTES = 8
REPLY_EXTRA_BYTES = 8  # version stamp on an object reply
MONITOR_BYTES = 48  # serialized ObjectAccessState on migration
ACK_BYTES = 8
SYNC_BASE_BYTES = 8

#: Abort a fault-in after this many redirections (protocol-bug guard).
MAX_REDIRECTIONS = 1000

#: Retry-discipline lock backoff: base + U(0, jitter) microseconds.
LOCK_RETRY_BASE_US = 150.0
LOCK_RETRY_JITTER_US = 450.0

# Enum members resolved once: a class-attribute lookup on an Enum costs
# more than the dict probe it feeds, and these sit on per-message paths.
_OBJ_REQUEST = MsgCategory.OBJ_REQUEST
_OBJ_REPLY = MsgCategory.OBJ_REPLY
_OBJ_REPLY_MIG = MsgCategory.OBJ_REPLY_MIG
_REDIRECT = MsgCategory.REDIRECT
_DIFF = MsgCategory.DIFF
_DIFF_ACK = MsgCategory.DIFF_ACK
_LOCK_ACQUIRE = MsgCategory.LOCK_ACQUIRE
_LOCK_GRANT = MsgCategory.LOCK_GRANT
_LOCK_RELEASE = MsgCategory.LOCK_RELEASE
_BARRIER_ARRIVE = MsgCategory.BARRIER_ARRIVE
_BARRIER_RELEASE = MsgCategory.BARRIER_RELEASE
_READ = AccessMode.READ
_INVALID = AccessMode.INVALID


# ---------------------------------------------------------------------------
# wire payloads
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ObjRequest:
    oid: int
    requester: int
    request_id: tuple[int, int]
    min_version: int
    hops: int
    for_write: bool
    #: Causal span id of the fault that sent this request (``None`` when
    #: span tracing is off); travels through pending queues unchanged so
    #: a deferred serve still links to its cause.  See repro.obs.spans.
    op_id: int | None = None


@dataclass(slots=True)
class ObjReply:
    oid: int
    request_id: tuple[int, int]
    version: int
    data: np.ndarray
    home: int
    migrated: bool = False
    monitor: ObjectAccessState | None = None
    #: Span id of the migration this reply executes (OBJ_REPLY_MIG only).
    op_id: int | None = None


@dataclass(slots=True)
class RedirectReply:
    oid: int
    request_id: tuple[int, int]
    directive: dict[str, Any]


@dataclass(slots=True)
class ObjBatchRequest:
    """Batched read fault-in — models the GOS's connectivity-based object
    pushing (§5.1): objects co-homed with the faulted one travel in one
    message instead of one round trip each."""

    oids: list[int]
    requester: int
    request_id: tuple[int, int]


@dataclass(slots=True)
class ObjBatchReply:
    request_id: tuple[int, int]
    #: (oid, version, payload copy) for every object served.
    items: list[tuple[int, int, np.ndarray]]
    #: oids not homed here (requester falls back to the singular path).
    missing: list[int]
    home: int


@dataclass(slots=True)
class DiffMsg:
    oid: int
    writer: int
    request_id: tuple[int, int]
    diff: Diff
    hops: int = 0
    #: Causal span id of the diff_flush that shipped this diff.
    op_id: int | None = None


@dataclass(slots=True)
class DiffAck:
    oid: int
    request_id: tuple[int, int]
    version: int
    home: int


@dataclass(slots=True)
class LockAcquireMsg:
    lock_id: int
    requester: int
    request_id: tuple[int, int]
    #: Write notices of the interval the acquirer just closed — diffs are
    #: flushed at *every* synchronization point (acquire and release), so
    #: each synchronized update reaches the home as its own diff.
    notices: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class LockGrantMsg:
    lock_id: int
    request_id: tuple[int, int]
    notices: dict[int, int]
    #: Retry discipline: the lock was held; try again after a backoff.
    busy: bool = False


@dataclass(slots=True)
class LockReleaseMsg:
    lock_id: int
    releaser: int
    notices: dict[int, int]


@dataclass(slots=True)
class BarrierArriveMsg:
    barrier_id: int
    node: int
    round_no: int
    notices: dict[int, int]


@dataclass(slots=True)
class BarrierReleaseMsg:
    barrier_id: int
    round_no: int
    notices: dict[int, int]
    new_homes: dict[int, int] = field(default_factory=dict)
    #: Multicast relay fields (release_fanout only; PROTOCOL.md §15).
    #: ``fanout == 0`` is the legacy direct burst from the manager; with
    #: ``fanout == k`` each receiver re-forwards along the k-ary tree of
    #: :func:`~repro.dsm.redirection.fanout_children` rooted at ``root``.
    #: One immutable message object is shared across the whole fan-out.
    root: int = -1
    fanout: int = 0


@dataclass(slots=True)
class MigrateOrderMsg:
    oid: int
    new_home: int


@dataclass(slots=True)
class HomeTransferMsg:
    oid: int
    version: int
    data: np.ndarray
    monitor: ObjectAccessState
    #: Span id of the barrier-ordered migration this transfer executes.
    op_id: int | None = None


@dataclass(slots=True)
class ShipRequest:
    """Synchronized method shipping (§5.1's GOS optimization): execute a
    mutator at the object's home instead of faulting the object over."""

    oid: int
    requester: int
    request_id: tuple[int, int]
    fn: Any  # callable(payload) -> result, runs at the home
    compute_us: float
    args_bytes: int
    hops: int = 0
    #: Causal span id of the ship operation that sent this request.
    op_id: int | None = None


@dataclass(slots=True)
class ShipReply:
    oid: int
    request_id: tuple[int, int]
    version: int
    home: int
    result: Any = None
    #: Home migrated instead of executing: the requester must run fn
    #: locally after installing the home.
    migrated: bool = False
    data: np.ndarray | None = None
    monitor: ObjectAccessState | None = None
    #: Span id of the migration this reply executes (migrated=True only).
    op_id: int | None = None


@dataclass(slots=True)
class HomeQueryMsg:
    oid: int
    requester: int
    request_id: tuple[int, int]


@dataclass(slots=True)
class HomeAnswerMsg:
    oid: int
    request_id: tuple[int, int]
    home: int


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class DsmEngine:
    """Home-based LRC protocol instance on one node."""

    def __init__(
        self,
        node_id: int,
        sim: "Simulator",
        network: Network,
        heap: ObjectHeap,
        stats: ClusterStats,
        policy: MigrationPolicy,
        mechanism: NotificationMechanism,
        tracer=None,
        lock_discipline: str = "fifo",
        seed: int = 0,
        metrics=None,
        logger=None,
        arenas: "list[Arena] | None" = None,
        gc_enabled: bool = True,
        spans=None,
        release_fanout: int | None = None,
    ):
        if lock_discipline not in ("fifo", "retry"):
            raise ValueError(
                f"lock_discipline must be 'fifo' or 'retry', got "
                f"{lock_discipline!r}"
            )
        if release_fanout is not None and release_fanout < 2:
            raise ValueError(
                f"release_fanout must be >= 2, got {release_fanout}"
            )
        mechanism.validate(network.nnodes)
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.heap = heap
        self.stats = stats
        self.policy = policy
        self.mechanism = mechanism
        #: Barrier-release multicast fan-out (PROTOCOL.md §15): ``None``
        #: keeps the legacy direct N-1 burst from the barrier manager;
        #: ``k`` relays releases through a k-ary tree instead, bounding
        #: any single NIC's injection run at k messages.
        self.release_fanout = release_fanout
        self.tracer = tracer
        self.lock_discipline = lock_discipline
        #: Shared per-node arena list (index = node id).  Reply payload
        #: copies are carved from the *receiver's* arena — modelling the
        #: receive-side buffer a real transport would fill — so that every
        #: payload living on a node came from that node's arena and the
        #: free/reuse cycle closes locally.  Standalone engines (unit
        #: tests) get a private arena and skip the cross-node discipline.
        self.arenas = arenas
        self.arena: Arena = (
            arenas[node_id] if arenas is not None else new_arena()
        )
        self.gc_enabled = gc_enabled
        #: Barrier-epoch GC tallies (observability only; never in stats).
        self.gc_cache_drops = 0
        self.gc_notice_prunes = 0
        import random

        self._rng = random.Random(10_007 * (node_id + 1) + seed)

        # -- telemetry (optional; every site guards on a cached handle so
        # the disabled path costs one `is not None` check) ------------------
        self.metrics = metrics
        self.logger = logger
        if metrics is not None:
            self._m_fault_us = metrics.histogram(
                "dsm_fault_in_us", node=node_id
            )
            self._m_redirect_hops = metrics.histogram(
                "dsm_redirect_chain_length",
                buckets=(0, 1, 2, 4, 8, 16, 32, 64),
                node=node_id,
            )
            self._m_diff_bytes = metrics.histogram(
                "dsm_diff_bytes", node=node_id
            )
            self._m_migrations = metrics.counter(
                "dsm_migrations_total", node=node_id
            )
            self._m_lock_epoch_us = metrics.histogram(
                "dsm_lock_epoch_us", node=node_id
            )
            self._m_barrier_interval_us = metrics.histogram(
                "dsm_barrier_interval_us", node=node_id
            )
            self._lock_epochs: SpanTracker | None = SpanTracker()
            self._barrier_epochs: dict[int, EpochTimer] = {}
        else:
            self._m_fault_us = None
            self._m_redirect_hops = None
            self._m_diff_bytes = None
            self._m_migrations = None
            self._m_lock_epoch_us = None
            self._m_barrier_interval_us = None
            self._lock_epochs = None
            self._barrier_epochs = {}
        self._log_info = logger is not None and logger.enabled_for("info")
        #: Whether anything observes Eq-2 decisions (trace, metrics, debug
        #: log), resolved once: unobserved, a decision costs no call.
        self._watch_decisions = (
            (tracer is not None and tracer.wants("decision"))
            or metrics is not None
            or (logger is not None and logger.enabled_for("debug"))
        )

        # -- conformance-stream guards (cached so the hot paths pay one
        # attribute read when tracing is off; see PROTOCOL.md §13) ---------
        self._tr_twin_create = tracer is not None and tracer.wants("twin_create")
        self._tr_twin_free = tracer is not None and tracer.wants("twin_free")
        self._tr_diff_send = tracer is not None and tracer.wants("diff_send")
        self._tr_diff_apply = tracer is not None and tracer.wants("diff_apply")
        self._tr_home_install = (
            tracer is not None and tracer.wants("home_install")
        )
        self._tr_ship = tracer is not None and tracer.wants("ship")

        # -- causal span layer (repro.obs.spans): one SpanTracer is shared
        # by every engine of the run; the cached handle is None unless the
        # tracer takes spans (SpanTracer.enabled), so disabled runs pay a
        # single `is not None` per operation.  Span sites never touch stats,
        # message sizes or simulated time — the determinism digest is
        # bit-identical with spans on or off.
        self._sp = (
            spans if (spans is not None and spans.enabled) else None
        )

        self.cache = CacheIndex()
        self.homes: dict[int, HomeEntry] = {}
        self.forwards: dict[int, int] = {}
        self.home_hint: dict[int, int] = {}
        self.required_version: dict[int, int] = {}
        self.dirty: set[int] = set()
        self.home_dirty: set[int] = set()
        self.carry_notices: dict[int, int] = {}
        self.interval: int = 0

        self.lock_table = LockTable()
        self.barriers: dict[int, BarrierState] = {}
        self.manager_home_map: dict[int, int] = {}

        #: Request id -> future of every outstanding request/reply round
        #: trip (object, diff, lock, ship, home query): request ids are
        #: unique per node, so one map serves every reply category.
        self._reply_waiters: dict[tuple[int, int], Future] = {}
        self._barrier_waiters: dict[tuple[int, int], list[Future]] = {}
        self.pending_foreign = KeyedFifo()
        self._pending_diffs = KeyedFifo()
        #: Local threads waiting for an inbound home transfer (a barrier
        #: release can announce this node as the new home before the
        #: transfer message arrives).
        self._local_home_waits: dict[int, list[Future]] = {}
        #: Fault coalescing: one outstanding fault-in per object per node;
        #: co-located threads piggyback on it.
        self._inflight: dict[int, Future] = {}
        self._req_counter = 0

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
        # Protocol fast paths (PR 8).  Compiled backend: the local-hit
        # read/write bodies run in C against the flat cache index, with
        # cold paths (trap bookkeeping, twin creation, tracing) falling
        # back to the bound Python methods captured at construction.
        if kernel_module is not None:
            local_access = kernel_module.LocalAccess(
                self,
                AccessMode.INVALID,
                AccessMode.WRITE,
                not self._tr_twin_create,
            )
            self.try_read_local = local_access.try_read
            self.try_write_local = local_access.try_write
        # The network delivers in batches through per-node ports (in C
        # under the compiled engine); it binds this engine's sender once
        # every node has registered.
        network.register_fast_dispatch(
            node_id, self._build_dispatch(), self._bind_sender
        )

    # -- helpers ------------------------------------------------------------

    def _next_request_id(self) -> tuple[int, int]:
        self._req_counter += 1
        return (self.node_id, self._req_counter)

    def install_initial_home(self, oid: int) -> None:
        """Materialise the home entry for an object initially homed here."""
        obj = self.heap.get(oid)
        self.homes[oid] = HomeEntry(
            payload=obj.new_payload(self.arena),
            version=0,
            state=ObjectAccessState(
                oid=oid,
                object_bytes=obj.size_bytes,
                threshold_base=self.policy.initial_base(),
            ),
        )
        if self._tr_home_install:
            self.tracer.record(
                "home_install",
                self.sim.now,
                oid,
                self.node_id,
                origin="initial",
                version=0,
            )

    def alpha(self, oid: int, state: ObjectAccessState) -> float:
        """The home access coefficient for this object right now."""
        obj = self.heap.get(oid)
        return home_access_coefficient(
            obj.size_bytes, state.diff_bytes_avg, self.network.half_peak_bytes
        )

    def _send(
        self, dst: int, category: MsgCategory, size_bytes: int, payload: Any
    ) -> None:
        self.network.send(self.node_id, dst, category, size_bytes, payload)

    def _bind_sender(self, sender: Any) -> None:
        """Install the network's per-node send callable as this engine's
        ``_send`` (same ``(dst, category, size_bytes, payload)``
        signature; the node id is pre-bound)."""
        self._send = sender

    def _dst_arena(self, node: int) -> Arena:
        """The arena a payload copy destined for ``node`` is carved from.

        Models the receive buffer the destination allocates: the copy's
        lifetime is entirely on the receiving node, so its storage should
        come from — and eventually return to — that node's pool.
        """
        if self.arenas is not None:
            return self.arenas[node]
        return self.arena

    # ------------------------------------------------------------------
    # thread-facing operations (generators)
    # ------------------------------------------------------------------

    def try_read_local(self, oid: int) -> np.ndarray | None:
        """Readable payload if no communication is needed, else ``None``.

        The local half of a read (home-read trap included) as a plain
        call: the caller builds no generator on the overwhelmingly common
        local hit, and on ``None`` enters :attr:`read_miss` directly.
        Payloads are always arrays, so ``None`` is unambiguous.
        """
        entry = self.homes.get(oid)
        if entry is not None:
            entry.trap_home_read(self.interval)
            return entry.payload
        cached = self.cache.get(oid)
        if cached is not None and cached.readable():
            return cached.payload
        return None

    def try_write_local(self, oid: int) -> np.ndarray | None:
        """Writable payload if no communication is needed, else ``None``.

        The local half of a write (home-write trap, twin creation, dirty
        tracking) as a plain call; on ``None`` the caller enters
        :attr:`write_miss`, which ends in this probe again.
        """
        entry = self.homes.get(oid)
        if entry is not None:
            trapped, exclusive = entry.trap_home_write(self.interval)
            if trapped:
                events = self.stats.events
                events["home_write"] += 1
                if exclusive:
                    events["exclusive_home_write"] += 1
            self.home_dirty.add(oid)
            return entry.payload
        cached = self.cache.get(oid)
        if cached is not None and cached.readable():
            if self._tr_twin_create and cached.twin is None:
                self.tracer.record(
                    "twin_create",
                    self.sim.now,
                    oid,
                    self.node_id,
                    interval=self.interval,
                )
            cached.upgrade_to_write(self.arena)
            self.dirty.add(oid)
            return cached.payload
        return None

    def read_many(self, oids: list[int]) -> Generator[Any, Any, None]:
        """Batched read fault-in: one request per (presumed) home node.

        Ensures a readable copy of every object; objects already valid
        locally cost nothing.  Objects the presumed home no longer hosts
        fall back to the singular redirect-following path.  Models the
        paper's connectivity-based object pushing optimization.
        """
        by_target: dict[int, list[int]] = {}
        leftover_local: list[int] = []
        for oid in oids:
            if oid in self.homes:
                continue
            cached = self.cache.get(oid)
            if cached is not None and cached.readable():
                continue
            if oid in self._inflight:
                # a co-located thread is already fetching it
                leftover_local.append(oid)
                continue
            target = self.home_hint.get(oid, self.heap.initial_home(oid))
            if target == self.node_id:
                if oid not in self.forwards:
                    # inbound transfer in flight: take the singular path,
                    # which waits for it
                    leftover_local.append(oid)
                    continue
                target = self.forwards[oid]
                self.home_hint[oid] = target
            by_target.setdefault(target, []).append(oid)
        pending: list[Future] = []
        for target, group in sorted(by_target.items()):
            request_id = self._next_request_id()
            fut = self._Future(label="batchreq")
            self._reply_waiters[request_id] = fut
            self._send(
                target,
                MsgCategory.OBJ_REQUEST,
                REQUEST_BYTES + 8 * len(group),
                ObjBatchRequest(
                    oids=group, requester=self.node_id, request_id=request_id
                ),
            )
            pending.append(fut)
        leftovers: list[int] = list(leftover_local)
        for fut in pending:
            reply: ObjBatchReply = yield fut
            for oid, version, data in reply.items:
                if version < self.required_version.get(oid, 0):
                    leftovers.append(oid)  # stale (rare race): refetch singly
                    self.arena.free(data)
                    continue
                self.home_hint[oid] = reply.home
                self._free_dead_entry(
                    self.cache.replace(oid, CacheEntry(data, version))
                )
            leftovers.extend(reply.missing)
        for oid in leftovers:
            if oid in self.homes:
                continue
            cached = self.cache.get(oid)
            if cached is not None and cached.readable():
                continue
            yield from self._fault_in(False, oid)

    def _handle_batch_request(self, request: ObjBatchRequest) -> None:
        items: list[tuple[int, int, np.ndarray]] = []
        missing: list[int] = []
        for oid in request.oids:
            entry = self.homes.get(oid)
            if entry is None:
                missing.append(oid)
                continue
            entry.state.record_remote_read(request.requester)
            self.stats.incr("remote_read")
            self.stats.incr("obj")
            items.append(
                (
                    oid,
                    entry.version,
                    self._dst_arena(request.requester).take_copy(entry.payload),
                )
            )
        size = REQUEST_BYTES + sum(
            self.heap.get(oid).size_bytes + REPLY_EXTRA_BYTES
            for oid, _v, _d in items
        )
        self._send(
            request.requester,
            MsgCategory.OBJ_REPLY,
            size,
            ObjBatchReply(
                request_id=request.request_id,
                items=items,
                missing=missing,
                home=self.node_id,
            ),
        )

    def ship(
        self,
        oid: int,
        fn: Any,
        compute_us: float = 0.0,
        args_bytes: int = 8,
    ) -> Generator[Any, Any, Any]:
        """Synchronized method shipping: run ``fn(payload)`` at the home.

        The caller must hold the lock guarding the object (as a shipped
        ``synchronized`` method would).  At the home, the execution counts
        as a remote write by the requester — consecutive ships from one
        node build the same ``C`` chain diffs do, so the migration policy
        can still decide to move the home to a persistent shipper, in
        which case the reply carries the home instead and ``fn`` runs
        locally.  Returns ``fn``'s result.
        """
        entry = self.homes.get(oid)
        if entry is not None:
            trapped, exclusive = entry.trap_home_write(self.interval)
            if trapped:
                self.stats.incr("home_write")
                if exclusive:
                    self.stats.incr("exclusive_home_write")
            self.home_dirty.add(oid)
            if compute_us > 0:
                yield Delay(compute_us)
            return fn(entry.payload)
        sp = self._sp
        op = None
        if sp is not None:
            op = sp.open("ship", self.sim.now, oid, self.node_id)
        hops = 0
        for _attempt in range(MAX_REDIRECTIONS):
            target = self.home_hint.get(oid, self.heap.initial_home(oid))
            if target == self.node_id:
                if oid in self.homes:
                    # recursion takes the local-home branch: no new span
                    result = yield from self.ship(oid, fn, compute_us, args_bytes)
                    if sp is not None:
                        sp.close(op, "ship", self.sim.now, oid, self.node_id)
                    return result
                if oid in self.forwards:
                    self.home_hint[oid] = self.forwards[oid]
                    continue
                fut = self._Future(label="inbound-home")
                self._local_home_waits.setdefault(oid, []).append(fut)
                yield fut
                continue
            request_id = self._next_request_id()
            fut = self._Future(label="ship")
            self._reply_waiters[request_id] = fut
            sent_at = self.sim.now
            self._send(
                target,
                MsgCategory.SHIP_REQUEST,
                REQUEST_BYTES + args_bytes,
                ShipRequest(
                    oid=oid,
                    requester=self.node_id,
                    request_id=request_id,
                    fn=fn,
                    compute_us=compute_us,
                    args_bytes=args_bytes,
                    hops=hops,
                    op_id=op,
                ),
            )
            reply = yield fut
            if isinstance(reply, RedirectReply):
                hops += 1
                if sp is not None:
                    sp.completed(
                        "redirect_hop",
                        sent_at,
                        self.sim.now,
                        oid,
                        self.node_id,
                        parent=op,
                        target=target,
                    )
                directive = reply.directive
                if directive["kind"] == "redirect":
                    self.home_hint[oid] = directive["target"]
                else:
                    home = yield from self._query_manager(
                        oid, directive["manager"]
                    )
                    self.home_hint[oid] = home
                continue
            if reply.migrated:
                # the policy moved the home to us; install it and run
                # fn locally as a home write
                self._free_dead_entry(self.cache.pop(oid, None))
                self.forwards.pop(oid, None)
                self.homes[oid] = HomeEntry(
                    payload=reply.data,
                    version=reply.version,
                    state=reply.monitor,
                )
                self.home_hint[oid] = self.node_id
                if self._tr_home_install:
                    self.tracer.record(
                        "home_install",
                        self.sim.now,
                        oid,
                        self.node_id,
                        origin="reply-mig",
                        version=reply.version,
                    )
                if sp is not None and reply.op_id is not None:
                    sp.close(
                        reply.op_id,
                        "migration",
                        self.sim.now,
                        oid,
                        self.node_id,
                        version=reply.version,
                    )
                self._serve_pending_foreign(oid)
                self._serve_pending_diffs(oid)
                for waiter in self._local_home_waits.pop(oid, []):
                    waiter.resolve(None)
                result = yield from self.ship(oid, fn, compute_us, args_bytes)
                if sp is not None:
                    sp.close(op, "ship", self.sim.now, oid, self.node_id)
                return result
            self.home_hint[oid] = reply.home
            if self.carry_notices.get(oid, 0) < reply.version:
                self.carry_notices[oid] = reply.version
            cached = self.cache.get(oid)
            if cached is not None and cached.mode is AccessMode.READ:
                cached.invalidate()
            if sp is not None:
                sp.close(op, "ship", self.sim.now, oid, self.node_id)
            return reply.result
        raise RuntimeError(
            f"shipping to oid {oid} exceeded {MAX_REDIRECTIONS} redirections"
        )

    def _handle_ship(self, request: ShipRequest) -> None:
        entry = self.homes.get(request.oid)
        if entry is None:
            if request.oid in self.forwards:
                self.stats.incr("redir")
                if self.tracer is not None and self.tracer.wants("redirect"):
                    self.tracer.record(
                        "redirect",
                        self.sim.now,
                        request.oid,
                        self.node_id,
                        obsolete_home=self.node_id,
                        requester=request.requester,
                    )
                directive = self.mechanism.miss_directive(self, request.oid)
                self._send(
                    request.requester,
                    MsgCategory.REDIRECT,
                    REQUEST_BYTES,
                    RedirectReply(
                        oid=request.oid,
                        request_id=request.request_id,
                        directive=directive,
                    ),
                )
            else:
                self.stats.incr("deferred_request")
                self.pending_foreign.add(request.oid, request)
            return
        state = entry.state
        state.record_redirections(request.hops)
        alpha = self.alpha(request.oid, state)
        obj = self.heap.get(request.oid)
        migrate = self.policy.should_migrate(
            state, request.requester, alpha, for_write=True
        )
        if self._watch_decisions:
            self._trace_decision(
                request.oid, state, request.requester, alpha, migrate
            )
        if migrate:
            self.policy.on_migrated(state, alpha)
            self._trace_migration(request.oid, request.requester, state)
            mig_op = None
            if self._sp is not None:
                mig_op = self._sp.open(
                    "migration",
                    self.sim.now,
                    request.oid,
                    self.node_id,
                    parent=request.op_id,
                    target=request.requester,
                )
            self.stats.incr("mig")
            self.stats.incr("migration")
            self._close_dirty_home_interval(request.oid, entry)
            self._send(
                request.requester,
                MsgCategory.SHIP_REPLY,
                obj.size_bytes + REPLY_EXTRA_BYTES + MONITOR_BYTES,
                ShipReply(
                    oid=request.oid,
                    request_id=request.request_id,
                    version=entry.version,
                    home=request.requester,
                    migrated=True,
                    data=self._dst_arena(request.requester).take_copy(
                        entry.payload
                    ),
                    monitor=state,
                    op_id=mig_op,
                ),
            )
            self._demote_home(request.oid, entry, request.requester)
            for pending in entry.pending.drain():
                self._handle_obj_request(pending)
            return
        # execute here; the execution is a remote write by the requester
        self.stats.incr("ship")
        self.stats.incr("remote_write")
        state.record_remote_write(request.requester, request.args_bytes)
        if self._tr_ship:
            self.tracer.record(
                "ship",
                self.sim.now,
                request.oid,
                self.node_id,
                home=self.node_id,
                requester=request.requester,
            )
        result = request.fn(entry.payload)
        entry.version += 1
        self._recheck_pending(request.oid)
        reply = ShipReply(
            oid=request.oid,
            request_id=request.request_id,
            version=entry.version,
            home=self.node_id,
            result=result,
        )
        if request.compute_us > 0:
            self.sim.schedule(
                request.compute_us,
                self._send,
                request.requester,
                MsgCategory.SHIP_REPLY,
                REQUEST_BYTES + request.args_bytes,
                reply,
            )
        else:
            self._send(
                request.requester,
                MsgCategory.SHIP_REPLY,
                REQUEST_BYTES + request.args_bytes,
                reply,
            )

    def _fault_in(
        self, for_write: bool, oid: int
    ) -> Generator[Any, Any, np.ndarray]:
        """The miss path in one generator frame: fetch a valid copy from
        the home, following redirections (``home_hint`` falls back to the
        object's initial home).

        Entered right after the caller's ``try_*_local`` probe failed, as
        :attr:`read_miss`/:attr:`write_miss`.  Co-located faults coalesce:
        one request per object is outstanding per node, and piggybacking
        threads re-check local state once it completes.  A write ends in
        the write probe (twin, or home-write trap after a migration), and
        faults again in the rare case the copy went stale meanwhile.
        """
        inflight = self._inflight
        node = self.node_id
        while True:
            marker = inflight.get(oid)
            if marker is not None:
                yield marker
                entry = self.homes.get(oid)
                if entry is not None:
                    payload = entry.payload
                else:
                    cached = self.cache.get(oid)
                    if cached is None or not cached.readable():
                        continue
                    payload = cached.payload
            else:
                marker = inflight[oid] = self._Future("inflight")
                sp = self._sp
                op = None
                if sp is not None:
                    op_kind = "write_miss" if for_write else "read_miss"
                    op = sp.open(op_kind, self.sim.now, oid, node)
                m_fault = self._m_fault_us
                if m_fault is not None:
                    started = self.sim.now
                try:
                    min_version = self.required_version.get(oid, 0)
                    hops = 0
                    for _attempt in range(MAX_REDIRECTIONS):
                        target = self.home_hint.get(oid)
                        if target is None:
                            target = self.heap.initial_home(oid)
                        if target == node:
                            entry = self.homes.get(oid)
                            if entry is not None:
                                payload = entry.payload
                                break
                            if oid in self.forwards:
                                # stale self-hint after we migrated the
                                # home away
                                self.home_hint[oid] = self.forwards[oid]
                                continue
                            # announced as the new home but the transfer
                            # is still in flight: wait for it
                            fut = self._Future("inbound-home")
                            self._local_home_waits.setdefault(oid, []).append(
                                fut
                            )
                            yield fut
                            continue
                        self._req_counter += 1
                        request_id = (node, self._req_counter)
                        fut = self._Future("objreq")
                        self._reply_waiters[request_id] = fut
                        if sp is not None:
                            sent_at = self.sim.now
                        self._send(
                            target,
                            _OBJ_REQUEST,
                            REQUEST_BYTES,
                            ObjRequest(
                                oid, node, request_id, min_version, hops,
                                for_write, op,
                            ),
                        )
                        reply = yield fut
                        if type(reply) is ObjReply:
                            payload = self._install_reply(oid, reply)
                            break
                        # redirected: one more accumulated redirection
                        hops += 1
                        if sp is not None:
                            # the hop's extent is only known now; the open
                            # carries the earlier send timestamp
                            # (consumers sort by time)
                            sp.completed(
                                "redirect_hop",
                                sent_at,
                                self.sim.now,
                                oid,
                                node,
                                parent=op,
                                target=target,
                            )
                        directive = reply.directive
                        if directive["kind"] == "redirect":
                            self.home_hint[oid] = directive["target"]
                        elif directive["kind"] == "manager":
                            self.home_hint[oid] = yield from self._query_manager(
                                oid, directive["manager"]
                            )
                        else:  # pragma: no cover - defensive
                            raise RuntimeError(
                                f"unknown miss directive {directive!r}"
                            )
                    else:
                        raise RuntimeError(
                            f"fault-in of oid {oid} at node {node} exceeded "
                            f"{MAX_REDIRECTIONS} redirections"
                        )
                    if m_fault is not None:
                        m_fault.observe(self.sim.now - started)
                    if sp is not None:
                        sp.close(op, op_kind, self.sim.now, oid, node)
                finally:
                    del inflight[oid]
                    marker.resolve(None)
            if not for_write:
                return payload
            payload = self.try_write_local(oid)
            if payload is not None:
                return payload

    #: The miss entry points, the same on both protocol engines: call
    #: with an oid only after its ``try_read_local``/``try_write_local``
    #: probe returned ``None``; each returns the :meth:`_fault_in`
    #: generator itself, with no wrapper frame.
    read_miss = partialmethod(_fault_in, False)
    write_miss = partialmethod(_fault_in, True)

    def _query_manager(
        self, oid: int, manager: int
    ) -> Generator[Any, Any, int]:
        if manager == self.node_id:
            # we are the manager: answer from the local map
            return self.manager_home_map.get(oid, self.heap.initial_home(oid))
        request_id = self._next_request_id()
        fut = self._Future(label="homequery")
        self._reply_waiters[request_id] = fut
        self._send(
            manager,
            MsgCategory.HOME_QUERY,
            REQUEST_BYTES,
            HomeQueryMsg(oid=oid, requester=self.node_id, request_id=request_id),
        )
        answer: HomeAnswerMsg = yield fut
        return answer.home

    def _install_reply(self, oid: int, reply: ObjReply) -> np.ndarray:
        self.home_hint[oid] = reply.home
        if reply.migrated:
            assert reply.monitor is not None
            self._free_dead_entry(self.cache.pop(oid, None))
            self.forwards.pop(oid, None)  # we are home again: drop stale pointer
            self.homes[oid] = HomeEntry(
                payload=reply.data, version=reply.version, state=reply.monitor
            )
            self.home_hint[oid] = self.node_id
            if self._tr_home_install:
                self.tracer.record(
                    "home_install",
                    self.sim.now,
                    oid,
                    self.node_id,
                    origin="reply-mig",
                    version=reply.version,
                )
            if self._sp is not None and reply.op_id is not None:
                self._sp.close(
                    reply.op_id,
                    "migration",
                    self.sim.now,
                    oid,
                    self.node_id,
                    version=reply.version,
                )
            self._serve_pending_foreign(oid)
            self._serve_pending_diffs(oid)
            return self.homes[oid].payload
        required = self.required_version.get(oid, 0)
        if reply.version < required:  # pragma: no cover - protocol invariant
            raise RuntimeError(
                f"home replied version {reply.version} < required {required} "
                f"for oid {oid}"
            )
        self._free_dead_entry(
            self.cache.replace(oid, CacheEntry(reply.data, reply.version))
        )
        return reply.data

    def _free_dead_entry(self, entry: CacheEntry | None) -> None:
        """Pool a dropped entry's payload iff it is provably dead.

        Only ``INVALID`` twinless copies qualify: application threads
        re-fault after every synchronization point, so nothing can still
        reach an invalid copy's buffer (see ``docs/PROTOCOL.md`` §12).
        READ/WRITE copies are never freed here — a local thread may hold
        the payload reference within the current interval.
        """
        if (
            entry is not None
            and entry.mode is _INVALID
            and entry.twin is None
        ):
            self.arena.free(entry.payload)

    # -- diff flushing --------------------------------------------------

    def flush_diffs(
        self, parent_op: int | None = None
    ) -> Generator[Any, Any, dict[int, int]]:
        """Ship diffs of all dirty objects to their homes; wait for acks.

        Returns the write notices of this interval (oid -> new version):
        cached-copy diffs, then :meth:`_home_notices`.  Synchronization
        operations run this generator only when ``self.dirty`` is
        non-empty and call :meth:`_home_notices` directly otherwise.

        ``parent_op`` is the causal span of the synchronization operation
        this flush belongs to (lock acquire/release or barrier wait); each
        shipped diff opens a ``diff_flush`` child span closed at its ack.
        """
        notices: dict[int, int] = {}
        waits: list[tuple[int, CacheEntry, Future, int | None]] = []
        arena = self.arena
        sp = self._sp
        node = self.node_id
        for oid in sorted(self.dirty):
            cached = self.cache.get(oid)
            if cached is None or cached.twin is None:
                continue
            diff = compute_diff(
                oid,
                cached.twin,
                cached.payload,
                scratch=arena.bool_scratch(cached.payload.size),
            )
            if diff is None:
                if self._tr_twin_free:
                    self.tracer.record(
                        "twin_free",
                        self.sim.now,
                        oid,
                        node,
                        interval=self.interval,
                    )
                cached.downgrade_clean(arena)
                continue
            self._req_counter += 1
            request_id = (node, self._req_counter)
            fut = self._Future("diffack")
            self._reply_waiters[request_id] = fut
            target = self.home_hint.get(oid)
            if target is None:
                target = self.heap.initial_home(oid)
            d_op = None
            if sp is not None:
                d_op = sp.open(
                    "diff_flush",
                    self.sim.now,
                    oid,
                    node,
                    parent=parent_op,
                    target=target,
                    size_bytes=diff.size_bytes,
                )
            if self._tr_diff_send:
                self.tracer.record(
                    "diff_send",
                    self.sim.now,
                    oid,
                    node,
                    target=target,
                    size_bytes=diff.size_bytes,
                    base_version=cached.version,
                )
            self._send(
                target,
                _DIFF,
                diff.size_bytes + REQUEST_BYTES,
                DiffMsg(oid, node, request_id, diff, 0, d_op),
            )
            # The write interval ends at the *send*: the diff captured its
            # image, and the payload now equals what the home will hold
            # once the diff lands.  Free the twin here so a co-located
            # thread's write before the ack opens a fresh interval with a
            # fresh twin against that post-diff image — keeping the old
            # twin until the ack mis-bases the next diff and can silently
            # drop a write that restores the old twin's value.
            if self._tr_twin_free:
                self.tracer.record(
                    "twin_free",
                    self.sim.now,
                    oid,
                    node,
                    interval=self.interval,
                )
            arena.free(cached.twin)
            cached.twin = None
            cached.mode = _READ
            waits.append((oid, cached, fut, d_op))
        self.dirty.clear()
        for oid, cached, fut, d_op in waits:
            ack: DiffAck = yield fut
            self.home_hint[oid] = ack.home
            if cached.twin is not None:
                # a co-located thread already opened the next write
                # interval on the post-diff image: just advance the version
                cached.version = ack.version
            else:
                cached.downgrade_after_flush(ack.version, arena)
            notices[oid] = ack.version
            if d_op is not None:
                sp.close(
                    d_op,
                    "diff_flush",
                    self.sim.now,
                    oid,
                    node,
                    version=ack.version,
                )
        return self._home_notices(notices)

    def _home_notices(self, notices: dict[int, int]) -> dict[int, int]:
        """Close the home side of the interval, as a plain call: bump the
        version of every home copy written locally and fold in notices
        carried from migrations that closed a dirty home interval."""
        if self.home_dirty:
            for oid in sorted(self.home_dirty):
                entry = self.homes.get(oid)
                if entry is None:
                    continue  # migrated away mid-interval; notice carried
                entry.version += 1
                notices[oid] = entry.version
                self._recheck_pending(oid)
            self.home_dirty.clear()
        if self.carry_notices:
            for oid, version in self.carry_notices.items():
                if notices.get(oid, 0) < version:
                    notices[oid] = version
            self.carry_notices.clear()
        return notices

    def apply_notices(self, notices: dict[int, int]) -> None:
        """Record incoming write notices (version floor for fault-ins).

        Hot path: barrier releases carry O(#written objects) notices per
        round.  Cache invalidation is *not* done here — both call sites
        (acquire, barrier) follow with :meth:`invalidate_all_cached`
        (Java consistency), which subsumes per-notice invalidation.
        """
        required = self.required_version
        for oid, version in notices.items():
            if version > required.get(oid, 0):
                required[oid] = version

    def invalidate_all_cached(self) -> None:
        """Java-consistency cache flush at a synchronization point.

        The paper's GOS follows the (pre-JSR-133) Java memory model, under
        which acquiring a monitor invalidates the thread's working copies
        of shared objects wholesale — *every* cached (non-home) copy is
        re-faulted after a synchronization, while home copies stay valid.
        This asymmetry is precisely what home migration exploits, and it
        is what makes the per-access fault stream of Figure 5 come out:
        each synchronized update by a non-home writer re-faults the object.

        Dirty WRITE copies are spared: their diffs have not been flushed
        yet (LRC multiple-writer semantics keep them coherent via twins).

        Hot at scale — every node sweeps its whole cache at every
        synchronization point — so the compiled backend runs the sweep
        in C (same identity compare, same attribute writes).
        """
        kernel_module = self._kernel
        if kernel_module is not None:
            kernel_module.cache_invalidate_read(self.cache, _READ, _INVALID)
            return
        for cached in self.cache.values():
            if cached.mode is _READ:
                cached.mode = _INVALID

    def collect_garbage(self, released: dict[int, int]) -> None:
        """Barrier-epoch memory GC (``docs/PROTOCOL.md`` §12).

        Runs after ``apply_notices``/``invalidate_all_cached`` of a
        barrier release.  Two reclamations, both behaviour-free:

        * **Invalid cached copies** are dropped and their payload
          buffers pooled.  Every later access re-faults anyway (Java
          consistency invalidated them wholesale), and
          ``_install_home_transfer`` falls back to the transferred image
          when no cached array exists, so nothing observes the missing
          entry.  Without this, every node's cache accumulates one dead
          payload per object it ever touched.
        * **Write-notice floors** (``required_version``) are pruned up
          to the release's version horizon: home versions are monotone
          and travel with migration, and a notice is only emitted after
          its home reached that version — so a floor at or below the
          version this release announced (or whose object is homed
          here, where the floor is moot) can never defer a future
          request.  The floor map stops growing with run history.

        Deliberately touches no :class:`ClusterStats` counters, sends
        no messages, and consumes no simulated time: results and the
        determinism digest are bit-identical with GC on or off.
        """
        cache = self.cache
        required = self.required_version
        # The release's floors are no longer merged into
        # required_version (see barrier(): merge-then-prune was a
        # no-op), so reconstruct the legacy pre-GC accounting exactly:
        # the floors this epoch *would* have held are the own floors
        # plus the release's not-already-present ones, and every elided
        # floor counts as pruned (it was reclaimed by never being
        # retained).  Both counters stay bit-identical to the
        # merge-then-prune implementation.
        elided = len(released)
        if required:
            elided -= len(required.keys() & released.keys())
        # pre-GC footprint peaks: the bounded-steady-state evidence
        peaks = self.stats.peaks
        if peaks.get("cache_entries", 0) < len(cache):
            peaks["cache_entries"] = len(cache)
        if peaks.get("notice_floors", 0) < len(required) + elided:
            peaks["notice_floors"] = len(required) + elided
        if cache:
            if self._kernel is not None:
                self.gc_cache_drops += self._kernel.cache_sweep_invalid(
                    cache, _INVALID, self.arena.free
                )
            else:
                dead = [
                    oid
                    for oid, entry in cache.items()
                    if entry.mode is _INVALID and entry.twin is None
                ]
                arena = self.arena
                for oid in dead:
                    arena.free(cache.pop(oid).payload)
                self.gc_cache_drops += len(dead)
        if required:
            homes = self.homes
            prunable = [
                oid
                for oid, floor in required.items()
                if floor <= released.get(oid, 0) or oid in homes
            ]
            for oid in prunable:
                del required[oid]
            self.gc_notice_prunes += len(prunable)
        self.gc_notice_prunes += elided
        # deferred-work queues are provably drained at a completed
        # barrier (flush blocks on diff acks; transfers precede release
        # delivery), but stale empty keys cost memory — compact them.
        if self.pending_foreign:
            self.pending_foreign.prune_empty()
        if self._pending_diffs:
            self._pending_diffs.prune_empty()
        if self.metrics is not None:
            arena_stats = self.arena.stats()
            node = self.node_id
            self.metrics.gauge("dsm_arena_live_bytes", node=node).set(
                arena_stats["live_bytes"]
            )
            self.metrics.gauge("dsm_arena_pooled_bytes", node=node).set(
                arena_stats["pooled_bytes"]
            )
            self.metrics.gauge("dsm_cache_entries", node=node).set(len(cache))
            self.metrics.gauge("dsm_notice_floors", node=node).set(
                len(required)
            )

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
        else:
            own_notices = self._home_notices({})
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
                table = self.lock_table
                table.add_notices(lock_id, own_notices)
                if table.try_acquire(lock_id, node, request_id):
                    notices = table.grant_notices(lock_id, node)
                else:
                    fut = self._Future("lock")
                    self._reply_waiters[request_id] = fut
                    notices = (yield fut).notices
        self.apply_notices(notices)
        self.invalidate_all_cached()
        self.interval += 1
        if sp is not None:
            sp.close(op, "lock_acquire", self.sim.now, lock_id, node)
        if self._m_lock_epoch_us is not None:
            self._lock_epochs.begin(lock_id, self.sim.now)

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
                self.lock_table.add_notices(handle.lock_id, send_notices)
                if self.lock_table.state(handle.lock_id).holder is None:
                    self.lock_table.try_acquire(
                        handle.lock_id, self.node_id, request_id
                    )
                    return self.lock_table.grant_notices(
                        handle.lock_id, self.node_id
                    )
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
        if self._m_lock_epoch_us is not None:
            span = self._lock_epochs.end(lock_id, self.sim.now)
            if span is not None:
                self._m_lock_epoch_us.observe(span)
        sp = self._sp
        op = None
        if sp is not None:
            op = sp.open(
                "lock_release", self.sim.now, lock_id, node, home=handle.home
            )
        if self.dirty:
            notices = yield from self.flush_diffs(op)
        else:
            notices = self._home_notices({})
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

    def _manager_release(self, msg: LockReleaseMsg) -> None:
        """Lock manager: record a release (local or LOCK_RELEASE) and hand
        the lock to the next FIFO waiter, if any."""
        lock_id = msg.lock_id
        waiter = self.lock_table.release(lock_id, msg.releaser, msg.notices)
        if waiter is None:
            return
        grant = self.lock_table.grant_notices(lock_id, waiter.node)
        if waiter.node == self.node_id:
            self._reply_waiters.pop(waiter.request_id).resolve(
                LockGrantMsg(lock_id, waiter.request_id, grant)
            )
        else:
            self._send(
                waiter.node,
                _LOCK_GRANT,
                SYNC_BASE_BYTES + NOTICE_ENTRY_BYTES * len(grant),
                LockGrantMsg(lock_id, waiter.request_id, grant),
            )

    # -- barriers ---------------------------------------------------------

    def register_barrier(self, handle: BarrierHandle) -> None:
        """Install manager state for a barrier homed at this node."""
        if handle.home != self.node_id:
            raise ValueError(
                f"barrier {handle.barrier_id} homed at {handle.home}, "
                f"not {self.node_id}"
            )
        self.barriers[handle.barrier_id] = BarrierState(handle)

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
        else:
            notices = self._home_notices({})
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
            self.collect_garbage(release.notices)
        if sp is not None:
            sp.close(
                op,
                "barrier_wait",
                self.sim.now,
                handle.barrier_id,
                self.node_id,
                round=round_no,
            )

    def _manager_barrier_arrive(self, msg: BarrierArriveMsg) -> None:
        state = self.barriers[msg.barrier_id]
        complete = state.arrive(msg.node, msg.notices, msg.round_no)
        if not complete:
            return
        round_no, merged, writers = state.complete_round()
        self.stats.events["barrier_round"] += 1
        if self._m_barrier_interval_us is not None:
            timer = self._barrier_epochs.setdefault(
                msg.barrier_id, EpochTimer()
            )
            span = timer.lap(self.sim.now)
            if span is not None:
                self._m_barrier_interval_us.observe(span)
        new_homes: dict[int, int] = {}
        if self.policy.wants_barrier_migration():
            new_homes = self._order_barrier_migrations(writers)
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
                + NOTICE_ENTRY_BYTES * len(merged)
                + REQUEST_BYTES * len(new_homes)
            )
            for dst in range(self.network.nnodes):
                if dst == self.node_id:
                    continue
                self._send(dst, _BARRIER_RELEASE, size, release)
        self._on_barrier_release(release)

    def _order_barrier_migrations(
        self, writers: dict[int, set[int]]
    ) -> dict[int, int]:
        """JiaJia-style: migrate single-writer objects to their writer."""
        new_homes: dict[int, int] = {}
        for oid in sorted(writers):
            writer_set = writers[oid]
            if len(writer_set) != 1:
                continue
            writer = next(iter(writer_set))
            current = self.manager_home_map.get(oid, self.heap.initial_home(oid))
            if current == writer:
                continue
            self.manager_home_map[oid] = writer
            new_homes[oid] = writer
            order = MigrateOrderMsg(oid=oid, new_home=writer)
            if current == self.node_id:
                self._execute_migrate_order(order)
            else:
                self._send(
                    current, MsgCategory.CONTROL, REQUEST_BYTES, order
                )
        return new_homes

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
                    + NOTICE_ENTRY_BYTES * len(release.notices)
                    + REQUEST_BYTES * len(release.new_homes)
                )
                for dst in fanout_children(self.node_id, root, fanout, nnodes):
                    self._send(dst, _BARRIER_RELEASE, size, release)
        for fut in self._barrier_waiters.pop(
            (release.barrier_id, release.round_no), ()
        ):
            fut.resolve(release)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def _build_dispatch(self) -> dict[MsgCategory, Any]:
        """Category -> bound payload handler (built once per engine)."""
        if self._kernel is not None:
            # C twin of _resolve_reply over the same waiter dict (which
            # is bound once in __init__ and never rebound).
            resolve_reply = self._kernel.ReplyRouter(self._reply_waiters)
        else:
            resolve_reply = self._resolve_reply
        return {
            MsgCategory.OBJ_REQUEST: self._handle_obj_request,
            MsgCategory.OBJ_REPLY: resolve_reply,
            MsgCategory.OBJ_REPLY_MIG: resolve_reply,
            MsgCategory.REDIRECT: resolve_reply,
            MsgCategory.SHIP_REQUEST: self._handle_ship,
            MsgCategory.SHIP_REPLY: resolve_reply,
            MsgCategory.DIFF: self._handle_diff,
            MsgCategory.DIFF_ACK: resolve_reply,
            MsgCategory.LOCK_ACQUIRE: self._handle_lock_acquire,
            MsgCategory.LOCK_GRANT: resolve_reply,
            MsgCategory.LOCK_RELEASE: self._manager_release,
            MsgCategory.BARRIER_ARRIVE: self._manager_barrier_arrive,
            MsgCategory.BARRIER_RELEASE: self._on_barrier_release,
            MsgCategory.HOME_BCAST: self._on_home_bcast,
            MsgCategory.HOME_UPDATE: self._on_home_update,
            MsgCategory.HOME_QUERY: self._handle_home_query,
            MsgCategory.HOME_ANSWER: resolve_reply,
            MsgCategory.CONTROL: self._on_control,
        }

    def _resolve_reply(self, payload: Any) -> None:
        self._reply_waiters.pop(payload.request_id).resolve(payload)

    def _on_home_bcast(self, payload: dict) -> None:
        # Multicast relay (BroadcastMechanism(fanout=k)): forward the
        # shared announcement down the tree before applying the hint.
        # The new home also relays, but applying the hint there is
        # harmless: it names the node itself, and if the object moved on
        # again the retained forwarding pointer still redirects.
        if payload.get("fanout"):
            for dst in fanout_children(
                self.node_id,
                payload["root"],
                payload["fanout"],
                self.network.nnodes,
            ):
                self._send(dst, MsgCategory.HOME_BCAST, NOTIFY_BYTES, payload)
        self.home_hint[payload["oid"]] = payload["new_home"]

    def _on_home_update(self, payload: dict) -> None:
        self.manager_home_map[payload["oid"]] = payload["new_home"]

    def _on_control(self, payload: Any) -> None:
        if isinstance(payload, MigrateOrderMsg):
            self._execute_migrate_order(payload)
        elif isinstance(payload, HomeTransferMsg):
            self._install_home_transfer(payload)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown control payload {payload!r}")

    # -- home side ---------------------------------------------------------

    def _handle_obj_request(self, request: ObjRequest) -> None:
        if type(request) is ObjBatchRequest:
            self._handle_batch_request(request)
            return
        oid = request.oid
        entry = self.homes.get(oid)
        if entry is None:
            if oid in self.forwards:
                self.stats.events["redir"] += 1
                if self.tracer is not None and self.tracer.wants("redirect"):
                    self.tracer.record(
                        "redirect",
                        self.sim.now,
                        oid,
                        self.node_id,
                        obsolete_home=self.node_id,
                        requester=request.requester,
                    )
                self._send(
                    request.requester,
                    _REDIRECT,
                    REQUEST_BYTES,
                    RedirectReply(
                        oid,
                        request.request_id,
                        self.mechanism.miss_directive(self, oid),
                    ),
                )
            else:
                # Home transfer in flight towards this node: defer.
                self.stats.events["deferred_request"] += 1
                self.pending_foreign.add(oid, request)
            return
        if entry.version < request.min_version:
            self.stats.events["deferred_request"] += 1
            entry.pending.push(request.min_version, request)
            return
        self._serve_request(entry, request)

    def _serve_request(self, entry: HomeEntry, request: ObjRequest) -> None:
        oid = request.oid
        requester = request.requester
        state = entry.state
        events = self.stats.events
        state.record_remote_read(requester)
        state.record_redirections(request.hops)
        events["remote_read"] += 1
        if self._m_redirect_hops is not None:
            self._m_redirect_hops.observe(request.hops)
        obj = self.heap.get(oid)
        alpha = home_access_coefficient(
            obj.size_bytes, state.diff_bytes_avg, self.network.half_peak_bytes
        )
        migrate = self.policy.should_migrate(
            state, requester, alpha, request.for_write
        )
        if self._watch_decisions:
            self._trace_decision(oid, state, requester, alpha, migrate)
        arenas = self.arenas
        data = (
            arenas[requester] if arenas is not None else self.arena
        ).take_copy(entry.payload)
        if not migrate:
            events["obj"] += 1
            self._send(
                requester,
                _OBJ_REPLY,
                obj.size_bytes + REPLY_EXTRA_BYTES,
                ObjReply(
                    oid, request.request_id, entry.version, data, self.node_id
                ),
            )
            return
        # -- migration fires ------------------------------------------------
        self.policy.on_migrated(state, alpha)
        self._trace_migration(oid, requester, state)
        mig_op = None
        if self._sp is not None:
            # child of the fault that triggered the decision; closed by the
            # requester when it installs the home (_install_reply)
            mig_op = self._sp.open(
                "migration",
                self.sim.now,
                oid,
                self.node_id,
                parent=request.op_id,
                target=requester,
            )
        events["mig"] += 1
        events["migration"] += 1
        self._close_dirty_home_interval(oid, entry)
        self._send(
            requester,
            _OBJ_REPLY_MIG,
            obj.size_bytes + REPLY_EXTRA_BYTES + MONITOR_BYTES,
            ObjReply(
                oid,
                request.request_id,
                entry.version,
                data,
                requester,
                True,
                state,
                mig_op,
            ),
        )
        self._demote_home(oid, entry, requester)
        # Any version-deferred requests now chase the new home.
        for pending in entry.pending.drain():
            self._handle_obj_request(pending)

    def _trace_decision(
        self,
        oid: int,
        state: ObjectAccessState,
        requester: int,
        alpha: float,
        migrated: bool,
    ) -> None:
        """Report one Eq-2 decision to whoever watches decisions (called
        only when ``_watch_decisions``)."""
        traced = self.tracer is not None and self.tracer.wants("decision")
        metered = self.metrics is not None
        log_debug = self.logger is not None and self.logger.enabled_for("debug")
        threshold = self.policy.current_threshold(state, alpha)
        if traced:
            self.tracer.record(
                "decision",
                self.sim.now,
                oid,
                self.node_id,
                requester=requester,
                threshold=threshold,
                consecutive=state.consecutive_writes,
                exclusive_home_writes=state.exclusive_home_writes,
                redirections=state.redirections,
                migrated=migrated,
                writer=state.consecutive_writer,
                alpha=alpha,
                base=state.threshold_base,
            )
        if metered:
            if threshold is not None:
                self.metrics.gauge("dsm_threshold", oid=oid).set(threshold)
            self.metrics.counter(
                "dsm_decisions_total", node=self.node_id, migrated=migrated
            ).inc()
        if log_debug:
            self.logger.debug(
                "decision",
                node=self.node_id,
                oid=oid,
                requester=requester,
                threshold=threshold,
                consecutive=state.consecutive_writes,
                migrated=migrated,
            )

    def _trace_migration(self, oid: int, new_home: int, state) -> None:
        if self.tracer is not None and self.tracer.wants("migration"):
            self.tracer.record(
                "migration",
                self.sim.now,
                oid,
                self.node_id,
                old_home=self.node_id,
                new_home=new_home,
                frozen_threshold=state.threshold_base,
            )
        if self._m_migrations is not None:
            self._m_migrations.inc()
        if self._log_info:
            self.logger.info(
                "migration",
                oid=oid,
                old_home=self.node_id,
                new_home=new_home,
                frozen_threshold=state.threshold_base,
            )

    def _close_dirty_home_interval(self, oid: int, entry: HomeEntry) -> None:
        """If the local thread wrote the home copy this interval, bump the
        version before shipping the home away, and carry the notice so the
        next local release still announces the write."""
        if oid in self.home_dirty:
            entry.version += 1
            self.home_dirty.discard(oid)
            if self.carry_notices.get(oid, 0) < entry.version:
                self.carry_notices[oid] = entry.version

    def _demote_home(self, oid: int, entry: HomeEntry, new_home: int) -> None:
        """Convert our home entry to a valid cached copy + forwarding pointer.

        Keeps the payload array object itself so local threads holding a
        reference from a ``read``/``write`` this interval keep writing into
        the node's own (now cached) copy; the shipped image was a snapshot.
        """
        del self.homes[oid]
        self.forwards[oid] = new_home
        self.home_hint[oid] = new_home
        self.cache[oid] = CacheEntry(entry.payload, entry.version)
        self.mechanism.on_migration(self, oid, new_home)

    def _handle_diff(self, msg: DiffMsg) -> None:
        oid = msg.oid
        entry = self.homes.get(oid)
        if entry is None:
            if oid in self.forwards:
                # Forward the diff along the chain (writer's hint was stale).
                self.stats.events["diff_forward"] += 1
                msg.hops += 1
                self._send(
                    self.forwards[oid],
                    _DIFF,
                    msg.diff.size_bytes + REQUEST_BYTES,
                    msg,
                )
            else:
                # Home transfer towards this node still in flight: defer.
                self.stats.events["deferred_diff"] += 1
                self._pending_diffs.add(oid, msg)
            return
        size_bytes = msg.diff.size_bytes
        version_before = entry.version
        # module-global lookup on purpose: the skip_diff mutation patches it
        apply_diff(entry.payload, msg.diff)
        entry.version += 1
        entry.state.record_remote_write(msg.writer, size_bytes)
        if self._tr_diff_apply:
            self.tracer.record(
                "diff_apply",
                self.sim.now,
                oid,
                self.node_id,
                writer=msg.writer,
                size_bytes=size_bytes,
                version_before=version_before,
                version_after=entry.version,
            )
        events = self.stats.events
        events["diff"] += 1
        events["remote_write"] += 1
        if self._m_diff_bytes is not None:
            self._m_diff_bytes.observe(size_bytes)
        self._send(
            msg.writer,
            _DIFF_ACK,
            ACK_BYTES,
            DiffAck(oid, msg.request_id, entry.version, self.node_id),
        )
        if entry.pending:
            self._recheck_pending(oid)

    def _recheck_pending(self, oid: int) -> None:
        """Serve version-deferred requests the latest bump made eligible.

        The version index pops exactly the newly-eligible requests (in
        arrival order), so a bump costs O(k log n) for k served instead
        of the historical O(n) full rescan — by far the hottest call
        site in the PR-1 profile.  If serving one of them migrates the
        home away, the rest of the batch chases the new home like any
        other stale-hint request.
        """
        entry = self.homes.get(oid)
        if entry is None or not entry.pending:
            return
        for request in entry.pending.pop_ready(entry.version):
            if oid in self.homes:
                self._serve_request(entry, request)
            else:
                self._handle_obj_request(request)

    def _serve_pending_foreign(self, oid: int) -> None:
        for request in self.pending_foreign.pop_all(oid):
            if isinstance(request, ShipRequest):
                self._handle_ship(request)
            else:
                self._handle_obj_request(request)

    def _serve_pending_diffs(self, oid: int) -> None:
        for diff_msg in self._pending_diffs.pop_all(oid):
            self._handle_diff(diff_msg)

    # -- lock manager --------------------------------------------------------

    def _handle_lock_acquire(self, msg: LockAcquireMsg) -> None:
        lock_id = msg.lock_id
        table = self.lock_table
        table.add_notices(lock_id, msg.notices)
        if (
            self.lock_discipline == "retry"
            and table.state(lock_id).holder is not None
        ):
            self._send(
                msg.requester,
                _LOCK_GRANT,
                SYNC_BASE_BYTES,
                LockGrantMsg(lock_id, msg.request_id, {}, True),
            )
            return
        if not table.try_acquire(lock_id, msg.requester, msg.request_id):
            return  # queued; the grant is sent when the holder releases
        notices = table.grant_notices(lock_id, msg.requester)
        self._send(
            msg.requester,
            _LOCK_GRANT,
            SYNC_BASE_BYTES + NOTICE_ENTRY_BYTES * len(notices),
            LockGrantMsg(lock_id, msg.request_id, notices),
        )

    # -- home manager / barrier migration ------------------------------------

    def _handle_home_query(self, msg: HomeQueryMsg) -> None:
        home = self.manager_home_map.get(msg.oid, self.heap.initial_home(msg.oid))
        self._send(
            msg.requester,
            MsgCategory.HOME_ANSWER,
            REQUEST_BYTES,
            HomeAnswerMsg(oid=msg.oid, request_id=msg.request_id, home=home),
        )

    def _execute_migrate_order(self, order: MigrateOrderMsg) -> None:
        """Barrier-ordered migration (JiaJia): ship the home to the writer."""
        entry = self.homes.get(order.oid)
        if entry is None:  # pragma: no cover - manager orders serially
            raise RuntimeError(
                f"migrate order for oid {order.oid} at node {self.node_id}, "
                "which is not the home"
            )
        state = entry.state
        self.policy.on_migrated(state, self.alpha(order.oid, state))
        self._trace_migration(order.oid, order.new_home, state)
        mig_op = None
        if self._sp is not None:
            # barrier-ordered: no requester fault to parent under
            mig_op = self._sp.open(
                "migration",
                self.sim.now,
                order.oid,
                self.node_id,
                parent=None,
                target=order.new_home,
            )
        self.stats.incr("mig")
        self.stats.incr("migration")
        self._close_dirty_home_interval(order.oid, entry)
        obj = self.heap.get(order.oid)
        self._send(
            order.new_home,
            MsgCategory.CONTROL,
            obj.size_bytes + REPLY_EXTRA_BYTES + MONITOR_BYTES,
            HomeTransferMsg(
                oid=order.oid,
                version=entry.version,
                data=self._dst_arena(order.new_home).take_copy(entry.payload),
                monitor=state,
                op_id=mig_op,
            ),
        )
        self._demote_home(order.oid, entry, order.new_home)
        for pending in entry.pending.drain():
            self._handle_obj_request(pending)

    def _install_home_transfer(self, msg: HomeTransferMsg) -> None:
        """Become the home of ``oid`` (barrier-ordered migration).

        If we hold a cached copy, the home payload reuses *that array
        object* (updated in place), so any reference a local thread took
        this interval keeps pointing at the node's authoritative copy.  A
        dirty WRITE copy (the local thread started writing before the
        transfer arrived) additionally has its uncommitted changes replayed
        on top of the transferred image and becomes a pending home write.
        """
        oid = msg.oid
        self.forwards.pop(oid, None)  # we are home again: drop stale pointer
        cached = self.cache.pop(oid, None)
        if cached is None:
            payload = msg.data
        else:
            payload = cached.payload
            local_diff = None
            if cached.twin is not None:
                local_diff = compute_diff(
                    oid,
                    cached.twin,
                    cached.payload,
                    scratch=self.arena.bool_scratch(cached.payload.size),
                )
                if self._tr_twin_free:
                    self.tracer.record(
                        "twin_free",
                        self.sim.now,
                        oid,
                        self.node_id,
                        interval=self.interval,
                    )
                self.arena.free(cached.twin)
                cached.twin = None
            payload[:] = msg.data
            # the transferred image was absorbed into the cached array;
            # its receive buffer (carved from our arena) is dead
            self.arena.free(msg.data)
            if local_diff is not None:
                apply_diff(payload, local_diff)
                self.dirty.discard(oid)
                self.home_dirty.add(oid)
                msg.monitor.record_home_write()
        self.homes[oid] = HomeEntry(
            payload=payload, version=msg.version, state=msg.monitor
        )
        self.home_hint[oid] = self.node_id
        if self._tr_home_install:
            self.tracer.record(
                "home_install",
                self.sim.now,
                oid,
                self.node_id,
                origin="transfer",
                version=msg.version,
            )
        if self._sp is not None and msg.op_id is not None:
            self._sp.close(
                msg.op_id,
                "migration",
                self.sim.now,
                oid,
                self.node_id,
                version=msg.version,
            )
        self._serve_pending_foreign(oid)
        self._serve_pending_diffs(oid)
        for fut in self._local_home_waits.pop(oid, []):
            fut.resolve(None)

    # -- interval bookkeeping (JiaJia) ----------------------------------------

    def clear_interval_writers(self) -> None:
        """Reset per-barrier-interval writer sets of local home entries."""
        for entry in self.homes.values():
            entry.state.interval_writers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DsmEngine node={self.node_id} homes={len(self.homes)} "
            f"cached={len(self.cache)}>"
        )
