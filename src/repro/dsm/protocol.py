"""The per-node home-based LRC protocol engine.

One :class:`DsmEngine` runs on every cluster node.  It owns the node's
object cache, the home entries of objects homed here, the forwarding
pointers of objects that migrated away, and the manager-side state of
locks and barriers homed here.  Thread-facing operations are the local
probes ``try_read_local``/``try_write_local`` (plain calls) and the
generators the simulation engine drives: ``read_miss``/``write_miss``,
``read_many``, ``ship``, ``acquire``, ``release`` and ``barrier``.
Message handling is plain callbacks, dispatched by category.

The class is assembled from one mixin per part of the paper; this
module holds the constructor — the one place that declares state — the
dispatch table and the shared helpers:

* :mod:`repro.dsm.faultin` — §3.1 fault-in and the home serving it,
  where the Eq-2 test runs; §5.1 object pushing and method shipping;
* :mod:`repro.dsm.interval` — twins, diffs and write notices; the
  Java-consistency flush; barrier-epoch GC;
* :mod:`repro.dsm.migration` — the home hand-off and its install
  (§3.1), barrier-ordered migration, the §3.2 home-location messages;
* :mod:`repro.dsm.sync` — locks and barriers: the managers and the
  request/reply helpers (shared with the homeless engine), and the
  home-based thread side;
* :mod:`repro.dsm.wire` — the message payloads and their byte sizes.

**Home accesses** are trapped once per local synchronization interval,
mirroring §3.3's invalid-on-acquire / read-only-on-release protection of
the home copy (:mod:`repro.dsm.home`); an exclusive home write
increments the positive feedback ``E``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, TYPE_CHECKING

from repro.cluster.message import MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.core.coefficient import home_access_coefficient
from repro.core.policies import MigrationPolicy
from repro.core.state import ObjectAccessState
from repro.dsm.cache import AccessMode, CacheEntry, CacheIndex
from repro.dsm.faultin import FaultInMixin
from repro.dsm.home import HomeEntry
from repro.dsm.interval import IntervalMixin
from repro.dsm.migration import MigrationMixin
from repro.dsm.redirection import NotificationMechanism
from repro.dsm.sync import SyncManager, SyncMixin
from repro.memory.arena import Arena, new_arena
from repro.memory.heap import ObjectHeap
from repro.sim.future import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

_READ = AccessMode.READ
_INVALID = AccessMode.INVALID


class DsmEngine(
    FaultInMixin, IntervalMixin, MigrationMixin, SyncMixin, SyncManager
):
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
        mechanism.validate(network.nnodes)
        super().__init__(node_id, sim, network, heap, stats, release_fanout)
        self.policy = policy
        self.mechanism = mechanism
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

        # -- trace guards, the engine's only observation output (cached so
        # the hot paths pay one attribute read when tracing is off; see
        # PROTOCOL.md §9 and §13) -------------------------------------------
        self._tr_twin_create = tracer is not None and tracer.wants("twin_create")
        self._tr_twin_free = tracer is not None and tracer.wants("twin_free")
        self._tr_diff_send = tracer is not None and tracer.wants("diff_send")
        self._tr_diff_apply = tracer is not None and tracer.wants("diff_apply")
        self._tr_home_install = (
            tracer is not None and tracer.wants("home_install")
        )
        self._tr_ship = tracer is not None and tracer.wants("ship")
        #: Unobserved, an Eq-2 decision costs no call.
        self._watch_decisions = tracer is not None and tracer.wants("decision")
        # values only the metrics sink reads (PROTOCOL.md §9)
        self._tr_serve = tracer is not None and tracer.wants("serve")
        self._tr_barrier_epoch = (
            tracer is not None and tracer.wants("barrier_epoch")
        )

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
        self.manager_home_map: dict[int, int] = {}

        #: Work that reached this node before the inbound hand-off of its
        #: object did (requests and ships; diffs), parked per oid in
        #: arrival order and served when the home is installed.
        self.pending_foreign: dict[int, list] = {}
        self._pending_diffs: dict[int, list] = {}
        #: Local threads waiting for an inbound home transfer (a barrier
        #: release can announce this node as the new home before the
        #: transfer message arrives).
        self._local_home_waits: dict[int, list[Future]] = {}
        #: Fault coalescing: one outstanding fault-in per object per node;
        #: co-located threads piggyback on it.
        self._inflight: dict[int, Future] = {}

        kernel_module = self._kernel
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
            # The Java-consistency flush is the C sweep itself, over the
            # never-rebound cache.
            self.invalidate_all_cached = partial(
                kernel_module.cache_invalidate_read, self.cache, _READ, _INVALID
            )
        # The network delivers through per-node ports (in C under the
        # compiled engine); it binds this engine's sender once every node
        # has registered.
        network.register_fast_dispatch(
            node_id, self._build_dispatch(), self._bind_sender
        )

    # -- helpers ------------------------------------------------------------

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

    def _dst_arena(self, node: int) -> Arena:
        """The arena a payload copy destined for ``node`` is carved from.

        Models the receive buffer the destination allocates: the copy's
        lifetime is entirely on the receiving node, so its storage should
        come from — and eventually return to — that node's pool.
        """
        if self.arenas is not None:
            return self.arenas[node]
        return self.arena

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

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def _build_dispatch(self) -> dict[MsgCategory, Any]:
        """Category -> bound payload handler (built once per engine)."""
        resolve_reply = self._reply_route
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DsmEngine node={self.node_id} homes={len(self.homes)} "
            f"cached={len(self.cache)}>"
        )
