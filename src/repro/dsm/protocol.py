"""The per-node home-based LRC protocol engine.

One :class:`DsmEngine` runs on every cluster node.  It owns the node's
object cache, the home entries of objects homed here, the forwarding
pointers of objects that migrated away, and the manager-side state of
locks and barriers homed here.  Thread-facing operations are the local
probes ``local_access.try_read``/``try_write`` (plain calls) and the
generators the simulation engine drives: ``_fault_in`` (the miss path),
``read_many``, ``ship``, ``acquire``, ``release`` and ``barrier``.
Message handling is plain functions ``handler(engine, payload)``, in one
category table per engine class that every engine shares.

The class is assembled from one mixin per part of the paper; this
module holds the constructor and ``__slots__`` — the one place that
declares state — the handler table and the shared helpers:

* :mod:`repro.dsm.faultin` — §3.1 fault-in and the home serving it,
  where the Eq-2 test runs; §5.1 object pushing and method shipping;
* :mod:`repro.dsm.interval` — twins, diffs and write notices; the
  Java-consistency flush;
* :mod:`repro.dsm.migration` — the home hand-off and its install
  (§3.1), barrier-ordered migration, the §3.2 home-location messages;
* :mod:`repro.dsm.sync` — locks and barriers: the managers and the
  request/reply helpers (shared with the homeless engine), and the
  home-based thread side;
* :mod:`repro.dsm.wire` — the message payloads and their byte sizes.

**Home writes** are trapped once per local synchronization interval,
mirroring §3.3's read-only-on-release protection of the home copy
(:meth:`~repro.dsm.faultin.FaultInMixin._trap_home_write`); an exclusive
home write increments the positive feedback ``E``.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro import _kernel
from repro.cluster.message import MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.core.policies import MigrationPolicy
from repro.core.state import ObjectAccessState
from repro.dsm.cache import CacheEntry
from repro.dsm.faultin import FaultInMixin
from repro.dsm.home import HomeEntry
from repro.dsm.interval import IntervalMixin
from repro.dsm.migration import MigrationMixin
from repro.dsm.redirection import NotificationMechanism
from repro.dsm.sync import SyncManager, SyncMixin
from repro.memory.heap import ObjectHeap
from repro.obs.spans import span_guard
from repro.sim.future import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


def check_lock_discipline(lock_discipline: str) -> None:
    """Refuse a lock discipline the engines do not offer, in one line."""
    if lock_discipline not in ("fifo", "retry"):
        raise ValueError(
            f"lock_discipline must be 'fifo' or 'retry', got "
            f"{lock_discipline!r}"
        )


class DsmEngine(
    FaultInMixin, IntervalMixin, MigrationMixin, SyncMixin, SyncManager
):
    """Home-based LRC protocol instance on one node.

    Slotted: a node pays for its own state only, and shares its class's
    methods and handler table with every other node.
    """

    __slots__ = (
        "policy", "mechanism", "tracer", "lock_discipline", "_rng",
        # trace guards and span handles (see __init__)
        "_tr_twin_create", "_tr_twin_free", "_tr_diff_send",
        "_tr_diff_apply", "_tr_home_install", "_tr_ship",
        "_watch_decisions", "_tr_serve", "_tr_barrier_epoch",
        "_sp_read_miss", "_sp_write_miss", "_sp_hop", "_sp_diff",
        "_sp_migration", "_sp_acquire", "_sp_release", "_sp_barrier",
        "_sp_ship",
        # protocol state
        "cache", "homes", "forwards", "home_hint", "dirty", "home_dirty",
        "carry_notices", "interval", "manager_home_map", "pending_foreign",
        "_pending_diffs", "_local_home_waits", "_inflight", "_overtaken",
        "_batches",
        # the local probes try_read/try_write: the seam table's
        # LocalAccess over this engine
        "local_access",
    )

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
        spans=None,
        release_fanout: int | None = None,
    ):
        check_lock_discipline(lock_discipline)
        mechanism.validate(network.nnodes)
        super().__init__(node_id, sim, network, heap, stats, release_fanout)
        self.policy = policy
        self.mechanism = mechanism
        self.tracer = tracer
        self.lock_discipline = lock_discipline
        if lock_discipline == "retry":
            # Read only by the retry back-off (``SyncMixin._acquire_retry``).
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
        # by every engine of the run; each span kind has its own cached
        # handle, None unless a consumer takes that kind, so an untaken
        # kind pays a single `is not None` per operation.  Span sites never
        # touch stats, message sizes or simulated time — the determinism
        # digest is bit-identical with spans on or off.
        self._sp_read_miss = span_guard(spans, "read_miss")
        self._sp_write_miss = span_guard(spans, "write_miss")
        self._sp_hop = span_guard(spans, "redirect_hop")
        self._sp_diff = span_guard(spans, "diff_flush")
        self._sp_migration = span_guard(spans, "migration")
        self._sp_acquire = span_guard(spans, "lock_acquire")
        self._sp_release = span_guard(spans, "lock_release")
        self._sp_barrier = span_guard(spans, "barrier_wait")
        self._sp_ship = span_guard(spans, "ship")

        #: Live cached copies of objects homed elsewhere.  Never rebound:
        #: the compiled LocalAccess holds this dict.
        self.cache: dict[int, CacheEntry] = {}
        self.homes: dict[int, HomeEntry] = {}
        self.forwards: dict[int, int] = {}
        #: Homes learned to differ from the object's initial home; every
        #: reader falls back to ``heap.initial_home`` (see _learn_home).
        self.home_hint: dict[int, int] = {}
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
        #: co-located threads piggyback on it (``None`` until one joins).
        self._inflight: dict[int, Future | None] = {}
        #: Fetches a co-located sync point overtook (PROTOCOL.md §12): per
        #: in-flight fault, the highest version a notice announced while
        #: it was out (empty unless a thread synchronizes mid-fetch); and
        #: every batch in flight, keyed by the ``id`` of its own such
        #: floor map, with the groups it asked for.
        self._overtaken: dict[int, int] = {}
        self._batches: dict[int, tuple[dict[int, list[int]], dict[int, int]]] = {}

        # The local-hit probes: the compiled LocalAccess runs the hit
        # bodies in C, and the Python bodies it twins on cold paths.
        self.local_access = _kernel.SEAMS.LocalAccess(
            self, not self._tr_twin_create
        )
        # The network delivers through per-node ports (in C under the
        # compiled engine); it binds this engine's sender once every node
        # has registered.
        self._register_endpoint()

    # -- helpers ------------------------------------------------------------

    def install_initial_home(self, oid: int) -> None:
        """Materialise the home entry for an object initially homed here."""
        obj = self.heap.get(oid)
        self.homes[oid] = HomeEntry(
            payload=obj.new_payload(),
            version=0,
            state=ObjectAccessState(
                oid=oid,
                object_bytes=obj.size_bytes,
                threshold_base=self.policy.initial_base(),
                half_peak_bytes=self.network.half_peak_bytes,
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

    def _learn_home(self, oid: int, home: int) -> None:
        """Record that ``oid``'s home is ``home``.

        ``home_hint`` keeps only homes that moved: learning the initial
        home again drops the hint, so the map holds what has migrated,
        not everything this node has touched (PROTOCOL.md §12).
        """
        if home == self.heap.initial_homes[oid]:
            self.home_hint.pop(oid, None)
        else:
            self.home_hint[oid] = home

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    @classmethod
    def _build_dispatch(cls, route_reply: Any) -> dict[MsgCategory, Any]:
        """Category -> ``handler(engine, payload)``: the class's plain
        functions, built once per backend (see
        :meth:`~repro.dsm.sync.SyncManager._handler_table`)."""
        return {
            MsgCategory.OBJ_REQUEST: cls._handle_obj_request,
            MsgCategory.OBJ_REPLY: route_reply,
            MsgCategory.OBJ_REPLY_MIG: route_reply,
            MsgCategory.REDIRECT: route_reply,
            MsgCategory.SHIP_REQUEST: cls._handle_ship,
            MsgCategory.SHIP_REPLY: route_reply,
            MsgCategory.DIFF: cls._handle_diff,
            MsgCategory.DIFF_ACK: route_reply,
            MsgCategory.LOCK_ACQUIRE: cls._handle_lock_acquire,
            MsgCategory.LOCK_GRANT: route_reply,
            MsgCategory.LOCK_RELEASE: cls._manager_release,
            MsgCategory.BARRIER_ARRIVE: cls._manager_barrier_arrive,
            MsgCategory.BARRIER_RELEASE: cls._on_barrier_release,
            MsgCategory.HOME_BCAST: cls._on_home_bcast,
            MsgCategory.HOME_UPDATE: cls._on_home_update,
            MsgCategory.HOME_QUERY: cls._handle_home_query,
            MsgCategory.HOME_ANSWER: route_reply,
            MsgCategory.CONTROL: cls._on_control,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DsmEngine node={self.node_id} homes={len(self.homes)} "
            f"cached={len(self.cache)}>"
        )
