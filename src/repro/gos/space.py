"""The Global Object Space: one simulated cluster-wide object heap."""

from __future__ import annotations

from repro.cluster.hockney import HockneyModel
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.core.policies import MigrationPolicy, NoMigration
from repro.dsm.barrier import BarrierHandle
from repro.dsm.locks import LockHandle
from repro.dsm.protocol import DsmEngine
from repro.dsm.redirection import (
    ForwardingPointerMechanism,
    NotificationMechanism,
)
from repro.memory.arena import Arena, new_arena
from repro.memory.heap import ObjectHeap
from repro.memory.objects import SharedObject
from repro.obs.spans import SpanTracer
from repro.sim.engine import make_simulator

import numpy as np


class GlobalObjectSpace:
    """Builds and owns the whole simulated DSM machine.

    One instance = one cluster: the simulator, the network, one
    :class:`~repro.dsm.protocol.DsmEngine` per node, and the object heap.
    :class:`~repro.gos.homeless.HomelessObjectSpace` builds the same
    cluster around the homeless baseline's engines.
    Applications allocate objects, locks and barriers through it; threads
    access them through :class:`~repro.gos.thread.ThreadContext`.
    """

    def __init__(
        self,
        nnodes: int,
        comm_model: HockneyModel,
        policy: MigrationPolicy | None = None,
        mechanism: NotificationMechanism | None = None,
        service_us: float | None = None,
        tracer=None,
        lock_discipline: str = "fifo",
        seed: int = 0,
        gc_enabled: bool = True,
        topology=None,
        release_fanout: int | None = None,
    ):
        self.sim = make_simulator()
        self.stats = ClusterStats()
        self.policy = policy if policy is not None else NoMigration()
        self.mechanism = (
            mechanism if mechanism is not None else ForwardingPointerMechanism()
        )
        #: The engines' one observation output: trace events and spans.
        #: Metrics and the run log attach as sinks on it
        #: (:mod:`repro.obs.sinks`).
        self.tracer = tracer
        #: Causal span layer: one shared :class:`~repro.obs.spans.SpanTracer`
        #: makes op ids run-unique across all engines.  It disables itself
        #: unless the tracer is a span sink or captures both span kinds, so a
        #: ``kinds=("migration",)`` recorder (e.g. the determinism digest)
        #: pays one cached ``None`` check per operation.
        self.spans = SpanTracer(tracer) if tracer is not None else None
        #: Opt-in interconnect topology (PROTOCOL.md §15) — a
        #: :class:`~repro.cluster.topology.ClusterTopology`, spec string
        #: or dict; ``None`` keeps the seed's ideal single switch.
        self.network = Network(
            self.sim, comm_model, nnodes, self.stats, service_us=service_us,
            topology=topology,
        )
        self.heap = ObjectHeap()
        #: One arena per node, shared across engines so reply payload
        #: copies are carved from the *receiving* node's pool (the
        #: free/reuse cycle then closes inside each node; see
        #: :class:`~repro.memory.arena.Arena`).
        self.arenas = [new_arena(label=f"node{i}") for i in range(nnodes)]
        self.gc_enabled = gc_enabled
        self.engines = [
            self._new_engine(
                i,
                lock_discipline=lock_discipline,
                seed=seed,
                release_fanout=release_fanout,
            )
            for i in range(nnodes)
        ]
        self._next_lock_id = 1
        self._next_barrier_id = 1

    def _new_engine(self, node_id: int, **engine_kwargs) -> DsmEngine:
        """The protocol engine of node ``node_id``; the rest of the build
        is protocol-independent (the homeless space overrides this)."""
        return DsmEngine(
            node_id=node_id,
            sim=self.sim,
            network=self.network,
            heap=self.heap,
            stats=self.stats,
            policy=self.policy,
            mechanism=self.mechanism,
            tracer=self.tracer,
            arenas=self.arenas,
            gc_enabled=self.gc_enabled,
            spans=self.spans,
            **engine_kwargs,
        )

    @property
    def nnodes(self) -> int:
        return self.network.nnodes

    # -- allocation ---------------------------------------------------------

    def alloc_array(
        self,
        length: int,
        dtype: str = "float64",
        home: int = 0,
        label: str = "",
        meta=None,
    ) -> SharedObject:
        """Allocate a shared array object initially homed at ``home``."""
        obj = self.heap.alloc_array(length, dtype, home=home, label=label, meta=meta)
        self.engines[home].install_initial_home(obj.oid)
        return obj

    def alloc_fields(
        self,
        fields,
        dtype: str = "float64",
        home: int = 0,
        label: str = "",
        meta=None,
    ) -> SharedObject:
        """Allocate a shared fields object initially homed at ``home``."""
        obj = self.heap.alloc_fields(fields, dtype, home=home, label=label, meta=meta)
        self.engines[home].install_initial_home(obj.oid)
        return obj

    def alloc_lock(self, home: int = 0) -> LockHandle:
        """Allocate a distributed lock managed at node ``home``."""
        handle = LockHandle(lock_id=self._next_lock_id, home=home)
        self._next_lock_id += 1
        return handle

    def alloc_barrier(self, parties: int, home: int = 0) -> BarrierHandle:
        """Allocate a barrier for ``parties`` threads, managed at ``home``."""
        handle = BarrierHandle(
            barrier_id=self._next_barrier_id, home=home, parties=parties
        )
        self._next_barrier_id += 1
        self.engines[home].register_barrier(handle)
        return handle

    # -- global (simulation-level) accessors ---------------------------------

    def current_home(self, obj: SharedObject) -> int:
        """The node currently homing ``obj`` (simulation-level view)."""
        for engine in self.engines:
            if obj.oid in engine.homes:
                return engine.node_id
        raise RuntimeError(f"object {obj!r} has no home (transfer in flight?)")

    def read_global(self, obj: SharedObject) -> np.ndarray:
        """Copy of the authoritative (home) payload — for verification only.

        Only meaningful once the simulation is quiescent; the harness uses
        it to check application results against sequential oracles.
        """
        return self.engines[self.current_home(obj)].homes[obj.oid].payload.copy()

    def write_global(self, obj: SharedObject, values: np.ndarray) -> None:
        """Initialise the home payload directly — for pre-run setup only.

        Models the application's sequential initialisation phase without
        charging DSM traffic for it (the paper measures the parallel
        phase; objects "exhibit the single-writer access pattern *after*
        they are initialized", §5.1).
        """
        payload = self.engines[self.current_home(obj)].homes[obj.oid].payload
        payload[:] = values

    def migration_count(self) -> int:
        """Total home migrations performed so far."""
        return self.stats.events.get("migration", 0)

    def protocol_memory_estimate(self) -> dict:
        """Estimated protocol metadata footprint in bytes, per concern.

        Models the paper's §5 containment claim: the adaptive protocol's
        extra memory — the per-object monitor counters (threshold,
        consecutive writes, redirections, exclusive home writes) — exists
        only for objects that actually have a home entry, plus one word
        per forwarding pointer left behind by migrations.  Cached copies
        are the data cost any DSM pays and are reported separately.
        """
        MONITOR_BYTES = 48  # T, C+writer, E, R, diff-EWMA, counters
        POINTER_BYTES = 8
        monitor = 0
        forwards = 0
        cache_payload = 0
        for engine in self.engines:
            monitor += MONITOR_BYTES * len(engine.homes)
            forwards += POINTER_BYTES * len(engine.forwards)
            cache_payload += sum(
                entry.payload.nbytes for entry in engine.cache.values()
            )
        return {
            "monitor_bytes": monitor,
            "forwarding_bytes": forwards,
            "cache_payload_bytes": cache_payload,
        }

    def memory_footprint(self) -> dict:
        """Cluster-wide memory-engine snapshot (arena + GC + cache state).

        Everything the memory tier reports: summed arena accounting,
        live protocol state sizes, and the heap's payload denominator
        (one full replica set costs ``heap_data_bytes``).  Pure
        introspection — reading it changes nothing.
        """
        arena_totals = {
            "slabs": 0,
            "slab_bytes": 0,
            "carves": 0,
            "reuses": 0,
            "frees": 0,
            "live_bytes": 0,
            "pooled_bytes": 0,
            "pooled_buffers": 0,
            "scratch_bytes": 0,
        }
        for arena in self.arenas:
            snap = arena.stats()
            for key in arena_totals:
                arena_totals[key] += snap[key]
        cache_entries = 0
        cache_payload = 0
        notice_floors = 0
        gc_cache_drops = 0
        gc_notice_prunes = 0
        for engine in self.engines:
            cache_entries += len(engine.cache)
            cache_payload += sum(
                entry.payload.nbytes for entry in engine.cache.values()
            )
            notice_floors += len(engine.required_version)
            gc_cache_drops += engine.gc_cache_drops
            gc_notice_prunes += engine.gc_notice_prunes
        return {
            "arena": arena_totals,
            "cache_entries": cache_entries,
            "cache_payload_bytes": cache_payload,
            "notice_floors": notice_floors,
            "gc_cache_drops": gc_cache_drops,
            "gc_notice_prunes": gc_notice_prunes,
            "gc_enabled": self.gc_enabled,
            "heap_data_bytes": self.heap.total_data_bytes(),
            "peaks": self.stats.memory_snapshot(),
        }
