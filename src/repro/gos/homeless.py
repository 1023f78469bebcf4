"""A GlobalObjectSpace running the homeless protocol.

Lets the same applications and :class:`~repro.gos.jvm.DistributedJVM`
machinery run on the TreadMarks-style baseline
(:class:`~repro.dsm.homeless.HomelessEngine`) for the home-based vs
homeless ablation.  The cluster build — simulator, network and
topology, heap, lock and barrier allocation — is
:class:`~repro.gos.space.GlobalObjectSpace`'s; this subclass swaps the
engines and replaces what needs a home: the global read/write view and
diff garbage collection.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.hockney import HockneyModel
from repro.cluster.message import MsgCategory
from repro.dsm.homeless import HomelessEngine, _GcTraffic
from repro.gos.space import GlobalObjectSpace
from repro.memory.diff import apply_diff
from repro.memory.objects import SharedObject

#: Why the homeless baseline takes only FIFO locks.
RETRY_UNSUPPORTED = (
    "lock_discipline='retry' needs the home-based protocol: the homeless "
    "baseline's thread side has no retry loop; use lock_discipline='fifo'"
)


class HomelessObjectSpace(GlobalObjectSpace):
    """GlobalObjectSpace backed by HomelessEngine.

    Takes :class:`~repro.gos.space.GlobalObjectSpace`'s keyword options;
    topology and ``release_fanout`` act as there, FIFO is the only lock
    discipline, and the home-based ones (policy, mechanism, seed,
    tracing) have nothing to act on here.
    """

    def __init__(
        self,
        nnodes: int,
        comm_model: HockneyModel,
        service_us: float | None = None,
        gc_threshold_bytes: int | None = None,
        **space_kwargs,
    ):
        if gc_threshold_bytes is not None and gc_threshold_bytes <= 0:
            raise ValueError(
                f"gc threshold must be positive, got {gc_threshold_bytes}"
            )
        super().__init__(
            nnodes, comm_model, service_us=service_us, **space_kwargs
        )
        #: Cluster-wide retained-diff budget; exceeded => global GC at the
        #: next barrier (TreadMarks-style; None disables collection).
        self.gc_threshold_bytes = gc_threshold_bytes
        if gc_threshold_bytes is not None:
            for engine in self.engines:
                engine.on_barrier_complete = self._maybe_gc

    def _new_engine(
        self,
        node_id: int,
        lock_discipline: str,
        release_fanout: int | None,
        **_home_based,
    ) -> HomelessEngine:
        if lock_discipline != "fifo":
            raise ValueError(RETRY_UNSUPPORTED)
        return HomelessEngine(
            node_id=node_id,
            sim=self.sim,
            network=self.network,
            heap=self.heap,
            stats=self.stats,
            release_fanout=release_fanout,
        )

    def write_global(self, obj: SharedObject, values: np.ndarray) -> None:
        """Set the shared initial image every node starts from."""
        payload = obj.new_payload()
        payload[:] = values
        self.heap.initial_values[obj.oid] = payload

    def read_global(self, obj: SharedObject) -> np.ndarray:
        """Authoritative final state: initial image + every retained diff,
        applied in causal (flush-stamp) order — for verification only."""
        payload = obj.new_payload()
        initial = self.heap.initial_values.get(obj.oid)
        if initial is not None:
            payload[:] = initial
        stamped = []
        for engine in self.engines:
            for item in engine.history.get(obj.oid, []):
                stamped.append((item.stamp, engine.node_id, item.seq, item.diff))
        for _stamp, _writer, _seq, diff in sorted(
            stamped, key=lambda t: (t[0], t[1], t[2])
        ):
            apply_diff(payload, diff)
        return payload

    def retained_diff_bytes(self) -> int:
        """Bytes of diffs currently held across all writers."""
        return sum(engine.retained_bytes for engine in self.engines)

    def _maybe_gc(self) -> None:
        if self.retained_diff_bytes() > self.gc_threshold_bytes:
            self.gc()

    def gc(self) -> None:
        """Global diff garbage collection (TreadMarks-style, §1's cost).

        Runs at a barrier safe point (every thread has flushed, so no twin
        is live).  Consolidates each written object's diffs into a new
        shared base image, clears all histories/applied/required state,
        and charges the traffic: each writer ships its retained diffs to
        the coordinator, which ships rebased images to every node holding
        a replica of a collected object.
        """
        self.stats.incr("homeless_gc")
        written_oids = sorted(
            {oid for engine in self.engines for oid in engine.history}
        )
        coordinator = 0
        # phase 1: contribute retained diffs to the coordinator
        for engine in self.engines:
            if engine.node_id != coordinator and engine.retained_bytes:
                self.network.send(
                    engine.node_id,
                    coordinator,
                    MsgCategory.CONTROL,
                    engine.retained_bytes,
                    _GcTraffic(phase="contribute"),
                )
        # consolidate: new base image per written object
        rebased = {}
        for oid in written_oids:
            obj = self.heap.get(oid)
            rebased[oid] = self.read_global(obj)
        # phase 2: rebase every node
        for engine in self.engines:
            rebase_bytes = 0
            for oid in written_oids:
                replica = engine.replicas.get(oid)
                if replica is not None:
                    if replica.twin is not None:
                        raise RuntimeError(
                            "global GC outside a safe point: node "
                            f"{engine.node_id} has a dirty twin for {oid}"
                        )
                    replica.payload[:] = rebased[oid]
                    replica.applied.clear()
                    rebase_bytes += self.heap.get(oid).size_bytes
                engine.history.pop(oid, None)
                for key in [
                    k for k in engine.required if k[0] == oid
                ]:
                    del engine.required[key]
            engine.retained_bytes = 0
            if engine.node_id != coordinator and rebase_bytes:
                self.network.send(
                    coordinator,
                    engine.node_id,
                    MsgCategory.CONTROL,
                    rebase_bytes,
                    _GcTraffic(phase="rebase"),
                )
        # the consolidated images become the shared epoch base every
        # later materialisation starts from
        for oid, image in rebased.items():
            self.heap.initial_values[oid] = image
