"""Cluster interconnect topology models (opt-in; PROTOCOL.md §15).

The base :class:`~repro.cluster.network.Network` models one ideal
non-blocking switch: every (src, dst) pair pays the same Hockney cost.
Real 256–1024-node clusters are built from *hierarchies* of switches —
leaf switches wired into spines (2-tier) or edge/aggregation/core tiers
(3-tier folded-Clos, "fat-tree") — whose uplinks are usually
*oversubscribed*: the bandwidth leaving a leaf is a fraction of the
bandwidth below it.

A topology assigns every ordered pair a **cost triple**::

    (hop_us, bw_penalty, link)

* ``hop_us`` — fixed extra latency for the additional switch hops the
  path crosses beyond the ideal single switch (``extra_hops * hop_us``);
* ``bw_penalty`` — extra transfer time as a multiple of the base wire
  time: crossing an ``S:1`` oversubscribed uplink stretches the
  transfer by ``S``, so the *extra* time is ``total * (S-1) / r_inf``;
* ``link`` — the id of the shared uplink the path ascends through
  (``-1`` when the path stays under one switch).  With ``contention``
  enabled the uplink is a serialized resource like the per-node NIC:
  messages from the same leaf queue behind each other (store-and-
  forward at the oversubscribed tier); without it, oversubscription is
  charged as latency only.

The triple is a pure function of the pair's *equivalence class* (same
leaf / same pod / cross pod) and is stored that way — per class, never
per pair (DESIGN.md §6.10): ``levels`` nested tiers of switch groups as
``group_ids``, ``int64[levels, nnodes]``, innermost first (flat: none;
hier: ``leaf``; fat-tree: ``edge``, ``pod``), plus a ``float64[levels +
1, 2]`` table of class costs.  A pair's class ``k`` is the number of
tiers at which src and dst differ (tiers nest, so that is the outermost
differing tier; 0 = same innermost switch) and its uplink the source's
innermost group.  :meth:`ClusterTopology.pair` resolves that in at most
``levels`` integer compares, the compiled fabric does the same over its
own copy of the O(N) vectors, and both read the very same float64 class
costs — bit-identical by construction.

Everything here is strictly opt-in: a ``Network`` built without a
topology (or with :class:`FlatTopology`) keeps the seed's single-switch
behaviour bit for bit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "ClusterTopology",
    "FlatTopology",
    "HierarchicalTopology",
    "FatTreeTopology",
    "make_topology",
]


class ClusterTopology:
    """Base class: class-compressed cost model over a fixed node count.

    A subclass declares its tiers and class costs with :meth:`set_tiers`
    (until then it is the flat switch: no tier, one free class);
    :meth:`pair` is implemented here, once, from those vectors.
    """

    #: Report name of the topology family.
    kind: str = "topology"
    #: Family-specific constructor parameters :meth:`describe` reports.
    _params: tuple[str, ...] = ()

    def __init__(self, nnodes: int, contention: bool = False):
        if nnodes < 1:
            raise ValueError(f"need at least one node, got {nnodes}")
        self.nnodes = nnodes
        self.contention = bool(contention)
        self.set_tiers([], [(0.0, 0.0)], nlinks=0)

    def set_tiers(self, group_ids, class_costs, nlinks: int) -> None:
        """Declare the tiers (innermost first) and the per-class costs.

        ``group_ids[t][node]`` is the switch group of ``node`` at tier
        ``t``, in ``[0, nlinks)``; ``nlinks`` counts the innermost groups,
        i.e. the shared uplinks (contention resources).  Class ``k`` costs
        ``class_costs[k] == (hop_us, bw_penalty)``.  Tiers must nest — two
        nodes sharing a group share every outer group — or a pair's class
        would depend on more than its outermost differing tier.
        """
        n, levels = self.nnodes, len(group_ids)
        try:
            ids = np.array(group_ids, dtype=np.int64).reshape(levels, n)
            costs = np.array(class_costs, dtype=np.float64).reshape(levels + 1, 2)
        except ValueError as exc:
            raise ValueError(
                f"topology needs int64[{levels}, {n}] group ids and "
                f"float64[levels + 1 = {levels + 1}, 2] class costs ({exc})"
            ) from None
        lo, hi = (ids.min(), ids.max()) if levels else (0, -1)
        if not (0 <= nlinks <= n and 0 <= lo and hi < nlinks):
            raise ValueError(
                "need 0 <= nlinks <= nnodes and group ids in [0, nlinks), "
                f"got nlinks={nlinks}, ids {lo}..{hi}"
            )
        if not (np.isfinite(costs).all() and costs.min() >= 0):
            raise ValueError(
                f"class costs must be finite and >= 0, got {costs.tolist()}"
            )
        for tier, (below, above) in enumerate(zip(ids, ids[1:])):
            parent = np.empty(nlinks, dtype=np.int64)
            parent[below] = above
            if (parent[below] != above).any():
                raise ValueError(
                    f"tiers are not nested: a tier-{tier} group spans several "
                    f"tier-{tier + 1} groups"
                )
        ids.flags.writeable = costs.flags.writeable = False
        #: ``int64[levels, nnodes]`` group ids, innermost tier first.
        self.group_ids = ids
        #: ``float64[levels + 1, 2]`` per-class ``(hop_us, bw_penalty)``.
        self.class_costs = costs
        #: Number of distinct shared uplinks (contention resources).
        self.nlinks = nlinks
        # What pair() walks, as plain lists (they index several times faster
        # than numpy scalars): per tier the group ids and, per source node,
        # the ready-made triple of the class that tier opens.
        tiers = ids.tolist()
        self._same_switch = (*costs[0].tolist(), -1)
        self._tiers = [
            (groups, [(hop, pen, link) for link in tiers[0]])
            for groups, (hop, pen) in zip(tiers, costs[1:].tolist())
        ]

    def pair(self, src: int, dst: int) -> tuple[float, float, int]:
        """``(hop_us, bw_penalty, link)`` for one ordered pair."""
        triple = self._same_switch
        for groups, triples in self._tiers:
            if groups[src] == groups[dst]:
                break
            triple = triples[src]
        return triple

    def describe(self) -> dict[str, Any]:
        """JSON-friendly parameter summary for bench/report metadata."""
        return {
            "kind": self.kind,
            "nnodes": self.nnodes,
            "nlinks": self.nlinks,
            "contention": self.contention,
            **{name: getattr(self, name) for name in self._params},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.describe()}>"


class FlatTopology(ClusterTopology):
    """The ideal single switch: zero extra cost for every pair.

    Exists so sweeps can treat "no topology" uniformly; a ``Network``
    built with it is bit-identical to one built with ``topology=None``
    (the extra terms are exactly ``+0.0``).
    """

    kind = "flat"


class HierarchicalTopology(ClusterTopology):
    """Two-tier hierarchy: leaf switches under one non-blocking spine.

    Nodes ``[i*leaf_size, (i+1)*leaf_size)`` share leaf switch ``i``.
    Pairs under one leaf pay nothing extra; pairs crossing the spine pay
    two extra switch hops (up + down) and the leaf-uplink
    oversubscription penalty.  The shared uplink of the *source* leaf is
    the contention resource.
    """

    kind = "hier"
    _params = ("leaf_size", "hop_us", "oversubscription")

    def __init__(
        self,
        nnodes: int,
        leaf_size: int = 16,
        hop_us: float = 5.0,
        oversubscription: float = 1.0,
        contention: bool = False,
    ):
        super().__init__(nnodes, contention)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if hop_us < 0:
            raise ValueError(f"hop_us must be >= 0, got {hop_us}")
        if oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1, got {oversubscription}"
            )
        self.leaf_size = leaf_size
        self.hop_us = float(hop_us)
        self.oversubscription = float(oversubscription)
        leaf = np.arange(nnodes) // leaf_size
        self.set_tiers(
            [leaf],
            [(0.0, 0.0), (2.0 * self.hop_us, self.oversubscription - 1.0)],
            nlinks=int(leaf[-1]) + 1,
        )


class FatTreeTopology(ClusterTopology):
    """Three-tier folded Clos (edge / aggregation / core).

    ``edge_size`` hosts share an edge switch; ``pod_size`` edge switches
    form a pod under shared aggregation switches; pods meet at the core.
    Extra switch hops beyond the ideal single switch:

    * same edge switch — 0;
    * same pod (edge → agg → edge) — 2;
    * cross pod (edge → agg → core → agg → edge) — 4.

    ``oversubscription`` is the edge-uplink ratio (paid by every
    inter-edge pair); ``core_oversubscription`` compounds on top for
    cross-pod pairs (aggregate ratio ``edge * core``).  The contention
    resource is the source's edge uplink — the first (and with the edge
    tier oversubscribed, the thinnest) shared ascent of the path.
    """

    kind = "fat-tree"
    _params = (
        "edge_size", "pod_size", "hop_us", "oversubscription",
        "core_oversubscription",
    )

    def __init__(
        self,
        nnodes: int,
        edge_size: int = 16,
        pod_size: int = 4,
        hop_us: float = 5.0,
        oversubscription: float = 1.0,
        core_oversubscription: float = 1.0,
        contention: bool = False,
    ):
        super().__init__(nnodes, contention)
        if edge_size < 1:
            raise ValueError(f"edge_size must be >= 1, got {edge_size}")
        if pod_size < 1:
            raise ValueError(f"pod_size must be >= 1, got {pod_size}")
        if hop_us < 0:
            raise ValueError(f"hop_us must be >= 0, got {hop_us}")
        if oversubscription < 1.0 or core_oversubscription < 1.0:
            raise ValueError(
                "oversubscription ratios must be >= 1, got "
                f"{oversubscription} / {core_oversubscription}"
            )
        self.edge_size = edge_size
        self.pod_size = pod_size
        self.hop_us = float(hop_us)
        self.oversubscription = float(oversubscription)
        self.core_oversubscription = float(core_oversubscription)
        edge = np.arange(nnodes) // edge_size
        ratio = self.oversubscription
        self.set_tiers(
            [edge, edge // pod_size],
            [
                (0.0, 0.0),
                (2.0 * self.hop_us, ratio - 1.0),
                (4.0 * self.hop_us, ratio * self.core_oversubscription - 1.0),
            ],
            nlinks=int(edge[-1]) + 1,
        )


#: Spec-string parameter names -> (constructor kwarg, converter).
_PARAM_KEYS = {
    "leaf": ("leaf_size", int),
    "edge": ("edge_size", int),
    "pod": ("pod_size", int),
    "hop": ("hop_us", float),
    "oversub": ("oversubscription", float),
    "core-oversub": ("core_oversubscription", float),
    "contention": ("contention", lambda v: bool(int(v))),
}

_TOPOLOGY_KINDS = {
    "flat": FlatTopology,
    "hier": HierarchicalTopology,
    "fat-tree": FatTreeTopology,
}


def make_topology(
    spec: "str | dict | ClusterTopology | None", nnodes: int
) -> ClusterTopology | None:
    """Build a topology from a picklable spec.

    Accepts ``None`` (no topology — the seed's flat switch), an already
    constructed :class:`ClusterTopology` (whose ``nnodes`` must match),
    a dict ``{"kind": ..., **kwargs}``, or a compact colon string usable
    in :class:`~repro.bench.executor.RunSpec` fields and CLI flags::

        "flat"
        "hier:leaf=16:oversub=4:hop=2.5"
        "fat-tree:edge=8:pod=4:oversub=2:contention=1"
    """
    if spec is None:
        return None
    if isinstance(spec, ClusterTopology):
        if spec.nnodes != nnodes:
            raise ValueError(
                f"topology built for {spec.nnodes} nodes used on a "
                f"{nnodes}-node cluster"
            )
        return spec
    if isinstance(spec, dict):
        params = dict(spec)
        kind = params.pop("kind", "flat")
        cls = _TOPOLOGY_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown topology kind {kind!r}; "
                f"choose from {sorted(_TOPOLOGY_KINDS)}"
            )
        return cls(nnodes, **params)
    kind, _, rest = spec.partition(":")
    cls = _TOPOLOGY_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown topology kind {kind!r}; "
            f"choose from {sorted(_TOPOLOGY_KINDS)}"
        )
    kwargs: dict[str, Any] = {}
    if rest:
        for item in rest.split(":"):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed topology parameter {item!r} in {spec!r}"
                )
            try:
                kwarg, convert = _PARAM_KEYS[key]
            except KeyError:
                raise ValueError(
                    f"unknown topology parameter {key!r}; "
                    f"choose from {sorted(_PARAM_KEYS)}"
                ) from None
            kwargs[kwarg] = convert(value)
    return cls(nnodes, **kwargs)
