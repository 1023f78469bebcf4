"""Tests for the interconnect topology models (PROTOCOL.md §15).

Covers the per-pair cost triples of the hierarchical and fat-tree
models, the colon-spec/dict/instance forms of :func:`make_topology`,
and the Network integration: hop latency, oversubscription penalty,
and serialized uplink contention on the network's send path.
"""

import pytest

from repro.cluster.hockney import HockneyModel
from repro.cluster.message import HEADER_BYTES, MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.cluster.topology import (
    ClusterTopology,
    FatTreeTopology,
    FlatTopology,
    HierarchicalTopology,
    make_topology,
)
from repro.sim.engine import Simulator

#: startup 100 us, 10 MB/s == 10 bytes/us — round numbers for hand math.
MODEL = HockneyModel(startup_us=100.0, bandwidth_mb_s=10.0)


def _build(nnodes, topology=None):
    sim = Simulator()
    net = Network(
        sim, MODEL, nnodes, ClusterStats(), service_us=0.0,
        topology=topology,
    )
    inbox = []
    for node in net.nodes:
        node.install_handler(
            lambda payload, nid=node.node_id: inbox.append((nid, sim.now))
        )
    return sim, net, inbox


# -- per-pair cost triples -------------------------------------------------


def test_flat_topology_is_free():
    topo = FlatTopology(8)
    for src in range(8):
        for dst in range(8):
            assert topo.pair(src, dst) == (0.0, 0.0, -1)


def test_hierarchical_pair_classes():
    # leaves: {0..3} {4..7} {8..11}
    topo = HierarchicalTopology(
        12, leaf_size=4, hop_us=5.0, oversubscription=4.0
    )
    assert topo.nlinks == 3
    # same leaf: free, no shared uplink
    assert topo.pair(0, 3) == (0.0, 0.0, -1)
    # cross leaf: 2 extra hops, (S-1) penalty, source leaf's uplink
    assert topo.pair(0, 4) == (10.0, 3.0, 0)
    assert topo.pair(11, 2) == (10.0, 3.0, 2)


def test_fat_tree_pair_classes():
    # edges of 2 nodes, pods of 2 edges: pods {0..3} {4..7}
    topo = FatTreeTopology(
        8,
        edge_size=2,
        pod_size=2,
        hop_us=5.0,
        oversubscription=2.0,
        core_oversubscription=3.0,
    )
    assert topo.nlinks == 4
    assert topo.pair(0, 1) == (0.0, 0.0, -1)  # same edge
    # same pod: edge->agg->edge = 2 extra hops, edge oversub only
    assert topo.pair(0, 2) == (10.0, 1.0, 0)
    # cross pod: 4 extra hops, compounded ratio 2*3 -> penalty 5
    assert topo.pair(0, 4) == (20.0, 5.0, 0)
    # the contention link is always the *source* edge uplink
    assert topo.pair(5, 0) == (20.0, 5.0, 2)


def _reference_pair(kind, params, src, dst):
    """The cost triple straight from the class docstrings' definitions:
    integer division places a node, the outermost tier two nodes do not
    share prices the pair, the source's innermost switch is the uplink."""
    hop = params.get("hop_us", 5.0)
    oversub = params.get("oversubscription", 1.0)
    if kind == "hier":
        leaf = params["leaf_size"]
        if src // leaf == dst // leaf:
            return (0.0, 0.0, -1)
        return (2.0 * hop, oversub - 1.0, src // leaf)
    if kind == "fat-tree":
        edge = params["edge_size"]
        pod = edge * params["pod_size"]
        if src // edge == dst // edge:
            return (0.0, 0.0, -1)
        if src // pod == dst // pod:
            return (2.0 * hop, oversub - 1.0, src // edge)
        core = params.get("core_oversubscription", 1.0)
        return (4.0 * hop, oversub * core - 1.0, src // edge)
    return (0.0, 0.0, -1)


@pytest.mark.parametrize("nnodes", [1, 2, 12, 100])
@pytest.mark.parametrize(
    "kind, params",
    [
        ("flat", {}),
        # 12 and 100 nodes leave a ragged last leaf
        ("hier", {"leaf_size": 8, "hop_us": 2.5, "oversubscription": 4.0}),
        ("hier", {"leaf_size": 1, "oversubscription": 1.5}),
        # ragged last edge *and* ragged last pod at 12 and 100 nodes
        (
            "fat-tree",
            {"edge_size": 8, "pod_size": 3, "hop_us": 1.5,
             "oversubscription": 2.0, "core_oversubscription": 3.0},
        ),
        ("fat-tree", {"edge_size": 2, "pod_size": 2, "oversubscription": 2.0}),
    ],
    ids=["flat", "hier-leaf8", "hier-leaf1", "fat-tree-e8p3", "fat-tree-e2p2"],
)
def test_pair_matches_definition(kind, params, nnodes):
    """The one base-class pair(), fed only tier vectors and class costs,
    equals the definition on every ordered pair."""
    topo = make_topology({"kind": kind, **params}, nnodes)
    assert type(topo).pair is ClusterTopology.pair
    levels = {"flat": 0, "hier": 1, "fat-tree": 2}[kind]
    assert topo.group_ids.shape == (levels, nnodes)
    assert topo.class_costs.shape == (levels + 1, 2)
    for src in range(nnodes):
        for dst in range(nnodes):
            if src != dst:
                assert topo.pair(src, dst) == _reference_pair(
                    kind, params, src, dst
                ), (src, dst)
    switch = params.get("leaf_size") or params.get("edge_size")
    assert topo.nlinks == (-(-nnodes // switch) if switch else 0)


def test_three_tier_declaration_prices_the_outermost_differing_tier():
    """pair() is generic in the number of tiers: a rack/row/hall layout
    declared with set_tiers() needs no code of its own."""
    topo = ClusterTopology(8, contention=True)
    topo.set_tiers(
        [[0, 0, 1, 1, 2, 2, 3, 3], [0, 0, 0, 0, 1, 1, 2, 2],
         [0, 0, 0, 0, 0, 0, 1, 1]],
        [(0.0, 0.0), (1.0, 0.5), (2.0, 1.5), (3.0, 2.5)],
        nlinks=4,
    )
    assert topo.pair(0, 1) == (0.0, 0.0, -1)
    assert topo.pair(2, 0) == (1.0, 0.5, 1)
    assert topo.pair(0, 5) == (2.0, 1.5, 0)
    assert topo.pair(4, 6) == (3.0, 2.5, 2)
    assert topo.pair(7, 0) == (3.0, 2.5, 3)
    assert not topo.group_ids.flags.writeable


# -- constructor validation ------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError, match="at least one node"):
        FlatTopology(0)
    with pytest.raises(ValueError, match="leaf_size"):
        HierarchicalTopology(8, leaf_size=0)
    with pytest.raises(ValueError, match="hop_us"):
        HierarchicalTopology(8, hop_us=-1.0)
    with pytest.raises(ValueError, match="oversubscription"):
        HierarchicalTopology(8, oversubscription=0.5)
    with pytest.raises(ValueError, match="edge_size"):
        FatTreeTopology(8, edge_size=0)
    with pytest.raises(ValueError, match="pod_size"):
        FatTreeTopology(8, pod_size=0)
    with pytest.raises(ValueError, match="ratios"):
        FatTreeTopology(8, core_oversubscription=0.9)


#: Malformed tier declarations for a 4-node cluster, shared with the
#: compiled fabric's negative tests (tests/test_kernel.py): the two
#: validators must reject the same inputs.
BAD_TIERS = {
    "negative group id": dict(
        group_ids=[[0, 0, -2, 1]], class_costs=[(0.0, 0.0), (1.0, 1.0)],
        nlinks=2, match="group id",
    ),
    "group id >= nlinks": dict(
        group_ids=[[0, 0, 1, 2]], class_costs=[(0.0, 0.0), (1.0, 1.0)],
        nlinks=2, match="group id",
    ),
    "more uplinks than nodes": dict(
        group_ids=[[0, 0, 1, 1]], class_costs=[(0.0, 0.0), (1.0, 1.0)],
        nlinks=5, match="nlinks",
    ),
    "tier length != nnodes": dict(
        group_ids=[[0, 0, 1]], class_costs=[(0.0, 0.0), (1.0, 1.0)],
        nlinks=2, match="group_ids|group ids",
    ),
    "cost table length != levels + 1": dict(
        group_ids=[[0, 0, 1, 1]],
        class_costs=[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
        nlinks=2, match="levels \\+ 1",
    ),
    "negative cost": dict(
        group_ids=[[0, 0, 1, 1]], class_costs=[(0.0, 0.0), (-1.0, 1.0)],
        nlinks=2, match="finite and >= 0",
    ),
    "non-finite cost": dict(
        group_ids=[[0, 0, 1, 1]],
        class_costs=[(0.0, 0.0), (1.0, float("nan"))],
        nlinks=2, match="finite and >= 0",
    ),
    # nodes 1 and 2 share an edge switch but sit in different pods
    "non-nested tiers": dict(
        group_ids=[[0, 1, 1, 2], [0, 0, 1, 1]],
        class_costs=[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
        nlinks=3, match="not nested",
    ),
}


@pytest.mark.parametrize("case", BAD_TIERS)
def test_set_tiers_rejects_malformed_declarations(case):
    bad = dict(BAD_TIERS[case])
    match = bad.pop("match")
    topo = FlatTopology(4)
    with pytest.raises(ValueError, match=match) as err:
        topo.set_tiers(**bad)
    assert "\n" not in str(err.value)
    # a rejected declaration leaves the topology as it was
    assert topo.pair(0, 3) == (0.0, 0.0, -1)


# -- make_topology spec forms ----------------------------------------------


def test_make_topology_none_and_instance():
    assert make_topology(None, 8) is None
    topo = HierarchicalTopology(8, leaf_size=4)
    assert make_topology(topo, 8) is topo
    with pytest.raises(ValueError, match="built for 8 nodes"):
        make_topology(topo, 16)


def test_make_topology_from_string():
    topo = make_topology("hier:leaf=4:oversub=4:hop=2.5:contention=1", 12)
    assert isinstance(topo, HierarchicalTopology)
    assert topo.leaf_size == 4
    assert topo.oversubscription == 4.0
    assert topo.hop_us == 2.5
    assert topo.contention is True

    topo = make_topology("fat-tree:edge=2:pod=2:core-oversub=3", 8)
    assert isinstance(topo, FatTreeTopology)
    assert topo.core_oversubscription == 3.0
    assert topo.contention is False

    assert isinstance(make_topology("flat", 4), FlatTopology)


def test_make_topology_from_dict():
    topo = make_topology(
        {"kind": "fat-tree", "edge_size": 2, "pod_size": 2}, 8
    )
    assert isinstance(topo, FatTreeTopology)
    assert topo.edge_size == 2


def test_make_topology_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown topology kind"):
        make_topology("torus", 8)
    with pytest.raises(ValueError, match="unknown topology kind"):
        make_topology({"kind": "torus"}, 8)
    with pytest.raises(ValueError, match="unknown topology parameter"):
        make_topology("hier:leaves=4", 8)
    with pytest.raises(ValueError, match="malformed topology parameter"):
        make_topology("hier:leaf", 8)


# -- Network integration ---------------------------------------------------


def test_flat_topology_matches_no_topology():
    """A flat topology charges exactly the seed's single-switch cost."""
    for topology in (None, "flat"):
        sim, net, inbox = _build(4, topology=topology)
        net.send(0, 3, MsgCategory.CONTROL, size_bytes=460)
        sim.run()
        (_, t), = inbox
        # 500B total / 10 B/us = 50 us wire + 100 us startup
        assert t == pytest.approx(150.0)


def test_cross_leaf_pays_hops_and_penalty():
    sim, net, inbox = _build(
        8, topology="hier:leaf=4:hop=5:oversub=4"
    )
    net.send(0, 4, MsgCategory.CONTROL, size_bytes=460)
    sim.run()
    (_, t), = inbox
    # 50 wire + 100 startup + 2*5 hops + 50*(4-1) oversub stretch
    assert t == pytest.approx(310.0)


def test_same_leaf_stays_at_hockney_cost():
    sim, net, inbox = _build(
        8, topology="hier:leaf=4:hop=5:oversub=4"
    )
    net.send(0, 3, MsgCategory.CONTROL, size_bytes=460)
    sim.run()
    (_, t), = inbox
    assert t == pytest.approx(150.0)


def test_contention_serializes_same_leaf_uplink():
    """Two same-leaf senders crossing the spine queue on the shared
    uplink: the second message's occupancy starts when the first ends."""
    sim, net, inbox = _build(
        8, topology="hier:leaf=4:hop=5:oversub=4:contention=1"
    )
    net.send(0, 4, MsgCategory.CONTROL, size_bytes=460)
    net.send(1, 5, MsgCategory.CONTROL, size_bytes=460)
    sim.run()
    times = dict(inbox)
    # first: NIC 0..50, uplink occupancy 500*4/10 = 200 -> ends 250,
    # + startup 100 + hops 10 = 360
    assert times[4] == pytest.approx(360.0)
    # second: own NIC free (different node) -> injection ends 50, but
    # the leaf uplink is busy until 250 -> ends 450, arrives 560
    assert times[5] == pytest.approx(560.0)


def test_contention_leaves_other_leaves_alone():
    """Senders on different leaves use different uplinks: no queueing."""
    sim, net, inbox = _build(
        8, topology="hier:leaf=4:hop=5:oversub=4:contention=1"
    )
    net.send(0, 4, MsgCategory.CONTROL, size_bytes=460)
    net.send(4, 0, MsgCategory.CONTROL, size_bytes=460)
    sim.run()
    times = dict(inbox)
    assert times[4] == pytest.approx(360.0)
    assert times[0] == pytest.approx(360.0)


def test_contention_intra_leaf_traffic_skips_uplink():
    """Same-leaf messages never occupy the uplink even with contention
    on — a later cross-leaf message sees a free link."""
    sim, net, inbox = _build(
        8, topology="hier:leaf=4:hop=5:oversub=4:contention=1"
    )
    net.send(0, 3, MsgCategory.CONTROL, size_bytes=460)
    net.send(1, 4, MsgCategory.CONTROL, size_bytes=460)
    sim.run()
    times = dict(inbox)
    assert times[3] == pytest.approx(150.0)
    # uplink was idle: occupancy 50..250, + 100 startup + 10 hops
    assert times[4] == pytest.approx(360.0)


def test_network_rejects_mismatched_topology():
    topo = HierarchicalTopology(16, leaf_size=4)
    with pytest.raises(ValueError, match="built for 16 nodes"):
        Network(Simulator(), MODEL, 8, ClusterStats(), topology=topo)


def test_describe_is_json_friendly():
    import json

    topo = make_topology("fat-tree:edge=2:pod=2:oversub=2:contention=1", 8)
    desc = json.loads(json.dumps(topo.describe()))
    assert desc["kind"] == "fat-tree"
    assert desc["nnodes"] == 8
    assert desc["contention"] is True
