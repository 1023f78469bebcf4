"""Tests for the large-N protocol paths (PR 9).

Covers the k-ary multicast tree used by fanned-out barrier releases and
HOME_BCAST relays, the mechanism parameter validation added for big
clusters (manager/shard ids must fit the cluster), the colon-parameter
mechanism specs, broadcast racing in-flight migrations at N >= 64, the
sharded home manager against the fuzzer corpus, and a complexity
regression pinning ~linear event/message growth in N for a fixed
per-node workload.
"""

import math

import pytest

from repro.bench.executor import RunSpec, run_spec
from repro.check.runner import run_episode
from repro.check.fuzz import generate_program
from repro.dsm.redirection import (
    BroadcastMechanism,
    ForwardingPointerMechanism,
    HomeManagerMechanism,
    fanout_children,
    make_mechanism,
)


# -- k-ary multicast tree --------------------------------------------------


@pytest.mark.parametrize("nnodes", [1, 2, 5, 16, 64, 257])
@pytest.mark.parametrize("fanout", [2, 4, 8])
@pytest.mark.parametrize("root", [0, 3])
def test_fanout_tree_spans_all_nodes_once(nnodes, fanout, root):
    """Every non-root node has exactly one parent; the root has none."""
    root = root % nnodes
    reached: dict[int, int] = {}
    for node in range(nnodes):
        for child in fanout_children(node, root, fanout, nnodes):
            assert child not in reached, "two parents forward to one node"
            reached[child] = node
    assert root not in reached
    assert len(reached) == nnodes - 1


def test_fanout_tree_depth_is_logarithmic():
    """Relay depth from the root is ceil(log_k N), not N."""
    nnodes, fanout, root = 1024, 4, 7
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            for child in fanout_children(node, root, fanout, nnodes):
                depth[child] = depth[node] + 1
                nxt.append(child)
        frontier = nxt
    assert len(depth) == nnodes
    assert max(depth.values()) == math.ceil(math.log(nnodes, fanout))


def test_fanout_children_counts():
    """Interior nodes forward to at most ``fanout`` children."""
    for node in range(64):
        kids = list(fanout_children(node, 0, 4, 64))
        assert len(kids) <= 4


# -- mechanism parameter validation (big-cluster guards) -------------------


def test_manager_node_must_fit_cluster():
    mech = HomeManagerMechanism(manager_node=8)
    with pytest.raises(ValueError, match="outside the 8-node cluster"):
        mech.validate(8)
    mech.validate(9)  # fits


def test_shards_must_fit_cluster():
    mech = HomeManagerMechanism(shards=8)
    with pytest.raises(ValueError, match="8 manager shards on a 4-node"):
        mech.validate(4)
    mech.validate(8)  # K == N is legal: one shard per node


def test_constructor_rejects_degenerate_parameters():
    with pytest.raises(ValueError, match="manager node"):
        HomeManagerMechanism(manager_node=-1)
    with pytest.raises(ValueError, match="shards"):
        HomeManagerMechanism(shards=0)
    with pytest.raises(ValueError, match="fanout"):
        BroadcastMechanism(fanout=1)
    BroadcastMechanism(fanout=2)  # minimum legal tree


def test_shard_for_routing():
    mech = HomeManagerMechanism(manager_node=3, shards=4)
    managers = {mech.shard_for(oid, 8) for oid in range(32)}
    assert managers == {3, 4, 5, 6}
    # stable: same oid always lands on the same shard
    assert mech.shard_for(17, 8) == mech.shard_for(17, 8)
    # one shard is the classic single manager regardless of oid
    classic = HomeManagerMechanism(manager_node=3)
    assert {classic.shard_for(oid, 8) for oid in range(32)} == {3}


def test_run_spec_rejects_out_of_range_manager():
    """Refused when the spec is written, before any run."""
    with pytest.raises(ValueError, match="outside the 4-node cluster"):
        RunSpec(
            app="synthetic",
            app_kwargs={"total_updates": 8, "repetition": 2},
            policy="NM",
            nodes=4,
            mechanism="home-manager:manager=9",
            verify=False,
        )


# -- colon-parameter mechanism specs ---------------------------------------


def test_make_mechanism_parses_parameters():
    mech = make_mechanism("broadcast:fanout=4")
    assert isinstance(mech, BroadcastMechanism)
    assert mech.fanout == 4

    mech = make_mechanism("home-manager:manager=3:shards=2")
    assert isinstance(mech, HomeManagerMechanism)
    assert mech.manager_node == 3
    assert mech.shards == 2
    assert mech.name == "home-manager-x2"

    assert isinstance(
        make_mechanism("forwarding-pointer"), ForwardingPointerMechanism
    )


def test_make_mechanism_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown mechanism"):
        make_mechanism("gossip")
    with pytest.raises(ValueError, match="accepts"):
        make_mechanism("broadcast:shards=2")
    with pytest.raises(ValueError, match="accepts"):
        make_mechanism("forwarding-pointer:fanout=2")
    with pytest.raises(ValueError, match="not an integer"):
        make_mechanism("broadcast:fanout=wide")
    with pytest.raises(ValueError, match="accepts"):
        make_mechanism("broadcast:fanout")


# -- broadcast racing in-flight migrations at scale ------------------------


@pytest.mark.parametrize(
    "mechanism", ["broadcast", "broadcast:fanout=4", "broadcast:fanout=8"]
)
def test_broadcast_races_migrations_at_64_nodes(mechanism):
    """A churn-heavy 64-node run under AT migrates on nearly every
    round, so HOME_BCAST notices race in-flight faults and follow-up
    migrations; result verification proves every reader still reached
    the authoritative copy (fanned-out relays included)."""
    outcome = run_spec(
        RunSpec(
            app="synthetic",
            app_kwargs={"total_updates": 504, "repetition": 8},
            policy="AT",
            nodes=64,
            mechanism=mechanism,
            verify=True,
        )
    )
    assert outcome.migrations >= 50


def test_fanned_broadcast_matches_flat_broadcast_outcome():
    """The relay tree changes who forwards a notice, not the protocol
    outcome: migrations agree with the flat burst leg and the relayed
    run still verifies (previous test).  Message totals may differ by
    the relay bookkeeping, but only within the notice budget."""
    flat, fanned = (
        run_spec(
            RunSpec(
                app="synthetic",
                app_kwargs={"total_updates": 504, "repetition": 8},
                policy="AT",
                nodes=64,
                mechanism=mech,
                verify=True,
            )
        )
        for mech in ("broadcast", "broadcast:fanout=4")
    )
    assert flat.migrations == fanned.migrations


# -- sharded home manager vs the fuzzer corpus -----------------------------


def _forced_manager_episode(seed: int, shards: int):
    """One fuzzer episode with the mechanism pinned to a home manager."""
    spec = generate_program(seed)
    spec.mechanism = f"home-manager:shards={min(shards, spec.nodes)}"
    return run_episode(spec=spec)


def test_single_shard_matches_classic_manager_on_corpus():
    """``shards=1`` is the classic manager episode for episode."""
    for seed in range(10):
        spec = generate_program(seed)
        spec.mechanism = "home-manager"
        classic = run_episode(spec=spec)
        sharded = _forced_manager_episode(seed, shards=1)
        assert classic.verdict() == sharded.verdict()
        assert classic.ok, f"seed {seed} episode not clean"


def test_sharded_manager_is_clean_on_corpus():
    """Sharding the directory must not break coherence: every corpus
    episode passes the oracle and the protocol invariants."""
    for seed in range(10):
        result = _forced_manager_episode(seed, shards=2)
        assert result.ok, (
            f"seed {seed}: oracle={result.oracle_violations} "
            f"invariants={result.invariant_violations} "
            f"error={result.run_error}"
        )


# -- complexity regression: ~linear events/messages in N -------------------


def test_fixed_per_node_workload_scales_linearly():
    """With per-node offered load fixed (8 updates per worker, NM), the
    total event and message counts must grow ~linearly in N: the
    per-node rates at 64 nodes stay within 30% of the 8-node rates.
    This is the regression guard for the large-N protocol paths — an
    O(N) term hiding in a per-node per-epoch path shows up here as
    superlinear growth."""
    per_node = {}
    for n in (8, 64):
        out = run_spec(
            RunSpec(
                app="synthetic",
                app_kwargs={"total_updates": 8 * (n - 1), "repetition": 8},
                policy="NM",
                nodes=n,
                verify=False,
            )
        )
        per_node[n] = (out.events_processed / n, out.messages / n)
    assert per_node[64][0] <= 1.3 * per_node[8][0]
    assert per_node[64][1] <= 1.3 * per_node[8][1]
