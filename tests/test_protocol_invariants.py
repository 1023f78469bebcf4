"""Cross-cutting protocol invariants, checked after whole-app runs.

These are conservation laws of the message/event accounting and the
home-uniqueness invariant — they must hold for every application under
every policy and mechanism.
"""

import pytest

from repro.apps import Asp, Lu, SingleWriterBenchmark, Sor, Tsp
from repro.bench.runner import run_once
from repro.core.policies import make_policy
from repro.dsm.redirection import make_mechanism
from repro.cluster.message import MsgCategory

CONFIGS = [
    (lambda: SingleWriterBenchmark(total_updates=96, repetition=4), "AT",
     "forwarding-pointer", 5),
    (lambda: SingleWriterBenchmark(total_updates=96, repetition=2), "FT1",
     "forwarding-pointer", 5),
    (lambda: SingleWriterBenchmark(total_updates=96, repetition=8), "AT",
     "broadcast", 5),
    (lambda: SingleWriterBenchmark(total_updates=96, repetition=8), "FT1",
     "home-manager", 5),
    (lambda: Sor(size=16, iterations=3), "AT", "forwarding-pointer", 4),
    (lambda: Sor(size=16, iterations=3), "JIAJIA", "forwarding-pointer", 4),
    (lambda: Asp(size=16), "FT2", "forwarding-pointer", 4),
    (lambda: Lu(size=16), "AT", "forwarding-pointer", 4),
    (lambda: Tsp(cities=7), "JUMP", "forwarding-pointer", 4),
]


@pytest.fixture(
    params=CONFIGS,
    ids=[f"{i}" for i in range(len(CONFIGS))],
    scope="module",
)
def completed_run(request):
    factory, policy, mechanism, nodes = request.param
    app = factory()
    result = run_once(
        app,
        policy=make_policy(policy),
        nodes=nodes,
        mechanism=make_mechanism(mechanism),
    )
    return result


def test_every_object_has_exactly_one_home(completed_run):
    gos = completed_run.gos
    for obj in gos.heap:
        holders = [
            engine.node_id
            for engine in gos.engines
            if obj.oid in engine.homes
        ]
        assert len(holders) == 1, f"{obj!r} homed at {holders}"


def test_no_pending_protocol_state_left(completed_run):
    for engine in completed_run.gos.engines:
        assert not engine._reply_waiters
        assert not engine.pending_foreign
        assert not engine._pending_diffs
        assert not engine._local_home_waits
        assert not engine.dirty
        assert not engine.home_dirty


def test_redirect_messages_match_redirection_events(completed_run):
    stats = completed_run.stats
    assert (
        stats.msg_count.get(MsgCategory.REDIRECT, 0)
        == stats.events.get("redir", 0)
    )


def test_diff_acks_match_applied_diffs(completed_run):
    stats = completed_run.stats
    assert (
        stats.msg_count.get(MsgCategory.DIFF_ACK, 0)
        == stats.events.get("diff", 0)
    )
    # DIFF messages = original sends + chain forwards
    assert stats.msg_count.get(MsgCategory.DIFF, 0) == (
        stats.events.get("diff", 0) + stats.events.get("diff_forward", 0)
    )


def test_migration_events_match_transfer_messages(completed_run):
    stats = completed_run.stats
    # request-triggered migrations ride OBJ_REPLY_MIG / SHIP_REPLY;
    # JiaJia transfers ride CONTROL — the mig event counts them all
    transfers = stats.msg_count.get(MsgCategory.OBJ_REPLY_MIG, 0)
    assert stats.events.get("mig", 0) >= transfers
    assert stats.events.get("migration", 0) == stats.events.get("mig", 0)


def test_home_versions_account_for_all_updates(completed_run):
    """Every version bump at a home is a diff apply, a ship, or a
    home-write interval close."""
    gos = completed_run.gos
    stats = completed_run.stats
    total_versions = sum(
        entry.version
        for engine in gos.engines
        for entry in engine.homes.values()
    )
    updates = (
        stats.events.get("diff", 0)
        + stats.events.get("ship", 0)
        + stats.events.get("home_write", 0)
    )
    # home_write traps once per interval, bumps once per flush: 1:1 except
    # for the final never-flushed interval of each thread, so <=.
    assert total_versions <= updates
    assert total_versions >= stats.events.get("diff", 0)


def test_monitor_counts_cover_served_requests(completed_run):
    gos = completed_run.gos
    stats = completed_run.stats
    total_remote_reads = sum(
        entry.state.remote_reads
        for engine in gos.engines
        for entry in engine.homes.values()
    )
    assert total_remote_reads == stats.events.get("remote_read", 0)
