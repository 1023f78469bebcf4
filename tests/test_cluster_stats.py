"""Tests for cluster statistics accounting."""

import pytest

from repro.cluster.hockney import FAST_ETHERNET
from repro.cluster.message import HEADER_BYTES, MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import BREAKDOWN_EVENTS, ClusterStats
from repro.sim import make_simulator


def _record_message(stats, category, size=64):
    """Send one ``size``-byte (header included) message through a
    two-node network that accounts into ``stats``."""
    net = Network(make_simulator(), FAST_ETHERNET, 2, stats)
    for node in net.nodes:
        node.install_handler(lambda payload: None)
    net.send(0, 1, category, size - HEADER_BYTES)


def test_record_message_counts_and_bytes(stats):
    _record_message(stats, MsgCategory.DIFF, 100)
    _record_message(stats, MsgCategory.DIFF, 150)
    _record_message(stats, MsgCategory.OBJ_REPLY, 1000)
    assert stats.msg_count[MsgCategory.DIFF] == 2
    assert stats.msg_bytes[MsgCategory.DIFF] == 250
    assert stats.total_messages() == 3
    assert stats.total_bytes() == 1250


def test_exclusion_filters(stats):
    _record_message(stats, MsgCategory.DIFF)
    _record_message(stats, MsgCategory.LOCK_GRANT)
    assert stats.total_messages(exclude=[MsgCategory.LOCK_GRANT]) == 1
    assert stats.data_messages() == 1


def test_data_bytes_excludes_sync(stats):
    _record_message(stats, MsgCategory.BARRIER_ARRIVE, 500)
    _record_message(stats, MsgCategory.OBJ_REPLY, 800)
    assert stats.data_bytes() == 800
    assert stats.total_bytes() == 1300


def test_event_counters(stats):
    stats.incr("obj")
    stats.incr("obj")
    stats.incr("redir", 3)
    assert stats.events["obj"] == 2
    assert stats.events["redir"] == 3


def test_negative_increment_rejected(stats):
    with pytest.raises(ValueError):
        stats.incr("obj", -1)


def test_breakdown_has_all_figure5_categories(stats):
    stats.incr("diff", 5)
    breakdown = stats.breakdown()
    assert set(breakdown) == set(BREAKDOWN_EVENTS)
    assert breakdown["diff"] == 5
    assert breakdown["mig"] == 0


def test_merge_accumulates_all_counters(stats):
    _record_message(stats, MsgCategory.DIFF, 100)
    stats.incr("migration", 2)
    other = ClusterStats()
    _record_message(other, MsgCategory.DIFF, 50)
    _record_message(other, MsgCategory.OBJ_REPLY, 500)
    other.incr("migration")
    other.incr("redir", 4)
    returned = stats.merge(other)
    assert returned is stats
    assert stats.msg_count[MsgCategory.DIFF] == 2
    assert stats.msg_bytes[MsgCategory.DIFF] == 150
    assert stats.msg_count[MsgCategory.OBJ_REPLY] == 1
    assert stats.events["migration"] == 3
    assert stats.events["redir"] == 4
    # other is untouched
    assert other.msg_count[MsgCategory.DIFF] == 1
    assert other.events["migration"] == 1


def test_from_snapshot_round_trips(stats):
    _record_message(stats, MsgCategory.DIFF, 100)
    _record_message(stats, MsgCategory.LOCK_GRANT, 60)
    stats.incr("obj", 7)
    rebuilt = ClusterStats.from_snapshot(stats.snapshot())
    assert rebuilt.snapshot() == stats.snapshot()
    assert rebuilt.msg_count[MsgCategory.DIFF] == 1
    assert rebuilt.data_messages() == stats.data_messages()


def test_merge_of_snapshots_across_boundary(stats):
    """Snapshots shipped across processes aggregate via from_snapshot."""
    _record_message(stats, MsgCategory.DIFF, 100)
    stats.incr("migration")
    wire = stats.snapshot()  # what crosses the process boundary
    total = ClusterStats()
    total.merge(ClusterStats.from_snapshot(wire))
    total.merge(ClusterStats.from_snapshot(wire))
    assert total.msg_count[MsgCategory.DIFF] == 2
    assert total.msg_bytes[MsgCategory.DIFF] == 200
    assert total.events["migration"] == 2


def test_snapshot_is_plain_and_stable(stats):
    _record_message(stats, MsgCategory.DIFF, 100)
    stats.incr("migration")
    snap = stats.snapshot()
    assert snap["msg_count"] == {"diff": 1}
    assert snap["msg_bytes"] == {"diff": 100}
    assert snap["events"] == {"migration": 1}
    # mutating the snapshot does not touch the stats
    snap["events"]["migration"] = 99
    assert stats.events["migration"] == 1
