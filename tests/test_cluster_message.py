"""Tests for the message taxonomy and the wire-size model."""

import pytest

from repro.cluster.hockney import FAST_ETHERNET
from repro.cluster.message import (
    HEADER_BYTES,
    MsgCategory,
    SYNC_CATEGORIES,
)
from repro.cluster.network import Network
from repro.sim import make_simulator


def _network():
    net = Network(make_simulator(), FAST_ETHERNET, 2)
    for node in net.nodes:
        node.install_handler(lambda payload: None)
    return net


def test_message_size_includes_header():
    net = _network()
    net.send(0, 1, MsgCategory.DIFF, 100)
    assert net.stats.msg_bytes[MsgCategory.DIFF] == 100 + HEADER_BYTES


def test_size_below_header_rejected():
    with pytest.raises(ValueError, match="smaller than header"):
        _network().send(0, 1, MsgCategory.DIFF, -1)


def test_negative_endpoints_rejected():
    with pytest.raises(ValueError, match="outside cluster"):
        _network().send(-1, 0, MsgCategory.DIFF, 64)


def test_sync_categories_cover_locks_and_barriers():
    assert MsgCategory.LOCK_ACQUIRE in SYNC_CATEGORIES
    assert MsgCategory.LOCK_GRANT in SYNC_CATEGORIES
    assert MsgCategory.LOCK_RELEASE in SYNC_CATEGORIES
    assert MsgCategory.BARRIER_ARRIVE in SYNC_CATEGORIES
    assert MsgCategory.BARRIER_RELEASE in SYNC_CATEGORIES


def test_data_categories_not_sync():
    for category in (
        MsgCategory.OBJ_REQUEST,
        MsgCategory.OBJ_REPLY,
        MsgCategory.OBJ_REPLY_MIG,
        MsgCategory.DIFF,
        MsgCategory.REDIRECT,
    ):
        assert category not in SYNC_CATEGORIES


def test_category_values_unique():
    values = [c.value for c in MsgCategory]
    assert len(values) == len(set(values))
