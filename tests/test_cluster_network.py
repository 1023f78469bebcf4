"""Tests for the network model: latency, serialization, ordering.

Handlers installed with ``Node.install_handler`` receive each message's
payload; the tests read arrival times from the simulator clock and wire
sizes from :class:`ClusterStats`.
"""

import pytest

from repro.cluster.hockney import HockneyModel
from repro.cluster.message import HEADER_BYTES, MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.sim.engine import make_simulator

MODEL = HockneyModel(startup_us=100.0, bandwidth_mb_s=10.0)


def _build(nnodes=3, service_us=0.0):
    sim = make_simulator()
    stats = ClusterStats()
    net = Network(sim, MODEL, nnodes, stats, service_us=service_us)
    inbox = []
    for node in net.nodes:
        node.install_handler(
            lambda payload, nid=node.node_id: inbox.append((nid, payload, sim.now))
        )
    return sim, net, stats, inbox


def test_point_to_point_latency_matches_hockney():
    sim, net, stats, inbox = _build()
    net.send(0, 1, MsgCategory.CONTROL, size_bytes=460, payload="hello")
    sim.run()
    (nid, payload, t), = inbox
    assert (nid, payload) == (1, "hello")
    # 460B payload + 40B header = 500B -> 100 + 50 us
    assert stats.msg_bytes[MsgCategory.CONTROL] == 500
    assert t == pytest.approx(150.0)


def test_receiver_service_time_charged():
    sim, net, _stats, inbox = _build(service_us=7.0)
    net.send(0, 1, MsgCategory.CONTROL, size_bytes=460)
    sim.run()
    (_nid, _msg, t), = inbox
    assert t == pytest.approx(157.0)


def test_nic_serialization_backpressures_sender():
    sim, net, _stats, inbox = _build()
    # two 960B+40B = 1000B messages back to back: injections serialize
    net.send(0, 1, MsgCategory.CONTROL, size_bytes=960)
    net.send(0, 2, MsgCategory.CONTROL, size_bytes=960)
    sim.run()
    t1 = inbox[0][2]
    t2 = inbox[1][2]
    assert t1 == pytest.approx(100.0 + 100.0)
    # second injection waits for the first (100us each), then +startup
    assert t2 == pytest.approx(100.0 + 100.0 + 100.0)


def test_fifo_per_src_dst_pair():
    sim, net, _stats, inbox = _build()
    for i in range(5):
        net.send(0, 1, MsgCategory.CONTROL, size_bytes=100 * (5 - i), payload=i)
    sim.run()
    assert [payload for _nid, payload, _t in inbox] == [0, 1, 2, 3, 4]


def test_distinct_senders_do_not_serialize():
    sim, net, _stats, inbox = _build()
    net.send(0, 2, MsgCategory.CONTROL, size_bytes=960)
    net.send(1, 2, MsgCategory.CONTROL, size_bytes=960)
    sim.run()
    times = [t for _nid, _msg, t in inbox]
    assert times == [pytest.approx(200.0), pytest.approx(200.0)]


def test_local_send_rejected():
    _sim, net, _stats, _inbox = _build()
    with pytest.raises(ValueError):
        net.send(1, 1, MsgCategory.CONTROL, size_bytes=10)


def test_out_of_range_endpoint_rejected():
    _sim, net, _stats, _inbox = _build()
    with pytest.raises(ValueError):
        net.send(0, 99, MsgCategory.CONTROL, size_bytes=10)


def test_stats_recorded_on_send():
    sim, net, stats, _inbox = _build()
    net.send(0, 1, MsgCategory.DIFF, size_bytes=60)
    assert stats.msg_count[MsgCategory.DIFF] == 1
    assert stats.msg_bytes[MsgCategory.DIFF] == 60 + HEADER_BYTES
    sim.run()


def test_single_node_network_allowed():
    sim = make_simulator()
    net = Network(sim, MODEL, 1, ClusterStats())
    assert net.nnodes == 1


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        Network(make_simulator(), MODEL, 0, ClusterStats())


def test_node_without_handler_raises():
    """A send before every endpoint registered fails at send time, in
    one line naming the unregistered nodes, and injects nothing."""
    sim = make_simulator()
    stats = ClusterStats()
    net = Network(sim, MODEL, 3, stats)
    net.nodes[1].install_handler(lambda payload: None)
    with pytest.raises(RuntimeError, match=r"unregistered nodes: \[0, 2\]$"):
        net.send(0, 1, MsgCategory.CONTROL, size_bytes=10)
    assert not stats.msg_count
    assert sim.run() == 0.0


def test_handler_installed_twice_rejected():
    _sim, net, _stats, _inbox = _build()
    with pytest.raises(RuntimeError, match="node 0 already registered"):
        net.nodes[0].install_handler(lambda payload: None)


def test_send_before_registration_rejected(backend):
    net = Network(make_simulator(), MODEL, 4, ClusterStats())
    for node in (0, 2):
        net.register_fast_dispatch(node, {}, node)
    with pytest.raises(RuntimeError) as err:
        net.send(0, 2, MsgCategory.CONTROL, 8)
    assert str(err.value) == (
        "send before every node registered a handler; "
        "unregistered nodes: [1, 3]"
    )


def test_dispatch_registered_twice_rejected(backend):
    """A second table for one node would leave the activated ports
    holding the stale one, so it is refused, before and after activation."""
    net = Network(make_simulator(), MODEL, 2, ClusterStats())
    net.register_fast_dispatch(0, {}, 0)
    with pytest.raises(RuntimeError, match="node 0 already registered"):
        net.register_fast_dispatch(0, {}, 0)
    net.register_fast_dispatch(1, {}, 1)
    with pytest.raises(RuntimeError, match="node 1 already registered"):
        net.register_fast_dispatch(1, {}, 1)


def test_send_defaults_to_no_payload():
    sim, net, _stats, inbox = _build()
    net.send(0, 2, MsgCategory.CONTROL, 8)
    sim.run()
    assert [(nid, payload) for nid, payload, _t in inbox] == [(2, None)]


# -- delivery: one event per message ------------------------------------------


def _same_instant_pair(service_us):
    """Nodes 0 and 1 each send node 2 one CONTROL message at t = 0; both
    reach node 2 at the same instant.  Node 2's handler logs each payload
    and ``call_soon``s a callback from the first."""
    sim = make_simulator()
    net = Network(sim, MODEL, 3, ClusterStats(), service_us=service_us)
    log = []

    def handler(_node, payload):
        log.append(("handler", payload, sim.now))
        if payload == 1:
            sim.call_soon(lambda: log.append(("callback", 1, sim.now)))

    for node in range(3):
        net.register_fast_dispatch(node, {MsgCategory.CONTROL: handler}, node)
    net.send(0, 2, MsgCategory.CONTROL, 460, 1)
    net.send(1, 2, MsgCategory.CONTROL, 460, 2)
    return sim, log


@pytest.mark.parametrize("service_us", [0.0, 7.0])
def test_same_instant_arrivals_run_handlers_before_their_callbacks(
    backend, service_us
):
    """Each message is its own delivery event, queued when it arrives:
    the two deliveries run back to back in arrival order, and a callback
    the first handler schedules runs after the second handler."""
    sim, log = _same_instant_pair(service_us)
    sim.run()
    done = 150.0 + service_us
    assert log == [
        ("handler", 1, done), ("handler", 2, done), ("callback", 1, done),
    ]


def test_events_processed_counts_arrival_and_delivery(backend):
    """Two messages cost four events (an arrival and a delivery each),
    plus the one callback — no arrival is coalesced into another's."""
    sim, log = _same_instant_pair(7.0)
    sim.run()
    assert len(log) == 3
    assert sim.events_processed == 2 * 2 + 1
