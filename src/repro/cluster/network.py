"""Switched cluster network with Hockney latency and per-NIC serialization.

Timing model for a message of ``m`` bytes from ``src`` to ``dst``:

* the sender's NIC is busy injecting for ``transfer_us(m) = m / r_inf``;
  injections from one node serialize (``nic_free`` bookkeeping), modelling
  a single full-duplex link into the switch;
* the wire+stack latency adds the start-up term, so arrival is
  ``injection_end + t0``;
* the receiving node's delivery port charges its service overhead
  (:attr:`~repro.cluster.node.Node.service_us`) before the protocol
  handler runs.

End-to-end latency of an isolated message is therefore exactly the Hockney
``t(m) = t0 + m/r_inf`` (plus receiver service time), while bursts of
messages from one node back-pressure each other — enough fidelity for the
message-count/traffic/ordering behaviour the protocol depends on.

Local messages (``src == dst``) are not allowed: the DSM layer handles
node-local operations without the network, as the real system does.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, TYPE_CHECKING

from repro import _kernel
from repro.cluster.hockney import HockneyModel
from repro.cluster.message import HEADER_BYTES, MsgCategory
from repro.cluster.node import Node
from repro.cluster.stats import ClusterStats
from repro.cluster.topology import ClusterTopology, make_topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class _PyDeliveryPort:
    """Pure-Python twin of the kernel's ``DeliveryPort`` (made by
    :meth:`PyNetFabric.add_port`).

    A message's arrival event calls :meth:`arrive`, which schedules the
    port itself as the delivery event after the node's service overhead;
    the compiled engine does the same re-queue in its drain loop without
    a call (PROTOCOL.md §8).  Delivery (calling the port) runs
    ``table[category](owner, payload)``: the table is shared by every
    node of one engine class.
    """

    __slots__ = ("_schedule", "_table", "_owner", "_service")

    def __init__(
        self, sim: "Simulator", table: dict, owner: Any, service_us: float
    ):
        self._schedule = sim.schedule
        self._table = table
        self._owner = owner
        self._service = service_us

    def arrive(self, category: MsgCategory, payload: Any) -> None:
        self._schedule(self._service, self, category, payload)

    def __call__(self, category: MsgCategory, payload: Any) -> None:
        handler = self._table.get(category)
        if handler is None:
            raise RuntimeError(f"unhandled message category {category!r}")
        handler(self._owner, payload)


class PyNetFabric:
    """Pure-Python twin of the kernel's ``NetFabric``: the send body of
    a :class:`Network` (over the run's event core, the statistics
    counters, the Hockney parameters, the header size and the per-node
    NIC busy-until times) and its nodes' delivery ports."""

    __slots__ = (
        "_engine", "_msg_count", "_msg_bytes", "_startup_us", "_bandwidth",
        "_header", "_nic_free", "_ports", "_topo_pair", "_topo_contention",
        "_topo_link_free",
    )

    def __init__(
        self,
        engine: "Simulator",
        msg_count: dict,
        msg_bytes: dict,
        startup_us: float,
        bandwidth_mb_s: float,
        header_bytes: int,
        nic_free: list[float],
    ):
        self._engine = engine
        self._msg_count = msg_count
        self._msg_bytes = msg_bytes
        self._startup_us = startup_us
        self._bandwidth = bandwidth_mb_s
        self._header = header_bytes
        self._nic_free = list(nic_free)
        self._ports: list[_PyDeliveryPort] = []
        self._topo_pair = None

    def set_topology(
        self, group_ids, class_costs, nlinks: int, contention: bool
    ) -> None:
        """Attach the topology these tier vectors and class costs describe
        (PROTOCOL.md §15)."""
        topology = ClusterTopology(len(self._nic_free), contention)
        topology.set_tiers(group_ids, class_costs, nlinks)
        self._topo_pair = topology.pair
        self._topo_contention = topology.contention
        self._topo_link_free = [0.0] * nlinks

    def add_port(
        self, table: dict, owner: Any, service_us: float
    ) -> _PyDeliveryPort:
        """Register the next node's delivery port and return it."""
        port = _PyDeliveryPort(self._engine, table, owner, service_us)
        self._ports.append(port)
        return port

    def sender(self, src: int) -> Callable:
        """Node ``src``'s ``(dst, category, size_bytes, payload)`` sender."""
        return partial(self.send, src)

    def send(
        self,
        src: int,
        dst: int,
        category: MsgCategory,
        size_bytes: int,
        payload: Any = None,
    ) -> None:
        """Inject one message of ``size_bytes`` plus the header: count
        it, occupy the source NIC (and a contended uplink), and schedule
        its arrival at ``dst``'s port.  ``NetFabric.send`` is this body
        op for op."""
        if src == dst:
            raise ValueError(
                f"local message {category.value} on node {src}; node-local "
                "operations must bypass the network"
            )
        nic_free = self._nic_free
        nnodes = len(nic_free)
        if not (0 <= src < nnodes and 0 <= dst < nnodes):
            raise ValueError(f"endpoints {src}->{dst} outside cluster")
        total = size_bytes + self._header
        if total < self._header:
            raise ValueError(
                f"message size {total} smaller than header "
                f"({self._header} bytes)"
            )
        self._msg_count[category] += 1
        self._msg_bytes[category] += total

        engine = self._engine
        now = engine._now  # direct read; the property is hot-path overhead
        free = nic_free[src]
        injection_start = now if now >= free else free
        injection_end = injection_start + total / self._bandwidth
        nic_free[src] = injection_end
        if self._topo_pair is None:
            arrival = injection_end + self._startup_us
        else:
            arrival = self._topo_arrival(src, dst, total, injection_end)
        engine.at(arrival, self._ports[dst].arrive, category, payload)

    def _topo_arrival(
        self, src: int, dst: int, total: int, injection_end: float
    ) -> float:
        """Arrival time under the attached topology (PROTOCOL.md §15).

        Bit-for-bit the same IEEE-754 sequence as the compiled fabric's
        topology branch.  Without contention the oversubscription
        penalty is pure latency; with it the source leaf's uplink is a
        serialized store-and-forward resource, queued like the NIC.
        """
        hop, pen, link = self._topo_pair(src, dst)
        if link >= 0 and self._topo_contention:
            link_free = self._topo_link_free
            free = link_free[link]
            start = injection_end if injection_end >= free else free
            link_end = start + total * (1.0 + pen) / self._bandwidth
            link_free[link] = link_end
            return link_end + self._startup_us + hop
        return injection_end + self._startup_us + hop + total * pen / self._bandwidth


class Network:
    """The cluster interconnect: owns the nodes and delivers messages.

    Every endpoint registers a category -> ``handler(owner, payload)``
    table and its owner (:meth:`register_fast_dispatch`); once all have,
    the seam table's ``NetFabric`` (:class:`PyNetFabric` or its C twin)
    is built, its ``send`` becomes this network's :meth:`send`, and each
    node's arrivals flow through the fabric's delivery port.
    """

    def __init__(
        self,
        sim: "Simulator",
        comm_model: HockneyModel,
        nnodes: int,
        stats: ClusterStats | None = None,
        service_us: float | None = None,
        topology: "ClusterTopology | str | dict | None" = None,
    ):
        if nnodes < 1:
            raise ValueError(f"need at least one node, got {nnodes}")
        self.sim = sim
        self.comm_model = comm_model
        #: Per-run constants the protocol engines read per message,
        #: resolved once here: the node count and the Hockney half-peak
        #: length ``m_half`` (bytes) that the coefficient alpha is priced in.
        self.nnodes = nnodes
        self.half_peak_bytes = comm_model.half_peak_bytes
        self.stats = stats if stats is not None else ClusterStats()
        node_kwargs = {} if service_us is None else {"service_us": service_us}
        self.nodes = [Node(i, self, **node_kwargs) for i in range(nnodes)]
        #: Delivery state, filled by :meth:`register_fast_dispatch`: each
        #: node's (table, owner, sender binder), then (once every node is
        #: in) the fabric, which holds one delivery port per node.
        self._endpoints: dict[int, tuple] = {}
        self._fabric = None
        #: Optional interconnect topology (PROTOCOL.md §15).  ``None``
        #: keeps the seed's ideal single switch bit for bit; a topology
        #: adds per-pair hop latency, an oversubscription transfer
        #: penalty and (optionally) serialized uplink contention on top
        #: of the Hockney NIC model — identical math in both fabrics.
        self.topology = make_topology(topology, nnodes)

    def register_fast_dispatch(
        self,
        node_id: int,
        table: dict,
        owner: Any,
        bind_sender: Callable | None = None,
    ) -> None:
        """Register one node's endpoint (exactly once per node).

        ``table`` maps a category to a plain function; the node's port
        delivers a message as ``table[category](owner, payload)``, so
        one table (held by reference) serves every node of an engine
        class.  ``bind_sender``, if given, is called as
        ``bind_sender(owner, sender)`` with a per-node send callable
        ``(dst, category, size_bytes, payload)`` once *every* node has
        registered.  Until then :meth:`send` refuses to inject.
        """
        if not 0 <= node_id < self.nnodes:
            raise ValueError(f"node {node_id} outside cluster")
        if node_id in self._endpoints:
            raise RuntimeError(f"node {node_id} already registered a handler")
        self._endpoints[node_id] = (table, owner, bind_sender)
        if len(self._endpoints) == self.nnodes:
            self._activate()

    def _activate(self) -> None:
        comm_model = self.comm_model
        fabric = _kernel.SEAMS.NetFabric(
            self.sim,
            self.stats.msg_count,
            self.stats.msg_bytes,
            comm_model.startup_us,
            comm_model.bandwidth_mb_s,
            HEADER_BYTES,
            [0.0] * self.nnodes,
        )
        topo = self.topology
        if topo is not None:
            # The O(N) tier vectors and class costs pair() is built from.
            fabric.set_topology(
                topo.group_ids, topo.class_costs, topo.nlinks, topo.contention
            )
        endpoints = [self._endpoints[i] for i in range(self.nnodes)]
        for node, (table, owner, _bind) in zip(self.nodes, endpoints):
            fabric.add_port(table, owner, node.service_us)
        self._fabric = fabric
        # The fabric's body shadows the refusal below for every later caller.
        self.send = fabric.send
        for i, (_table, owner, bind_sender) in enumerate(endpoints):
            if bind_sender is not None:
                bind_sender(owner, fabric.sender(i))

    def send(
        self,
        src: int,
        dst: int,
        category: MsgCategory,
        size_bytes: int,
        payload: Any = None,
    ) -> None:
        """Inject one message (:meth:`PyNetFabric.send`); until every
        node registered there is no fabric, and a send is refused."""
        missing = [i for i in range(self.nnodes) if i not in self._endpoints]
        raise RuntimeError(
            f"send before every node registered a handler; "
            f"unregistered nodes: {missing}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network {self.nnodes} nodes, {self.comm_model.name}>"
