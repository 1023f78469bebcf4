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

from repro.cluster.hockney import HockneyModel
from repro.cluster.message import HEADER_BYTES, MsgCategory
from repro.cluster.node import Node
from repro.cluster.stats import ClusterStats
from repro.cluster.topology import ClusterTopology, make_topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class _PyDeliveryPort:
    """Pure-Python twin of the kernel's ``DeliveryPort``.

    A message's arrival event calls :meth:`arrive`, which schedules one
    :meth:`deliver` event after the node's service overhead; the
    compiled engine does the same re-queue in its drain loop without a
    call (PROTOCOL.md §8).
    """

    __slots__ = ("_schedule", "_dispatch", "_service", "_deliver")

    def __init__(self, sim: "Simulator", dispatch: dict, service_us: float):
        self._schedule = sim.schedule
        self._dispatch = dispatch
        self._service = service_us
        self._deliver = self.deliver

    def arrive(self, category: MsgCategory, payload: Any) -> None:
        self._schedule(self._service, self._deliver, category, payload)

    def deliver(self, category: MsgCategory, payload: Any) -> None:
        handler = self._dispatch.get(category)
        if handler is None:
            raise RuntimeError(f"unhandled message category {category!r}")
        handler(payload)


class Network:
    """The cluster interconnect: owns the nodes and delivers messages.

    Every endpoint registers a category -> handler table
    (:meth:`register_fast_dispatch`); once all have, :meth:`send` is the
    one send body and each node's arrivals flow through its delivery
    port.  Under the compiled engine the kernel's ``NetFabric``
    (the C twin of :meth:`send`) replaces the body at activation.
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
        self._nic_free = [0.0] * nnodes
        # Hot-path pre-binds: one attribute resolution at construction
        # instead of three per message.
        self._transfer_us = comm_model.transfer_us
        self._startup_us = comm_model.startup_us
        self._sim_at = sim.at
        #: Delivery state, filled by :meth:`register_fast_dispatch`: each
        #: node's handler table and sender binder, then (once every node
        #: is in) one delivery port per node — Python ports, or the
        #: compiled fabric's when the simulator is the compiled Engine.
        self._dispatch: dict[int, dict] = {}
        self._bind: dict[int, Callable] = {}
        self._ports: list[_PyDeliveryPort] | None = None
        self._fabric = None
        #: Optional interconnect topology (PROTOCOL.md §15).  ``None``
        #: keeps the seed's ideal single switch bit for bit; a topology
        #: adds per-pair hop latency, an oversubscription transfer
        #: penalty and (optionally) serialized uplink contention on top
        #: of the Hockney NIC model — identical math in :meth:`send` and
        #: the compiled fabric.
        self.topology = make_topology(topology, nnodes)
        if self.topology is not None:
            self._topo_pair = self.topology.pair
            self._topo_contention = self.topology.contention
            self._topo_link_free = [0.0] * self.topology.nlinks
            self._bandwidth = comm_model.bandwidth_mb_s
        else:
            self._topo_pair = None

    def register_fast_dispatch(
        self, node_id: int, dispatch: dict, bind_sender: Callable
    ) -> None:
        """Register one node's endpoint (exactly once per node).

        ``dispatch`` is the engine's category -> payload handler dict
        (held by reference, so later handler swaps stay visible);
        ``bind_sender`` is called with a per-node send callable
        ``(dst, category, size_bytes, payload)`` once *every* node has
        registered.  Until then :meth:`send` refuses to inject.
        """
        if not 0 <= node_id < self.nnodes:
            raise ValueError(f"node {node_id} outside cluster")
        if node_id in self._dispatch:
            raise RuntimeError(f"node {node_id} already registered a handler")
        self._dispatch[node_id] = dispatch
        self._bind[node_id] = bind_sender
        if len(self._dispatch) == self.nnodes:
            self._activate()

    def _activate(self) -> None:
        from repro import _kernel

        kernel_module = _kernel.kernel()
        sim = self.sim
        if kernel_module is not None and isinstance(sim, kernel_module.Engine):
            fabric = kernel_module.NetFabric(
                sim,
                self.stats.msg_count,
                self.stats.msg_bytes,
                self._startup_us,
                self.comm_model.bandwidth_mb_s,
                HEADER_BYTES,
                self._nic_free,
            )
            topo = self.topology
            if topo is not None:
                # The O(N) tier vectors and class costs pair() is built
                # from — the kernel branch resolves the same class and
                # reads the identical float64 values.
                fabric.set_topology(
                    topo.group_ids, topo.class_costs, topo.nlinks, topo.contention
                )
            self._ports = [
                fabric.add_port(self._dispatch[i], self.nodes[i].service_us)
                for i in range(self.nnodes)
            ]
            senders = [fabric.sender(i) for i in range(self.nnodes)]
            self._fabric = fabric
            # The C twin shadows the Python body for every later caller.
            self.send = fabric.send
        else:
            self._ports = [
                _PyDeliveryPort(sim, self._dispatch[i], self.nodes[i].service_us)
                for i in range(self.nnodes)
            ]
            senders = [partial(self.send, i) for i in range(self.nnodes)]
        for i in range(self.nnodes):
            self._bind[i](senders[i])

    def send(
        self,
        src: int,
        dst: int,
        category: MsgCategory,
        size_bytes: int,
        payload: Any = None,
    ) -> None:
        """Inject one message and schedule its arrival at ``dst``.

        ``size_bytes`` is the payload size; the fixed header is added
        here.  The message is accounted in :attr:`stats`, occupies the
        source NIC (and, under a contended topology, the source uplink),
        and reaches ``dst``'s delivery port at wire-arrival time; the
        port runs the handler after the node's service overhead.  The
        compiled ``NetFabric.send`` is this body op for op.
        """
        if src == dst:
            raise ValueError(
                f"local message {category.value} on node {src}; node-local "
                "operations must bypass the network"
            )
        nnodes = self.nnodes
        if not (0 <= src < nnodes and 0 <= dst < nnodes):
            raise ValueError(f"endpoints {src}->{dst} outside cluster")
        ports = self._ports
        if ports is None:
            missing = [i for i in range(nnodes) if i not in self._dispatch]
            raise RuntimeError(
                f"send before every node registered a handler; "
                f"unregistered nodes: {missing}"
            )
        total = size_bytes + HEADER_BYTES
        if total < HEADER_BYTES:
            raise ValueError(
                f"message size {total} smaller than header "
                f"({HEADER_BYTES} bytes)"
            )
        stats = self.stats
        stats.msg_count[category] += 1
        stats.msg_bytes[category] += total

        now = self.sim._now  # direct read; the property is hot-path overhead
        nic_free = self._nic_free[src]
        injection_start = now if now >= nic_free else nic_free
        injection_end = injection_start + self._transfer_us(total)
        self._nic_free[src] = injection_end
        if self._topo_pair is None:
            arrival = injection_end + self._startup_us
        else:
            arrival = self._topo_arrival(src, dst, total, injection_end)
        self._sim_at(arrival, ports[dst].arrive, category, payload)

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network {self.nnodes} nodes, {self.comm_model.name}>"
