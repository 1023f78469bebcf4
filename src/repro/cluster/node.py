"""Cluster node: a message endpoint with a per-message service overhead."""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from repro.cluster.message import MsgCategory

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import Network

#: Fixed CPU overhead charged at the receiver per handled message
#: (interrupt + protocol dispatch), in microseconds.
DEFAULT_SERVICE_US = 5.0


class Node:
    """One cluster node.

    Its delivery port charges :attr:`service_us` of receiver CPU time
    before a message's handler runs, modelling interrupt/dispatch
    overhead.  Protocol engines register their category -> handler table
    with :meth:`Network.register_fast_dispatch
    <repro.cluster.network.Network.register_fast_dispatch>`.
    """

    def __init__(
        self,
        node_id: int,
        network: "Network",
        service_us: float = DEFAULT_SERVICE_US,
    ):
        if node_id < 0:
            raise ValueError(f"node id must be non-negative, got {node_id}")
        if service_us < 0:
            raise ValueError(f"service_us must be non-negative, got {service_us}")
        self.node_id = node_id
        self.network = network
        self.service_us = service_us

    def install_handler(self, handler: Callable[[Any], None]) -> None:
        """Register one handler for every category (exactly once).

        The handler receives each arriving message's payload.
        """
        self.network.register_fast_dispatch(
            self.node_id, dict.fromkeys(MsgCategory, handler), _keep_network_send
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id}>"


def _keep_network_send(sender: Callable) -> None:
    """Sender binder of a plain handler: it sends through ``Network.send``."""
