"""New-home notification mechanisms (paper §3.2).

After a home migration the other nodes must be able to find the new home.
The paper discusses three mechanisms and adopts the forwarding pointer;
all three are implemented here so the trade-off can be measured
(``benchmarks/test_ablation_notification.py`` and the ``repro-bench
sweep`` crossover lab):

* **forwarding pointer** — the old home keeps a pointer and answers
  requests with the current hint; chains accumulate (and the hop count is
  the protocol's negative feedback ``R``);
* **broadcast** — the old home announces the new location to every node at
  migration time (N-2 extra messages; the requester that triggered the
  migration learns it from the reply itself).  At scale the serialized
  N-message burst at one NIC dominates, so ``BroadcastMechanism(fanout=k)``
  relays the announcement through a k-ary multicast tree instead —
  O(log_k N) latency depth for one extra message (N-1 total);
* **home manager** — a designated manager node records every migration; a
  node that misses asks the manager, paying old-home → manager → new-home.
  ``HomeManagerMechanism(shards=K)`` spreads the directory over K manager
  nodes by object id (oid-hash → shard), removing the single-manager
  hotspot at large N; ``shards=1`` is bit-identical to the classic single
  manager.

Every old home always retains the local pointer (it costs nothing and the
real implementation needs it to forward in-flight traffic); mechanisms
differ in the *extra messages* they send at migration time and in how an
obsolete home tells a requester to proceed.

:data:`MECHANISMS` names the three; :func:`make_mechanism` parses a spec
string — the name plus colon-separated integer parameters, e.g.
``"broadcast:fanout=4"`` or ``"home-manager:manager=3:shards=2"``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, TYPE_CHECKING

from repro.cluster.message import MsgCategory

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsm.protocol import DsmEngine

#: Wire payload bytes of a notification control message (oid + node id).
NOTIFY_BYTES = 8


def fanout_children(node: int, root: int, fanout: int, nnodes: int) -> list:
    """The nodes ``node`` forwards to in a k-ary multicast tree.

    The tree spans all ``nnodes`` nodes rooted at ``root``: node ids are
    mapped to virtual indices ``v = (node - root) % nnodes`` (the root is
    ``v == 0``) and the children of ``v`` are ``k*v + 1 .. k*v + k`` —
    heap numbering, so every non-root index has exactly one parent and
    the relay depth is ``ceil(log_k N)``.  Returns real node ids.
    """
    first = fanout * ((node - root) % nnodes) + 1
    last = min(first + fanout, nnodes)
    return [(root + child) % nnodes for child in range(first, last)]


class NotificationMechanism(ABC):
    """Strategy for publishing a new home location."""

    name: str = "mechanism"

    #: Spec-string parameter -> constructor keyword (:func:`make_mechanism`).
    spec_params: dict[str, str] = {}

    def validate(self, nnodes: int) -> None:
        """Check the configuration against the actual cluster size.

        Called by every :class:`~repro.dsm.protocol.DsmEngine` at
        construction — a mechanism naming nodes outside the cluster must
        fail here instead of silently targeting a nonexistent node at
        send time.
        """

    @abstractmethod
    def on_migration(self, old_home: "DsmEngine", oid: int, new_home: int) -> None:
        """Called at the old home right after it shipped the object away."""

    @abstractmethod
    def miss_directive(self, obsolete_home: "DsmEngine", oid: int) -> dict[str, Any]:
        """What an obsolete home tells a requester that missed.

        Returns ``{"kind": "redirect", "target": node}`` or
        ``{"kind": "manager", "manager": node}``.
        """


class ForwardingPointerMechanism(NotificationMechanism):
    """The paper's choice: no action on migration; obsolete homes redirect
    via their local pointer, and redirections may accumulate along
    migration chains."""

    name = "forwarding-pointer"

    def on_migration(self, old_home, oid, new_home) -> None:
        pass  # the pointer itself is installed by the engine

    def miss_directive(self, obsolete_home, oid) -> dict[str, Any]:
        return {"kind": "redirect", "target": obsolete_home.forwards[oid]}


class BroadcastMechanism(NotificationMechanism):
    """Broadcast the new location to all other nodes at migration time.

    Heavyweight when migrations are frequent, but later requesters go
    straight to the new home.  A request racing the broadcast still hits
    the retained pointer and is redirected.

    ``fanout=None`` (default) is the flat burst: N-2 messages injected
    back to back at the old home's NIC, whose serialization makes the
    burst O(N) deep.  ``fanout=k`` relays the announcement through the
    k-ary multicast tree of :func:`fanout_children` rooted at the old
    home: every node (including the new home, which forwards but learns
    nothing new) receives exactly one copy, N-1 messages total, and no
    NIC injects more than k — O(log_k N) latency depth.
    """

    name = "broadcast"
    spec_params = {"fanout": "fanout"}

    def __init__(self, fanout: int | None = None):
        if fanout is not None and fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.fanout = fanout

    def on_migration(self, old_home, oid, new_home) -> None:
        if self.fanout is None:
            for dst in range(old_home.network.nnodes):
                if dst in (old_home.node_id, new_home):
                    continue
                old_home.network.send(
                    old_home.node_id,
                    dst,
                    MsgCategory.HOME_BCAST,
                    NOTIFY_BYTES,
                    payload={"oid": oid, "new_home": new_home},
                )
            return
        # One shared payload fans down the relay tree; receivers forward
        # via DsmEngine._on_home_bcast before applying the hint.
        payload = {
            "oid": oid,
            "new_home": new_home,
            "root": old_home.node_id,
            "fanout": self.fanout,
        }
        for dst in fanout_children(
            old_home.node_id,
            old_home.node_id,
            self.fanout,
            old_home.network.nnodes,
        ):
            old_home.network.send(
                old_home.node_id,
                dst,
                MsgCategory.HOME_BCAST,
                NOTIFY_BYTES,
                payload=payload,
            )

    def miss_directive(self, obsolete_home, oid) -> dict[str, Any]:
        return {"kind": "redirect", "target": obsolete_home.forwards[oid]}


class HomeManagerMechanism(NotificationMechanism):
    """Designated manager node(s) track the authoritative home map.

    On migration the old home posts the new location to the manager.  A
    requester that misses is told to query the manager, then retries at
    the manager's answer — the old-home/manager/new-home sequence of §3.2.

    With ``shards=K`` the directory is sharded over the K consecutive
    nodes starting at ``manager_node`` by ``oid % K``, so the manager
    role (its HOME_UPDATE ingress and HOME_QUERY service load) spreads
    instead of concentrating at one NIC.  ``shards=1`` is exactly the
    classic single manager, message for message.
    """

    name = "home-manager"
    spec_params = {"manager": "manager_node", "shards": "shards"}

    def __init__(self, manager_node: int = 0, shards: int = 1):
        if manager_node < 0:
            raise ValueError(f"manager node must be >= 0, got {manager_node}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.manager_node = manager_node
        self.shards = shards
        if shards > 1:
            self.name = f"home-manager-x{shards}"

    def validate(self, nnodes: int) -> None:
        if self.manager_node >= nnodes:
            raise ValueError(
                f"manager node {self.manager_node} outside the "
                f"{nnodes}-node cluster"
            )
        if self.shards > nnodes:
            raise ValueError(
                f"{self.shards} manager shards on a {nnodes}-node cluster"
            )

    def shard_for(self, oid: int, nnodes: int) -> int:
        """The manager node responsible for ``oid``'s directory entry."""
        if self.shards == 1:
            return self.manager_node
        return (self.manager_node + oid % self.shards) % nnodes

    def on_migration(self, old_home, oid, new_home) -> None:
        manager = self.shard_for(oid, old_home.network.nnodes)
        if old_home.node_id == manager:
            old_home.manager_home_map[oid] = new_home
        else:
            old_home.network.send(
                old_home.node_id,
                manager,
                MsgCategory.HOME_UPDATE,
                NOTIFY_BYTES,
                payload={"oid": oid, "new_home": new_home},
            )

    def miss_directive(self, obsolete_home, oid) -> dict[str, Any]:
        return {
            "kind": "manager",
            "manager": self.shard_for(oid, obsolete_home.network.nnodes),
        }


#: Notification mechanism classes by report name.
MECHANISMS: dict[str, type[NotificationMechanism]] = {
    "forwarding-pointer": ForwardingPointerMechanism,
    "broadcast": BroadcastMechanism,
    "home-manager": HomeManagerMechanism,
}


def make_mechanism(name: str, manager_node: int = 0) -> NotificationMechanism:
    """Instantiate a notification mechanism from its spec string.

    ``manager_node`` places the home manager unless the spec says
    ``manager=``; the other mechanisms ignore it.  A malformed spec is
    one ``ValueError`` line.
    """
    base, _, rest = name.partition(":")
    try:
        cls = MECHANISMS[base]
    except KeyError:
        raise ValueError(
            f"unknown mechanism {name!r}; choose from {sorted(MECHANISMS)}"
        ) from None
    kwargs: dict[str, int] = {}
    if cls is HomeManagerMechanism:
        kwargs["manager_node"] = manager_node
    accepted = cls.spec_params
    for part in rest.split(":") if rest else ():
        key, sep, value = part.partition("=")
        if not sep or key not in accepted:
            raise ValueError(
                f"bad mechanism parameter {part!r} in {name!r}; "
                f"{base} accepts {sorted(accepted)}"
            )
        try:
            kwargs[accepted[key]] = int(value)
        except ValueError:
            raise ValueError(
                f"mechanism parameter {key}={value!r} in {name!r} "
                f"is not an integer"
            ) from None
    return cls(**kwargs)
