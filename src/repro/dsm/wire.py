"""Wire payloads of the home-based protocol and their fixed byte sizes.

Every message a :class:`~repro.dsm.protocol.DsmEngine` sends is one of
these slotted dataclasses; the homeless baseline reuses the lock and
barrier messages.  Payloads are never copied in flight: one object is
handed from sender to receiver (or shared across a fan-out), so
receivers only read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.state import ObjectAccessState
from repro.memory.diff import Diff

#: Payload bytes of small fixed-size protocol fields.
REQUEST_BYTES = 8
REPLY_EXTRA_BYTES = 8  # version stamp on an object reply
MONITOR_BYTES = 48  # serialized ObjectAccessState on migration
ACK_BYTES = 8
SYNC_BASE_BYTES = 8


@dataclass(slots=True)
class ObjRequest:
    oid: int
    requester: int
    request_id: tuple[int, int]
    min_version: int
    hops: int
    for_write: bool
    #: Causal span id of the fault that sent this request (``None`` when
    #: span tracing is off); travels through pending queues unchanged so
    #: a deferred serve still links to its cause.  See repro.obs.spans.
    op_id: int | None = None


@dataclass(slots=True)
class ObjReply:
    """An object image — and, with ``migrated``, the home hand-off.

    Every migration trigger ships the home in this one message: the
    fault reply (OBJ_REPLY_MIG), the ship reply (SHIP_REPLY) and the
    barrier-ordered transfer (CONTROL, ``request_id=None``).  ``home``
    is then the receiver itself and ``monitor`` the access monitor that
    travels with the home (§3.1).
    """

    oid: int
    request_id: tuple[int, int] | None
    version: int
    data: np.ndarray
    home: int
    migrated: bool = False
    monitor: ObjectAccessState | None = None
    #: Span id of the migration this reply executes (hand-offs only).
    op_id: int | None = None


@dataclass(slots=True)
class RedirectReply:
    oid: int
    request_id: tuple[int, int]
    directive: dict[str, Any]


@dataclass(slots=True)
class ObjBatchRequest:
    """Batched read fault-in — models the GOS's connectivity-based object
    pushing (§5.1): objects co-homed with the faulted one travel in one
    message instead of one round trip each."""

    oids: list[int]
    requester: int
    request_id: tuple[int, int]


@dataclass(slots=True)
class ObjBatchReply:
    request_id: tuple[int, int]
    #: (oid, version, payload copy) for every object served.
    items: list[tuple[int, int, np.ndarray]]
    #: oids not homed here (requester falls back to the singular path).
    missing: list[int]
    home: int


@dataclass(slots=True)
class DiffMsg:
    oid: int
    writer: int
    request_id: tuple[int, int]
    diff: Diff
    hops: int = 0
    #: Causal span id of the diff_flush that shipped this diff.
    op_id: int | None = None


@dataclass(slots=True)
class DiffAck:
    oid: int
    request_id: tuple[int, int]
    version: int
    home: int


@dataclass(slots=True)
class LockAcquireMsg:
    lock_id: int
    requester: int
    request_id: tuple[int, int]
    #: Write notices of the interval the acquirer just closed — diffs are
    #: flushed at *every* synchronization point (acquire and release), so
    #: each synchronized update reaches the home as its own diff.
    notices: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class LockGrantMsg:
    lock_id: int
    request_id: tuple[int, int]
    notices: dict[int, int]
    #: Retry discipline: the lock was held; try again after a backoff.
    busy: bool = False


@dataclass(slots=True)
class LockReleaseMsg:
    lock_id: int
    releaser: int
    notices: dict[int, int]


@dataclass(slots=True)
class BarrierArriveMsg:
    barrier_id: int
    node: int
    round_no: int
    notices: dict[int, int]


@dataclass(slots=True)
class BarrierReleaseMsg:
    barrier_id: int
    round_no: int
    notices: dict[int, int]
    new_homes: dict[int, int] = field(default_factory=dict)
    #: Multicast relay fields (release_fanout only; PROTOCOL.md §15).
    #: ``fanout == 0`` is the direct burst from the manager; with
    #: ``fanout == k`` each receiver re-forwards along the k-ary tree of
    #: :func:`~repro.dsm.redirection.fanout_children` rooted at ``root``.
    #: One immutable message object is shared across the whole fan-out.
    root: int = -1
    fanout: int = 0


@dataclass(slots=True)
class MigrateOrderMsg:
    oid: int
    new_home: int


@dataclass(slots=True)
class ShipRequest:
    """Synchronized method shipping (§5.1's GOS optimization): execute a
    mutator at the object's home instead of faulting the object over."""

    oid: int
    requester: int
    request_id: tuple[int, int]
    fn: Any  # callable(payload) -> result, runs at the home
    compute_us: float
    args_bytes: int
    hops: int = 0
    #: Causal span id of the ship operation that sent this request.
    op_id: int | None = None


@dataclass(slots=True)
class ShipReply:
    """The result of a mutator executed at the home.  A home that
    migrates instead answers with the hand-off :class:`ObjReply`."""

    oid: int
    request_id: tuple[int, int]
    version: int
    home: int
    result: Any = None


@dataclass(slots=True)
class HomeQueryMsg:
    oid: int
    requester: int
    request_id: tuple[int, int]


@dataclass(slots=True)
class HomeAnswerMsg:
    oid: int
    request_id: tuple[int, int]
    home: int
