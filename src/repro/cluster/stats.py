"""Cluster-wide statistics: raw message traffic and protocol events.

Two layers of accounting, matching what the paper reports:

* **raw traffic** — message count and byte count per
  :class:`~repro.cluster.message.MsgCategory` (Figure 3's "message number"
  and "network traffic");
* **protocol events** — named counters maintained by the DSM layer:
  Figure 5b's ``obj`` (fault-in without migration), ``mig`` (fault-in with
  migration), ``diff`` (diff propagation) and ``redir`` (home redirection,
  counted with accumulation), plus monitor-level events (home reads/writes,
  exclusive home writes, migrations, ...).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.cluster.message import SYNC_CATEGORIES, MsgCategory

#: Figure 5b's four message-breakdown event names.
BREAKDOWN_EVENTS = ("obj", "mig", "diff", "redir")


class ClusterStats:
    """Mutable statistics sink shared by the network and the DSM layer."""

    def __init__(self) -> None:
        #: Per-category message and wire-byte counts, bumped by the
        #: network's send body (Python or compiled) on every injection.
        self.msg_count: Counter[MsgCategory] = Counter()
        self.msg_bytes: Counter[MsgCategory] = Counter()
        self.events: Counter[str] = Counter()
        #: High-water marks of protocol memory state (``name -> max``).
        #: A side channel deliberately *excluded* from :meth:`snapshot`
        #: — the determinism digest hashes the snapshot, and peaks are
        #: memory telemetry, not protocol behaviour.
        self.peaks: dict[str, int] = {}

    # -- raw traffic ------------------------------------------------------

    def total_messages(
        self, exclude: Iterable[MsgCategory] = ()
    ) -> int:
        """Total number of messages, optionally excluding some categories."""
        excluded = frozenset(exclude)
        return sum(n for cat, n in self.msg_count.items() if cat not in excluded)

    def total_bytes(self, exclude: Iterable[MsgCategory] = ()) -> int:
        """Total wire bytes, optionally excluding some categories."""
        excluded = frozenset(exclude)
        return sum(n for cat, n in self.msg_bytes.items() if cat not in excluded)

    def data_messages(self) -> int:
        """Message count excluding synchronization traffic (paper's Fig. 5)."""
        return self.total_messages(exclude=SYNC_CATEGORIES)

    def data_bytes(self) -> int:
        """Byte count excluding synchronization traffic."""
        return self.total_bytes(exclude=SYNC_CATEGORIES)

    # -- protocol events --------------------------------------------------

    def incr(self, event: str, n: int = 1) -> None:
        """Increment a named protocol event counter."""
        if n < 0:
            raise ValueError(f"cannot decrement event {event!r} by {n}")
        self.events[event] += n

    def breakdown(self) -> dict[str, int]:
        """Figure 5b's message breakdown: obj / mig / diff / redir counts."""
        return {name: self.events.get(name, 0) for name in BREAKDOWN_EVENTS}

    # -- memory telemetry --------------------------------------------------

    def record_peak(self, name: str, value: int) -> None:
        """Track the high-water mark of a memory-state quantity."""
        if self.peaks.get(name, 0) < value:
            self.peaks[name] = value

    def memory_snapshot(self) -> dict[str, int]:
        """Sorted copy of the peak telemetry (reports only, never hashed)."""
        return dict(sorted(self.peaks.items()))

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict copy of all counters (stable keys, for reports/tests)."""
        return {
            "msg_count": {cat.value: n for cat, n in sorted(
                self.msg_count.items(), key=lambda kv: kv[0].value)},
            "msg_bytes": {cat.value: n for cat, n in sorted(
                self.msg_bytes.items(), key=lambda kv: kv[0].value)},
            "events": dict(sorted(self.events.items())),
        }

    # -- aggregation ------------------------------------------------------

    def merge(self, other: "ClusterStats") -> "ClusterStats":
        """Accumulate another stats object's counters into this one.

        Lets the parallel sweep executor's per-run outcomes reduce to one
        cluster-wide (or sweep-wide) view.  Returns ``self`` for
        chaining; ``other`` is not modified.
        """
        self.msg_count.update(other.msg_count)
        self.msg_bytes.update(other.msg_bytes)
        self.events.update(other.events)
        for name, value in other.peaks.items():
            if self.peaks.get(name, 0) < value:
                self.peaks[name] = value
        return self

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ClusterStats":
        """Rebuild a stats object from a :meth:`snapshot` dict.

        Inverse of :meth:`snapshot`: category keys are restored from
        their wire names, so ``ClusterStats.from_snapshot(s.snapshot())``
        round-trips exactly.  Combined with :meth:`merge`, this aggregates
        snapshots shipped across process boundaries.
        """
        stats = cls()
        for name, n in snap.get("msg_count", {}).items():
            stats.msg_count[MsgCategory(name)] = n
        for name, n in snap.get("msg_bytes", {}).items():
            stats.msg_bytes[MsgCategory(name)] = n
        for event, n in snap.get("events", {}).items():
            stats.events[event] = n
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ClusterStats msgs={self.total_messages()} "
            f"bytes={self.total_bytes()} events={sum(self.events.values())}>"
        )
