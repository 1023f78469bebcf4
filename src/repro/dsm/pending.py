"""The index for version-deferred protocol work.

A home parks object requests demanding a version its copy has not
reached in a :class:`VersionIndexedQueue` (one per home entry), so a
version bump pops only the newly eligible requests instead of
rescanning every parked one.  (Work that raced an inbound home
hand-off parks in plain per-oid lists on the engine.)

The queue preserves the exact service order of the flat-list code it
replaced: requests become eligible in FIFO (arrival) order among the
eligible set, which is what the determinism invariant (same event order,
same :class:`~repro.cluster.stats.ClusterStats`) requires.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterator


class VersionIndexedQueue(list):
    """Deferred requests indexed by the version they wait for.

    A min-heap keyed on ``(min_version, arrival_seq)``: when the home
    copy's version bumps to ``v``, :meth:`pop_ready` pops exactly the
    newly-eligible requests (``min_version <= v``) in O(k log n) instead
    of rescanning all n pending requests, and returns them in arrival
    order so service order matches the historical full-scan behaviour.

    The heap is the list itself, so ``len`` and the truth test every
    version bump makes (``if entry.pending``) are the list's own, with
    no Python call; iteration yields the items in arrival order.
    """

    __slots__ = ("_seq",)

    def __init__(self) -> None:
        super().__init__()
        self._seq = 0

    def push(self, min_version: int, item: Any) -> None:
        """Defer ``item`` until the version reaches ``min_version``."""
        heappush(self, (min_version, self._seq, item))
        self._seq += 1

    def pop_ready(self, version: int) -> list[Any]:
        """Remove and return every item with ``min_version <= version``,
        in arrival order."""
        if not self or self[0][0] > version:
            return []
        ready: list[tuple[int, int, Any]] = []
        while self and self[0][0] <= version:
            ready.append(heappop(self))
        ready.sort(key=lambda entry: entry[1])
        return [item for _version, _seq, item in ready]

    def drain(self) -> list[Any]:
        """Remove and return everything, in arrival order (used when the
        home migrates away and all parked requests must chase it)."""
        items = sorted(self[:], key=lambda entry: entry[1])
        self.clear()
        return [item for _version, _seq, item in items]

    def __iter__(self) -> Iterator[Any]:
        """Iterate items in arrival order (inspection/tests only)."""
        return iter(
            item
            for _version, _seq, item in sorted(
                self[:], key=lambda entry: entry[1]
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VersionIndexedQueue pending={len(self)}>"
