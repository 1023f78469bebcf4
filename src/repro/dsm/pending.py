"""Indexed containers for deferred protocol work.

The protocol engine parks three kinds of work it cannot serve yet:

* object requests demanding a version the home copy has not reached
  (:class:`VersionIndexedQueue`, one per home entry) — previously a flat
  list rescanned in full on *every* version bump, the single largest
  call count in the PR-1 profile;
* foreign requests/diffs that raced an inbound home transfer
  (:class:`KeyedFifo`, one per engine) — drained wholesale when the
  transfer lands.

Both containers preserve the exact service order of the flat-list code
they replace: requests become eligible in FIFO (arrival) order among the
eligible set, which is what the determinism invariant (same event order,
same :class:`~repro.cluster.stats.ClusterStats`) requires.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Iterator


class VersionIndexedQueue:
    """Deferred requests indexed by the version they wait for.

    A min-heap keyed on ``(min_version, arrival_seq)``: when the home
    copy's version bumps to ``v``, :meth:`pop_ready` pops exactly the
    newly-eligible requests (``min_version <= v``) in O(k log n) instead
    of rescanning all n pending requests, and returns them in arrival
    order so service order matches the historical full-scan behaviour.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0

    def push(self, min_version: int, item: Any) -> None:
        """Defer ``item`` until the version reaches ``min_version``."""
        heappush(self._heap, (min_version, self._seq, item))
        self._seq += 1

    def pop_ready(self, version: int) -> list[Any]:
        """Remove and return every item with ``min_version <= version``,
        in arrival order."""
        heap = self._heap
        if not heap or heap[0][0] > version:
            return []
        ready: list[tuple[int, int, Any]] = []
        while heap and heap[0][0] <= version:
            ready.append(heappop(heap))
        ready.sort(key=lambda entry: entry[1])
        return [item for _version, _seq, item in ready]

    def drain(self) -> list[Any]:
        """Remove and return everything, in arrival order (used when the
        home migrates away and all parked requests must chase it)."""
        items = sorted(self._heap, key=lambda entry: entry[1])
        self._heap.clear()
        return [item for _version, _seq, item in items]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Any]:
        """Iterate items in arrival order (inspection/tests only)."""
        return iter(
            item
            for _version, _seq, item in sorted(
                self._heap, key=lambda entry: entry[1]
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VersionIndexedQueue pending={len(self._heap)}>"


class KeyedFifo:
    """Per-key FIFO queues for work parked until a key-event occurs.

    Used for foreign requests and diffs that arrived while the home
    transfer for their object was still in flight: ``add`` parks in O(1),
    ``pop_all`` hands the whole queue back in arrival order and forgets
    the key.  Empty keys are never retained, so truthiness means "some
    work is parked somewhere".
    """

    __slots__ = ("_by_key",)

    def __init__(self) -> None:
        self._by_key: dict[Any, deque[Any]] = {}

    def add(self, key: Any, item: Any) -> None:
        """Park ``item`` under ``key`` (FIFO within the key)."""
        queue = self._by_key.get(key)
        if queue is None:
            queue = self._by_key[key] = deque()
        queue.append(item)

    def pop_all(self, key: Any) -> list[Any]:
        """Remove and return everything parked under ``key``, in order."""
        queue = self._by_key.pop(key, None)
        return [] if queue is None else list(queue)

    def prune_empty(self) -> int:
        """Drop keys whose queue is empty; return how many were dropped.

        ``add``/``pop_all`` never leave empty queues behind, but callers
        holding a queue reference could drain one in place; the
        barrier-epoch GC calls this so the invariant "truthiness means
        parked work" survives such use and the key map cannot accrete.
        """
        empty = [key for key, queue in self._by_key.items() if not queue]
        for key in empty:
            del self._by_key[key]
        return len(empty)

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._by_key.values())

    def __bool__(self) -> bool:
        return bool(self._by_key)

    def __contains__(self, key: Any) -> bool:
        return key in self._by_key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KeyedFifo keys={len(self._by_key)} items={len(self)}>"

