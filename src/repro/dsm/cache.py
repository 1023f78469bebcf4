"""Per-node cached (non-home) object copies and their access states.

The access-state machine mirrors the virtual-memory protection states a
page-based DSM gets from ``mprotect`` and the paper's GOS gets from access
checks in the JIT:

* ``INVALID`` — no usable copy; any access faults and triggers fault-in;
* ``READ`` — valid read-only copy; a write faults, creates the twin, and
  upgrades to ``WRITE``;
* ``WRITE`` — writable copy with a twin snapshot; the diff is computed and
  shipped to the home at the next release/barrier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.arena import Arena


class AccessMode(enum.Enum):
    INVALID = "invalid"
    READ = "read"
    WRITE = "write"


@dataclass(slots=True)
class CacheEntry:
    """One node's cached copy of a remote-homed object."""

    payload: np.ndarray
    version: int
    mode: AccessMode = AccessMode.READ
    twin: np.ndarray | None = None

    def readable(self) -> bool:
        return self.mode is not AccessMode.INVALID

    def writable(self) -> bool:
        return self.mode is AccessMode.WRITE

    def upgrade_to_write(self, pool: "Arena | None" = None) -> None:
        """Write fault on a READ copy: snapshot the twin, allow writes.

        With ``pool`` set, the twin buffer is carved from (and later
        returned to) that arena, so repeated write intervals on the same
        object recycle one buffer instead of churning the allocator.
        """
        if self.mode is AccessMode.WRITE:
            return
        if self.mode is AccessMode.INVALID:
            raise RuntimeError("cannot upgrade an INVALID cache entry to WRITE")
        # make_twin, inline: this runs once per write interval
        payload = self.payload
        if payload.ndim != 1:
            raise ValueError(f"payloads are 1-D arrays, got ndim={payload.ndim}")
        self.twin = payload.copy() if pool is None else pool.take_copy(payload)
        self.mode = AccessMode.WRITE

    def invalidate(self) -> None:
        """Drop validity (a newer write notice arrived)."""
        if self.mode is AccessMode.WRITE:
            raise RuntimeError(
                "invalidating a dirty WRITE copy would lose updates; "
                "diffs must be flushed before notices are applied"
            )
        self.mode = AccessMode.INVALID

    def downgrade_after_flush(
        self, acked_version: int, pool: "Arena | None" = None
    ) -> None:
        """After the diff was acked by the home, drop the twin.

        If the ack shows our update applied directly on top of the version
        we fetched (``acked == version + 1``) the copy equals the home copy
        and stays READ-valid at the new version; otherwise another writer's
        diff interleaved (multiple-writer interval) and our copy misses its
        updates, so it must be invalidated.
        """
        # _drop_twin, inline: this runs once per acked diff
        if self.twin is not None and pool is not None:
            pool.free(self.twin)
        self.twin = None
        if acked_version == self.version + 1:
            self.version = acked_version
            self.mode = AccessMode.READ
        else:
            self.mode = AccessMode.INVALID
            self.version = acked_version

    def downgrade_clean(self, pool: "Arena | None" = None) -> None:
        """Release with no actual changes: drop twin, back to READ."""
        self._drop_twin(pool)
        if self.mode is AccessMode.WRITE:
            self.mode = AccessMode.READ

    def _drop_twin(self, pool: "Arena | None") -> None:
        if self.twin is not None and pool is not None:
            pool.free(self.twin)
        self.twin = None


class CacheIndex:
    """Flat per-node cache map: a sticky ``oid -> slot`` index plus a
    slot array, shared between both backends.

    The compiled kernel's ``LocalAccess`` fast path serves read/write
    hits straight from ``_index``/``_slots`` without touching Python
    method dispatch, so those two containers are **never rebound** after
    construction — the C side caches direct references to them.  An oid
    keeps its slot for the lifetime of the engine: ``pop`` only writes
    ``None`` into the slot, and a re-inserted oid reuses it.  That keeps
    the index dict insert-free (hence resize-free) on the steady-state
    hit path.

    Mapping semantics match the plain dict this replaced, with one
    deliberate difference: iteration yields entries in first-touch slot
    order rather than dict insertion order.  Every iterating consumer
    (`invalidate_all_cached`, barrier GC, footprint accounting) is
    order-insensitive, and the determinism digest does not hash cache
    iteration order.
    """

    __slots__ = ("_index", "_slots", "_oids", "_live")

    def __init__(self) -> None:
        self._index: dict[int, int] = {}
        self._slots: list[CacheEntry | None] = []
        self._oids: list[int] = []
        self._live = 0

    def get(self, oid: int, default: "CacheEntry | None" = None):
        slot = self._index.get(oid)
        if slot is None:
            return default
        entry = self._slots[slot]
        return default if entry is None else entry

    def __getitem__(self, oid: int) -> CacheEntry:
        entry = self.get(oid)
        if entry is None:
            raise KeyError(oid)
        return entry

    def __setitem__(self, oid: int, entry: CacheEntry) -> None:
        if entry is None:
            raise ValueError("cache entries cannot be None")
        self.replace(oid, entry)

    def replace(self, oid: int, entry: CacheEntry) -> "CacheEntry | None":
        """Install ``entry`` for ``oid``; return the live entry it
        displaced, or ``None`` (a ``get`` and a set in one call)."""
        slot = self._index.get(oid)
        if slot is None:
            self._index[oid] = len(self._slots)
            self._slots.append(entry)
            self._oids.append(oid)
            self._live += 1
            return None
        slots = self._slots
        old = slots[slot]
        if old is None:
            self._live += 1
        slots[slot] = entry
        return old

    def pop(self, oid: int, *default):
        slot = self._index.get(oid)
        entry = None if slot is None else self._slots[slot]
        if entry is None:
            if default:
                return default[0]
            raise KeyError(oid)
        self._slots[slot] = None
        self._live -= 1
        return entry

    def __contains__(self, oid: int) -> bool:
        slot = self._index.get(oid)
        return slot is not None and self._slots[slot] is not None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def values(self):
        """Live entries in first-touch slot order."""
        return (entry for entry in self._slots if entry is not None)

    def items(self):
        """Live ``(oid, entry)`` pairs in first-touch slot order."""
        oids = self._oids
        return (
            (oids[slot], entry)
            for slot, entry in enumerate(self._slots)
            if entry is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CacheIndex live={self._live} slots={len(self._slots)}>"
