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

