"""Per-node cached (non-home) object copies.

A cached copy mirrors the virtual-memory protection a page-based DSM gets
from ``mprotect`` and the paper's GOS gets from access checks in the JIT;
a copy is valid or gone:

* no entry — any access faults and triggers fault-in;
* ``twin is None`` — valid read-only copy (a fetched one is the home's
  shared snapshot, an array that refuses writes); a write faults,
  creates the twin and makes the copy writable;
* ``twin`` set — writable copy; the diff is computed and shipped to the
  home at the next release/barrier.

Invalidation drops the entry (PROTOCOL.md §12).  :class:`AccessMode`
names the homeless engine's replica states, which are notice-driven.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class AccessMode(enum.Enum):
    INVALID = "invalid"
    READ = "read"
    WRITE = "write"


@dataclass(slots=True)
class CacheEntry:
    """One node's cached copy of a remote-homed object."""

    payload: np.ndarray
    version: int
    twin: np.ndarray | None = None

    def upgrade_to_write(self) -> None:
        """Write fault on a read-only copy: snapshot the twin.  A fetched
        payload (the home's shared snapshot) becomes the twin itself."""
        if self.twin is not None:
            return
        # make_twin, inline: this runs once per write interval
        payload = self.payload
        if payload.ndim != 1:
            raise ValueError(f"payloads are 1-D arrays, got ndim={payload.ndim}")
        if payload.flags.writeable:  # private: it keeps its identity
            self.twin = payload.copy()
        else:  # nobody writes a snapshot: the writer gets a private copy
            self.twin, self.payload = payload, payload.copy()
