"""Home-side per-object state.

The home copy is always valid (the defining asymmetry of home-based
protocols).  Besides the payload and version counter, the home keeps the
:class:`~repro.core.state.ObjectAccessState` monitor that feeds the
migration policy; on migration the whole :class:`HomeEntry` (payload copy,
version, monitor state) is shipped to the new home, so the feedback loop
continues seamlessly.

Home-access trapping (§3.3): rather than literally write-protecting the
home copy, we record at most one home read and one home write per local
synchronization interval (the interval counter bumps at every acquire and
barrier resume) — exactly the fault stream the real system traps, because
the copy is re-protected at each release/acquire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.state import ObjectAccessState
from repro.dsm.pending import VersionIndexedQueue


@dataclass(slots=True)
class HomeEntry:
    """The home replica of one object plus its access monitor."""

    payload: np.ndarray
    version: int
    state: ObjectAccessState

    #: Local interval ids of the last trapped home read / home write
    #: (-1 = never); used to trap at most one fault per interval.
    read_interval: int = -1
    write_interval: int = -1

    #: Requests deferred because the entry has not yet reached the
    #: requester's required version (safety net; see protocol notes),
    #: indexed by that version so a bump pops only newly-eligible ones.
    pending: VersionIndexedQueue = field(default_factory=VersionIndexedQueue)

    def trap_home_read(self, interval: int) -> bool:
        """Record a home read fault once per interval; True if trapped now."""
        if self.read_interval == interval:
            return False
        self.read_interval = interval
        self.state.record_home_read()
        return True

    def trap_home_write(self, interval: int) -> tuple[bool, bool]:
        """Record a home write fault once per interval.

        Returns ``(trapped_now, exclusive)`` where ``exclusive`` reflects
        the paper's exclusive-home-write positive feedback (only meaningful
        when ``trapped_now``).
        """
        if self.write_interval == interval:
            return False, False
        self.write_interval = interval
        exclusive = self.state.record_home_write()
        return True, exclusive
