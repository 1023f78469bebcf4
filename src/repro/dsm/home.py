"""Home-side per-object state.

The home copy is always valid (the defining asymmetry of home-based
protocols).  Besides the payload and version counter, the home keeps the
:class:`~repro.core.state.ObjectAccessState` monitor that feeds the
migration policy; on migration the whole :class:`HomeEntry` (payload copy,
version, monitor state) is shipped to the new home, so the feedback loop
continues seamlessly.

Home-write trapping (§3.3): rather than literally write-protecting the
home copy, the engine records at most one home write per local
synchronization interval (the interval counter bumps at every acquire and
barrier resume) — exactly the write-fault stream the real system traps,
because the copy is re-protected at each release.  The trap has one body,
:meth:`~repro.dsm.faultin.FaultInMixin._trap_home_write`; this record
only carries the interval it last fired in.  Home reads are not trapped:
Eq. 2 reads no home-read count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import ObjectAccessState


@dataclass(slots=True)
class HomeEntry:
    """The home replica of one object plus its access monitor."""

    payload: np.ndarray
    version: int
    state: ObjectAccessState

    #: Local interval id of the last trapped home write (-1 = never);
    #: used to trap at most one write fault per interval.
    write_interval: int = -1
    #: Read-only image of this version that every reply shares, made at
    #: the first serve; dropped at each version bump (PROTOCOL.md §2).
    snapshot: np.ndarray | None = None
