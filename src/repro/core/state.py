"""Per-object access bookkeeping kept at the object's home (§3.3, §4.1).

The home monitors, per object:

* **remote reads** — object fault-in requests arriving at the home;
* **remote writes** — diffs received at synchronization points;
* **home reads / home writes** — access faults of the home copy itself,
  trapped by invalidating it on acquire and write-protecting it on release;
* ``C`` — *consecutive remote writes*: writes from one remote node not
  interleaved with writes from the home or other remote nodes;
* ``E`` — *exclusive home writes* since the last migration: a home write
  with no remote write since an earlier home write (positive feedback);
* ``R`` — *redirected object requests* since the last migration, counted
  with accumulation (a request forwarded three times adds three) —
  negative feedback;
* the frozen threshold base ``T_{i-1}`` and a running average of observed
  diff sizes (used to evaluate ``alpha``).

This state object travels with the home on migration — the new home
continues the feedback loop where the old one left off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Sentinel writer id meaning "the home node itself wrote".
HOME_WRITER = -1


@dataclass
class ObjectAccessState:
    """Mutable per-object monitor/feedback state, owned by the home."""

    oid: int
    object_bytes: int

    # -- single-writer detection (C_i) ------------------------------------
    consecutive_writes: int = 0
    consecutive_writer: int | None = None

    # -- feedback since last migration (E_i, R_i) --------------------------
    exclusive_home_writes: int = 0
    redirections: int = 0

    # -- adaptive threshold base (T_{i-1}) ---------------------------------
    threshold_base: float = 1.0

    # -- lifetime statistics ------------------------------------------------
    migrations: int = 0
    home_reads: int = 0
    home_writes: int = 0
    remote_reads: int = 0
    remote_writes: int = 0

    # -- auxiliary ----------------------------------------------------------
    #: Last writer (node id or HOME_WRITER); None before the first write.
    last_writer: int | None = None
    #: Exponentially weighted average of observed diff sizes (bytes);
    #: initialised to the full object size until the first diff arrives.
    diff_bytes_avg: float = 0.0
    #: Nodes that fetched a copy since the last migration (approximate
    #: copyset, used by the Jackal-style LazyFlushing baseline).
    sharers: set[int] = field(default_factory=set)
    #: Remote nodes that wrote in the current barrier interval (used by the
    #: JiaJia-style BarrierMigration baseline); cleared at each barrier.
    interval_writers: set[int] = field(default_factory=set)
    #: Owner-transition count (LazyFlushing's max-5 bound).
    transitions: int = 0

    _DIFF_EWMA = 0.5  # weight of the newest observation

    def __post_init__(self) -> None:
        if self.object_bytes <= 0:
            raise ValueError(
                f"object_bytes must be positive, got {self.object_bytes}"
            )
        if self.diff_bytes_avg == 0.0:
            self.diff_bytes_avg = float(self.object_bytes)

    # -- recording ----------------------------------------------------------

    def record_remote_write(self, writer: int, diff_bytes: int) -> None:
        """A diff from ``writer`` was applied at the home."""
        if writer < 0:
            raise ValueError(f"remote writer id must be >= 0, got {writer}")
        self.remote_writes += 1
        if self.consecutive_writer == writer:
            self.consecutive_writes += 1
        else:
            self.consecutive_writer = writer
            self.consecutive_writes = 1
        self.last_writer = writer
        self.interval_writers.add(writer)
        self.diff_bytes_avg = (
            self._DIFF_EWMA * diff_bytes
            + (1.0 - self._DIFF_EWMA) * self.diff_bytes_avg
        )

    def record_home_write(self) -> bool:
        """The home node wrote its own copy (trapped home write fault).

        Returns True when this was an *exclusive* home write — no remote
        write intervened since an earlier home write (§4.1) — in which case
        ``E`` was incremented.
        """
        self.home_writes += 1
        exclusive = self.last_writer == HOME_WRITER
        if exclusive:
            self.exclusive_home_writes += 1
        self.last_writer = HOME_WRITER
        # A home write interleaves the remote-write chain (§3.3).
        self.consecutive_writes = 0
        self.consecutive_writer = None
        return exclusive

    def record_remote_read(self, reader: int, hops: int = 0) -> None:
        """An object request (fault-in) from ``reader`` reached the home
        after being forwarded ``hops`` times (accumulated as in
        :meth:`record_redirections`)."""
        if hops < 0:
            raise ValueError(f"hops must be non-negative, got {hops}")
        self.remote_reads += 1
        self.sharers.add(reader)
        self.redirections += hops

    def record_home_read(self) -> None:
        """The home node read its own copy (trapped home read fault)."""
        self.home_reads += 1

    def record_redirections(self, hops: int) -> None:
        """An arriving request was forwarded ``hops`` times (accumulation)."""
        if hops < 0:
            raise ValueError(f"hops must be non-negative, got {hops}")
        self.redirections += hops

    def reset_after_migration(self, new_threshold_base: float) -> None:
        """Close feedback epoch ``i``: freeze the threshold, zero C/E/R."""
        self.migrations += 1
        self.transitions += 1
        self.threshold_base = new_threshold_base
        self.consecutive_writes = 0
        self.consecutive_writer = None
        self.exclusive_home_writes = 0
        self.redirections = 0
        self.sharers = set()
        # The new home's first write follows a remote epoch: not exclusive.
        self.last_writer = None
