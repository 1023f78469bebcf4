"""Centralized barrier with notice exchange and JiaJia-style migration hook.

The barrier manager lives on one node (node 0, where the paper's
application starts).  One round: every thread flushes its diffs, then
sends BARRIER_ARRIVE carrying its write notices; when all parties arrived
the manager merges the notices, optionally runs barrier-time home
migration (for :class:`~repro.core.policies.BarrierMigration`), and
broadcasts BARRIER_RELEASE with the merged notices (and any new home
locations piggybacked, as JiaJia does).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.version import merge_notices


@dataclass(frozen=True, slots=True)
class BarrierHandle:
    """Application-facing barrier identity."""

    barrier_id: int
    home: int
    parties: int

    def __post_init__(self) -> None:
        if self.parties < 1:
            raise ValueError(f"barrier needs >= 1 parties, got {self.parties}")


@dataclass(slots=True)
class BarrierRound:
    """Manager-side state of the in-progress round."""

    round_no: int = 0
    arrived: int = 0
    #: Merged oid -> version notices of this round.
    notices: dict[int, int] = field(default_factory=dict)
    #: oid -> set of writer nodes this round (for barrier migration).
    writers: dict[int, set[int]] = field(default_factory=dict)


class BarrierState:
    """All rounds of one barrier at its manager node."""

    def __init__(self, handle: BarrierHandle):
        self.handle = handle
        self.round = BarrierRound()

    def arrive(
        self, node: int, notices: dict[int, int], round_no: int
    ) -> bool:
        """Record an arrival; True when the round became complete."""
        current = self.round
        if round_no != current.round_no:
            raise RuntimeError(
                f"barrier {self.handle.barrier_id}: arrival for round "
                f"{round_no} during round {current.round_no}"
            )
        current.arrived += 1
        if current.arrived > self.handle.parties:
            raise RuntimeError(
                f"barrier {self.handle.barrier_id}: more arrivals than "
                f"parties ({self.handle.parties})"
            )
        if notices:  # most arrivals at scale announce no writes
            merge_notices(current.notices, notices)
            writers = current.writers
            for oid in notices:
                writers.setdefault(oid, set()).add(node)
        return current.arrived == self.handle.parties

    def complete_round(self) -> tuple[int, dict[int, int], dict[int, set[int]]]:
        """Close the round; returns (round_no, merged notices, writer sets)."""
        finished = self.round
        self.round = BarrierRound(round_no=finished.round_no + 1)
        return finished.round_no, finished.notices, finished.writers
