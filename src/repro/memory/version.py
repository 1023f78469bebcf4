"""Versions and write notices.

Each object's home keeps a monotonically increasing integer version,
bumped once per applied update interval (one diff application, or one
home-write interval closed at release).  A :class:`WriteNotice` announces
"object ``oid`` reached version ``version``"; notices piggyback on lock
grants and barrier releases (lazy release consistency), and a cached copy
older than a received notice must be invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True, slots=True)
class WriteNotice:
    """An LRC write notice: ``oid`` was updated up to ``version``."""

    oid: int
    version: int

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ValueError(f"notice version must be >= 1, got {self.version}")


def merge_notices(
    accumulated: dict[int, int], incoming: "list[WriteNotice] | dict[int, int]"
) -> None:
    """Fold ``incoming`` notices into an ``oid -> max version`` map, in place."""
    if isinstance(incoming, dict):
        items = incoming.items()
    else:
        items = ((n.oid, n.version) for n in incoming)
    for oid, version in items:
        if accumulated.get(oid, 0) < version:
            accumulated[oid] = version
