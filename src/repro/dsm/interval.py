"""The LRC interval: diffs out and write notices in at every
synchronization point, the Java-consistency cache flush, and the home
applying a received diff.

At a release, acquire or barrier, each dirty cached object's diff (its
twin against the working copy) ships to the home, which applies it,
bumps the version, records a remote write — the consecutive-writes
chain ``C`` of Eq. 2 — and acks with the new version.  Synchronization
blocks on the acks, so a lock grant, which carries the write notices,
can never overtake the data it announces.

State is declared in :class:`~repro.dsm.protocol.DsmEngine`'s
constructor; this mixin only contributes methods.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.cluster.message import MsgCategory
from repro.dsm.cache import CacheEntry
from repro.dsm.wire import ACK_BYTES, REQUEST_BYTES, DiffAck, DiffMsg
from repro.memory.diff import apply_diff, compute_diff
from repro.sim.future import Future

_DIFF = MsgCategory.DIFF
_DIFF_ACK = MsgCategory.DIFF_ACK


class IntervalMixin:
    """Diff flush, notices, invalidation and diff service (a mixin of
    :class:`~repro.dsm.protocol.DsmEngine`)."""

    __slots__ = ()

    def flush_diffs(
        self, parent_op: int | None = None
    ) -> Generator[Any, Any, dict[int, int]]:
        """Ship diffs of all dirty objects to their homes; wait for acks.

        Returns the write notices of this interval (oid -> new version):
        cached-copy diffs, then :meth:`_home_notices`.  Synchronization
        operations run this generator only when ``self.dirty`` is
        non-empty; otherwise they call :meth:`_home_notices` directly,
        and only when ``home_dirty`` or ``carry_notices`` is non-empty.

        ``parent_op`` is the causal span of the synchronization operation
        this flush belongs to (lock acquire/release or barrier wait); each
        shipped diff opens a ``diff_flush`` child span closed at its ack.
        """
        notices: dict[int, int] = {}
        waits: list[tuple[int, CacheEntry, Future, int | None]] = []
        sp = self._sp_diff
        node = self.node_id
        for oid in sorted(self.dirty):
            cached = self.cache.get(oid)
            if cached is None or cached.twin is None:
                continue
            diff = compute_diff(oid, cached.twin, cached.payload)
            if diff is None:
                if self._tr_twin_free:
                    self.tracer.record(
                        "twin_free",
                        self.sim.now,
                        oid,
                        node,
                        interval=self.interval,
                    )
                cached.twin = None
                continue
            self._req_counter += 1
            request_id = (node, self._req_counter)
            fut = self._Future("diffack")
            self._reply_waiters[request_id] = fut
            target = self.home_hint.get(oid)
            if target is None:
                target = self.heap.initial_homes[oid]
            d_op = None
            if sp is not None:
                d_op = sp.open(
                    "diff_flush",
                    self.sim.now,
                    oid,
                    node,
                    parent=parent_op,
                    target=target,
                    size_bytes=diff.size_bytes,
                )
            if self._tr_diff_send:
                self.tracer.record(
                    "diff_send",
                    self.sim.now,
                    oid,
                    node,
                    target=target,
                    size_bytes=diff.size_bytes,
                    base_version=cached.version,
                )
            self._send(
                target,
                _DIFF,
                diff.size_bytes + REQUEST_BYTES,
                DiffMsg(oid, node, request_id, diff, 0, d_op),
            )
            # The write interval ends at the *send*: the diff captured its
            # image, and the payload now equals what the home will hold
            # once the diff lands.  Free the twin here so a co-located
            # thread's write before the ack opens a fresh interval with a
            # fresh twin against that post-diff image — keeping the old
            # twin until the ack mis-bases the next diff and can silently
            # drop a write that restores the old twin's value.
            if self._tr_twin_free:
                self.tracer.record(
                    "twin_free",
                    self.sim.now,
                    oid,
                    node,
                    interval=self.interval,
                )
            cached.twin = None
            waits.append((oid, cached, fut, d_op))
        self.dirty.clear()
        cache = self.cache
        home_hint = self.home_hint
        initial_homes = self.heap.initial_homes
        for oid, cached, fut, d_op in waits:
            ack: DiffAck = yield fut
            # _learn_home, inline: this runs once per diff
            if ack.home == initial_homes[oid]:
                home_hint.pop(oid, None)
            else:
                home_hint[oid] = ack.home
            # A co-located sync point may have dropped the copy meanwhile
            # (and a fault re-fetched it): then the ack has nothing to
            # update.  A live copy advances to the acked version if a
            # co-located thread already opened the next write interval on
            # the post-diff image, or if our diff applied directly on top
            # of the fetched version, so the copy equals the home copy.
            # Otherwise another writer's diff interleaved and the copy
            # misses it: drop it.
            if cache.get(oid) is cached:
                if cached.twin is not None or ack.version == cached.version + 1:
                    cached.version = ack.version
                else:
                    del cache[oid]
            notices[oid] = ack.version
            if d_op is not None:
                sp.close(
                    d_op,
                    "diff_flush",
                    self.sim.now,
                    oid,
                    node,
                    version=ack.version,
                )
        return self._home_notices(notices)

    def _home_notices(self, notices: dict[int, int]) -> dict[int, int]:
        """Close the home side of the interval, as a plain call: bump the
        version of every home copy written locally and fold in notices
        carried from migrations that closed a dirty home interval."""
        if self.home_dirty:
            for oid in sorted(self.home_dirty):
                entry = self.homes.get(oid)
                if entry is None:
                    continue  # migrated away mid-interval; notice carried
                entry.version += 1
                entry.snapshot = None
                notices[oid] = entry.version
            self.home_dirty.clear()
        if self.carry_notices:
            for oid, version in self.carry_notices.items():
                if notices.get(oid, 0) < version:
                    notices[oid] = version
            self.carry_notices.clear()
        return notices

    def invalidate_all_cached(self) -> None:
        """Java-consistency cache flush at a synchronization point.

        The paper's GOS follows the (pre-JSR-133) Java memory model, under
        which acquiring a monitor invalidates the thread's working copies
        of shared objects wholesale — *every* cached (non-home) copy is
        re-faulted after a synchronization, while home copies stay valid.
        This asymmetry is precisely what home migration exploits, and it
        is what makes the per-access fault stream of Figure 5 come out:
        each synchronized update by a non-home writer re-faults the object.

        Every clean copy (one without a twin) is dropped, so an
        invalidated copy is gone, not kept as a tombstone: its next
        access faults.  Dirty copies are spared: their diffs have not
        been flushed yet (LRC multiple-writer semantics keep them
        coherent via twins).  A twinned copy is always in ``dirty``, so
        a sync point with ``dirty`` empty clears the cache instead.
        """
        cache = self.cache
        for oid, cached in [*cache.items()]:
            if cached.twin is None:
                del cache[oid]

    def _handle_diff(self, msg: DiffMsg) -> None:
        oid = msg.oid
        entry = self.homes.get(oid)
        if entry is None:
            if oid in self.forwards:
                # Forward the diff along the chain (writer's hint was stale).
                self.stats.events["diff_forward"] += 1
                msg.hops += 1
                self._send(
                    self.forwards[oid],
                    _DIFF,
                    msg.diff.size_bytes + REQUEST_BYTES,
                    msg,
                )
            else:
                # Home transfer towards this node still in flight: defer.
                self.stats.events["deferred_diff"] += 1
                self._pending_diffs.setdefault(oid, []).append(msg)
            return
        size_bytes = msg.diff.size_bytes
        version_before = entry.version
        # module-global lookup on purpose: the skip_diff mutation patches it
        apply_diff(entry.payload, msg.diff)
        entry.version += 1
        entry.snapshot = None
        entry.state.record_remote_write(msg.writer, size_bytes)
        if self._tr_diff_apply:
            self.tracer.record(
                "diff_apply",
                self.sim.now,
                oid,
                self.node_id,
                writer=msg.writer,
                size_bytes=size_bytes,
                version_before=version_before,
                version_after=entry.version,
            )
        events = self.stats.events
        events["diff"] += 1
        events["remote_write"] += 1
        self._send(
            msg.writer,
            _DIFF_ACK,
            ACK_BYTES,
            DiffAck(oid, msg.request_id, entry.version, self.node_id),
        )
