"""The LRC interval: diffs out and write notices in at every
synchronization point, the Java-consistency cache flush, barrier-epoch
GC, and the home applying a received diff.

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
from repro.dsm.cache import AccessMode, CacheEntry
from repro.dsm.wire import ACK_BYTES, REQUEST_BYTES, DiffAck, DiffMsg
from repro.memory.diff import apply_diff, compute_diff
from repro.sim.future import Future

_DIFF = MsgCategory.DIFF
_DIFF_ACK = MsgCategory.DIFF_ACK
_READ = AccessMode.READ
_INVALID = AccessMode.INVALID


class IntervalMixin:
    """Diff flush, notices, invalidation, barrier GC and diff service
    (a mixin of :class:`~repro.dsm.protocol.DsmEngine`)."""

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
                cached.downgrade_clean()
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
            cached.mode = _READ
            waits.append((oid, cached, fut, d_op))
        self.dirty.clear()
        home_hint = self.home_hint
        initial_homes = self.heap.initial_homes
        for oid, cached, fut, d_op in waits:
            ack: DiffAck = yield fut
            # _learn_home, inline: this runs once per diff
            if ack.home == initial_homes[oid]:
                home_hint.pop(oid, None)
            else:
                home_hint[oid] = ack.home
            if cached.twin is not None:
                # a co-located thread already opened the next write
                # interval on the post-diff image: just advance the version
                cached.version = ack.version
            else:
                cached.downgrade_after_flush(ack.version)
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
                notices[oid] = entry.version
                if entry.pending:
                    self._recheck_pending(oid)
            self.home_dirty.clear()
        if self.carry_notices:
            for oid, version in self.carry_notices.items():
                if notices.get(oid, 0) < version:
                    notices[oid] = version
            self.carry_notices.clear()
        return notices

    def apply_notices(self, notices: dict[int, int]) -> None:
        """Record incoming write notices (version floor for fault-ins).

        Hot path: barrier releases carry O(#written objects) notices per
        round.  Cache invalidation is *not* done here — both call sites
        (acquire, barrier) follow with :meth:`invalidate_all_cached`
        (Java consistency), which subsumes per-notice invalidation.
        """
        required = self.required_version
        for oid, version in notices.items():
            if version > required.get(oid, 0):
                required[oid] = version

    def invalidate_all_cached(self) -> None:
        """Java-consistency cache flush at a synchronization point.

        The paper's GOS follows the (pre-JSR-133) Java memory model, under
        which acquiring a monitor invalidates the thread's working copies
        of shared objects wholesale — *every* cached (non-home) copy is
        re-faulted after a synchronization, while home copies stay valid.
        This asymmetry is precisely what home migration exploits, and it
        is what makes the per-access fault stream of Figure 5 come out:
        each synchronized update by a non-home writer re-faults the object.

        Dirty WRITE copies are spared: their diffs have not been flushed
        yet (LRC multiple-writer semantics keep them coherent via twins).

        It walks only the entries the node holds now (PROTOCOL.md §12),
        so it is one Python loop on both backends; a lock acquire runs
        the same loop inline.
        """
        for cached in self.cache.values():
            if cached.mode is _READ:
                cached.mode = _INVALID

    def collect_garbage(
        self, released: dict[int, int], barrier_id: int
    ) -> None:
        """Barrier-epoch memory GC (``docs/PROTOCOL.md`` §12) after a
        release of barrier ``barrier_id``.

        Runs after ``apply_notices``/``invalidate_all_cached`` of a
        barrier release.  Two reclamations, both behaviour-free:

        * **Invalid cached copies** are dropped; numpy frees each
          payload with its last reference.  Every later access
          re-faults anyway (Java consistency invalidated them
          wholesale), and ``_install_home_transfer`` falls back to the
          transferred image when no cached array exists, so nothing
          observes the missing entry.  Without this, every node's
          cache accumulates one dead payload per object it ever
          touched.
        * **Write-notice floors** (``required_version``) are pruned up
          to the release's version horizon: home versions are monotone
          and travel with migration, and a notice is only emitted after
          its home reached that version — so a floor at or below the
          version this release announced (or whose object is homed
          here, where the floor is moot) can never defer a future
          request.  The floor map stops growing with run history.

        Deliberately touches no :class:`ClusterStats` counters, sends
        no messages, and consumes no simulated time: results and the
        determinism digest are bit-identical with GC on or off.  The
        node's footprint after the sweep goes out as a ``barrier_epoch``
        trace event (role ``gc``) when the tracer wants one.
        """
        cache = self.cache
        required = self.required_version
        # The release's floors are no longer merged into
        # required_version (see barrier(): merge-then-prune was a
        # no-op), so reconstruct the legacy pre-GC accounting exactly:
        # the floors this epoch *would* have held are the own floors
        # plus the release's not-already-present ones, and every elided
        # floor counts as pruned (it was reclaimed by never being
        # retained).  Both counters stay bit-identical to the
        # merge-then-prune implementation.
        elided = len(released)
        if required:
            elided -= len(required.keys() & released.keys())
        # pre-GC footprint peaks: the bounded-steady-state evidence
        peaks = self.stats.peaks
        if peaks.get("cache_entries", 0) < len(cache):
            peaks["cache_entries"] = len(cache)
        if peaks.get("notice_floors", 0) < len(required) + elided:
            peaks["notice_floors"] = len(required) + elided
        if cache:
            dead = [
                oid
                for oid, entry in cache.items()
                if entry.mode is _INVALID and entry.twin is None
            ]
            for oid in dead:
                del cache[oid]
            self.gc_cache_drops += len(dead)
        if required:
            homes = self.homes
            prunable = [
                oid
                for oid, floor in required.items()
                if floor <= released.get(oid, 0) or oid in homes
            ]
            for oid in prunable:
                del required[oid]
            self.gc_notice_prunes += len(prunable)
        self.gc_notice_prunes += elided
        if self._tr_barrier_epoch:
            self.tracer.record(
                "barrier_epoch",
                self.sim.now,
                barrier_id,
                self.node_id,
                role="gc",
                cache_entries=len(cache),
                notice_floors=len(required),
            )

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
        if entry.pending:
            self._recheck_pending(oid)
