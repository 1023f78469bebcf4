"""Fault-in (§3.1): the local probes, the miss path, and the home that
serves a request.

A faulting node sends OBJ_REQUEST to its best-known home and follows
redirections (§3.2) until the current home answers.  The home records a
remote read, applies the Eq-2 test
(:meth:`FaultInMixin._handle_obj_request`) and replies with the version's
read-only snapshot — or, when the policy fires, hands the home itself
over (:meth:`~repro.dsm.migration.MigrationMixin._hand_off_home`).
A request reaching a node whose inbound hand-off is still in flight
parks on the engine until the home lands.  The two §5.1 optimizations,
batched fault-in (object pushing) and synchronized method shipping,
live here too: a ship is a request the home serves by executing it.

State is declared in :class:`~repro.dsm.protocol.DsmEngine`'s
constructor; this mixin only contributes methods.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.cluster.message import MsgCategory
from repro.dsm.cache import CacheEntry
from repro.dsm.home import HomeEntry
from repro.dsm.wire import (
    REPLY_EXTRA_BYTES,
    REQUEST_BYTES,
    ObjBatchReply,
    ObjBatchRequest,
    ObjReply,
    ObjRequest,
    RedirectReply,
    ShipReply,
    ShipRequest,
)
from repro.sim.future import Future
from repro.sim.process import Delay

#: Abort a fault-in after this many redirections (protocol-bug guard).
MAX_REDIRECTIONS = 1000

# Enum members resolved once: a class-attribute lookup on an Enum costs
# more than the dict probe it feeds, and these sit on per-message paths.
_OBJ_REQUEST = MsgCategory.OBJ_REQUEST
_OBJ_REPLY = MsgCategory.OBJ_REPLY
_OBJ_REPLY_MIG = MsgCategory.OBJ_REPLY_MIG
_REDIRECT = MsgCategory.REDIRECT
_SHIP_REQUEST = MsgCategory.SHIP_REQUEST
_SHIP_REPLY = MsgCategory.SHIP_REPLY


class PyLocalAccess:
    """Pure-Python twin of the kernel's ``LocalAccess``: an engine's
    local-hit probes ``try_read(oid)`` and ``try_write(oid)``, here its
    own ``_read_local`` and ``_write_local`` bound as they are, so a
    probe costs one call.  ``fast_write`` switches the C probe's untraced
    twin creation; the Python body traces for itself."""

    __slots__ = ("try_read", "try_write")

    def __init__(self, engine: Any, fast_write: bool):
        self.try_read = engine._read_local
        self.try_write = engine._write_local


class FaultInMixin:
    """Probes, the miss path, batched fault-in, method shipping and the
    home side of a request (a mixin of
    :class:`~repro.dsm.protocol.DsmEngine`)."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # thread side
    # ------------------------------------------------------------------

    def _read_local(self, oid: int) -> np.ndarray | None:
        """Readable payload if no communication is needed, else ``None``.

        The local half of a read as a plain call, the Python
        ``LocalAccess``'s ``try_read``: the caller builds no
        generator on the overwhelmingly common local hit, and on ``None``
        enters :meth:`_fault_in` directly.  Payloads are always arrays,
        so ``None`` is unambiguous.
        """
        entry = self.homes.get(oid)
        if entry is not None:
            return entry.payload
        cached = self.cache.get(oid)
        if cached is not None:
            return cached.payload
        return None

    def _write_local(self, oid: int) -> np.ndarray | None:
        """Writable payload if no communication is needed, else ``None``.

        The local half of a write (the home-write trap, twin creation,
        dirty tracking) as a plain call, the Python ``LocalAccess``'s
        ``try_write`` (the compiled probe calls it when twin creation is
        traced); on ``None`` the caller
        enters :meth:`_fault_in`, which ends in the write probe again.
        """
        entry = self.homes.get(oid)
        if entry is not None:
            if entry.write_interval != self.interval:
                self._trap_home_write(entry)
            self.home_dirty.add(oid)
            return entry.payload
        cached = self.cache.get(oid)
        if cached is not None:
            if self._tr_twin_create and cached.twin is None:
                self.tracer.record(
                    "twin_create",
                    self.sim.now,
                    oid,
                    self.node_id,
                    interval=self.interval,
                )
            cached.upgrade_to_write()
            self.dirty.add(oid)
            return cached.payload
        return None

    def _trap_home_write(self, entry: HomeEntry) -> None:
        """The home-write trap (§3.3): the first write of the home copy
        in this local interval.

        The one body of the trap, whoever writes the home copy: the
        write probe of either backend (the compiled one calls it on its
        trap branch), a ship served at the home, and a barrier-ordered
        transfer replaying a local write.  The caller has checked
        ``entry.write_interval != self.interval``; the E / C-chain rule
        itself is :meth:`~repro.core.state.ObjectAccessState.record_home_write`.
        """
        entry.write_interval = self.interval
        events = self.stats.events
        events["home_write"] += 1
        if entry.state.record_home_write():
            events["exclusive_home_write"] += 1

    def read_many(self, oids: list[int]) -> Generator[Any, Any, None]:
        """Batched read fault-in: one request per (presumed) home node.

        Ensures a readable copy of every object; objects already valid
        locally cost nothing.  Objects the presumed home no longer hosts
        fall back to the singular redirect-following path, and so does
        an item a co-located sync point overtook (PROTOCOL.md §12).
        Models the paper's connectivity-based object pushing
        optimization.
        """
        by_target: dict[int, list[int]] = {}
        leftovers: list[int] = []
        for oid in oids:
            if oid in self.homes or oid in self.cache:
                continue
            if oid in self._inflight:
                # a co-located thread is already fetching it
                leftovers.append(oid)
                continue
            target = self.home_hint.get(oid, self.heap.initial_homes[oid])
            if target == self.node_id:
                if oid not in self.forwards:
                    # inbound transfer in flight: take the singular path,
                    # which waits for it
                    leftovers.append(oid)
                    continue
                target = self.forwards[oid]
                self._learn_home(oid, target)
            by_target.setdefault(target, []).append(oid)
        pending: list[Future] = []
        floors: dict[int, int] = {}
        if by_target:
            self._batches[id(floors)] = (by_target, floors)
        for target, group in sorted(by_target.items()):
            request_id = self._next_request_id()
            fut = self._Future(label="batchreq")
            self._reply_waiters[request_id] = fut
            self._send(
                target,
                _OBJ_REQUEST,
                REQUEST_BYTES + 8 * len(group),
                ObjBatchRequest(
                    oids=group, requester=self.node_id, request_id=request_id
                ),
            )
            pending.append(fut)
        for fut in pending:
            reply: ObjBatchReply = yield fut
            for oid, version, data in reply.items:
                if version < floors.get(oid, 0):
                    leftovers.append(oid)  # overtaken: refetch singly
                    continue
                self._learn_home(oid, reply.home)
                self.cache[oid] = CacheEntry(data, version)
            leftovers.extend(reply.missing)
        if by_target:
            del self._batches[id(floors)]
        for oid in leftovers:
            if oid in self.homes or oid in self.cache:
                continue
            yield from self._fault_in(False, oid)

    def ship(
        self,
        oid: int,
        fn: Any,
        compute_us: float = 0.0,
        args_bytes: int = 8,
    ) -> Generator[Any, Any, Any]:
        """Synchronized method shipping: run ``fn(payload)`` at the home.

        The caller must hold the lock guarding the object (as a shipped
        ``synchronized`` method would).  At the home, the execution counts
        as a remote write by the requester — consecutive ships from one
        node build the same ``C`` chain diffs do, so the migration policy
        can still decide to move the home to a persistent shipper, in
        which case the reply carries the home instead and ``fn`` runs
        locally.  Returns ``fn``'s result.
        """
        entry = self.homes.get(oid)
        if entry is not None:
            if entry.write_interval != self.interval:
                self._trap_home_write(entry)
            self.home_dirty.add(oid)
            if compute_us > 0:
                yield Delay(compute_us)
            return fn(entry.payload)
        sp = self._sp_ship
        op = None
        if sp is not None:
            op = sp.open("ship", self.sim.now, oid, self.node_id)
        hops = 0
        for _attempt in range(MAX_REDIRECTIONS):
            target = self.home_hint.get(oid, self.heap.initial_homes[oid])
            if target == self.node_id:
                if oid in self.homes:
                    # recursion takes the local-home branch: no new span
                    result = yield from self.ship(oid, fn, compute_us, args_bytes)
                    if sp is not None:
                        sp.close(op, "ship", self.sim.now, oid, self.node_id)
                    return result
                if oid in self.forwards:
                    self._learn_home(oid, self.forwards[oid])
                    continue
                fut = self._Future(label="inbound-home")
                self._local_home_waits.setdefault(oid, []).append(fut)
                yield fut
                continue
            request_id = self._next_request_id()
            fut = self._Future(label="ship")
            self._reply_waiters[request_id] = fut
            sent_at = self.sim.now
            self._send(
                target,
                _SHIP_REQUEST,
                REQUEST_BYTES + args_bytes,
                ShipRequest(
                    oid=oid,
                    requester=self.node_id,
                    request_id=request_id,
                    fn=fn,
                    compute_us=compute_us,
                    args_bytes=args_bytes,
                    hops=hops,
                    op_id=op,
                ),
            )
            reply = yield fut
            if isinstance(reply, RedirectReply):
                hops += 1
                if self._sp_hop is not None:
                    self._sp_hop.completed(
                        "redirect_hop",
                        sent_at,
                        self.sim.now,
                        oid,
                        self.node_id,
                        parent=op,
                        target=target,
                    )
                directive = reply.directive
                if directive["kind"] == "redirect":
                    self._learn_home(oid, directive["target"])
                else:
                    home = yield from self._query_manager(
                        oid, directive["manager"]
                    )
                    self._learn_home(oid, home)
                continue
            if isinstance(reply, ObjReply):
                # the policy moved the home to us; install it and run
                # fn locally as a home write
                self._install_reply(oid, reply)
                result = yield from self.ship(oid, fn, compute_us, args_bytes)
                if sp is not None:
                    sp.close(op, "ship", self.sim.now, oid, self.node_id)
                return result
            self._learn_home(oid, reply.home)
            if self.carry_notices.get(oid, 0) < reply.version:
                self.carry_notices[oid] = reply.version
            cached = self.cache.get(oid)
            if cached is not None and cached.twin is None:
                del self.cache[oid]
            if self._inflight or self._batches:
                # a co-located fetch may predate the shipped update
                self._overtake_fetches({oid: reply.version})
            if sp is not None:
                sp.close(op, "ship", self.sim.now, oid, self.node_id)
            return reply.result
        raise RuntimeError(
            f"shipping to oid {oid} exceeded {MAX_REDIRECTIONS} redirections"
        )

    def _fault_in(
        self, for_write: bool, oid: int
    ) -> Generator[Any, Any, np.ndarray]:
        """The miss path in one generator frame: fetch a valid copy from
        the home, following redirections (``home_hint`` falls back to the
        object's initial home).

        The miss entry point, the same on both protocol engines: entered
        with the access's ``for_write`` flag right after the caller's
        ``try_*_local`` probe returned ``None``; the caller yields from
        this generator itself, with no wrapper frame.  Co-located faults
        coalesce: one request per object is outstanding per node, and
        piggybacking threads re-check local state once it completes.
        ``_inflight[oid]`` is ``None`` while nobody joins; the first
        joiner stores the future that the fetch resolves when it ends.
        A write ends in
        the write probe (twin, or home-write trap after a migration), and
        faults again in the rare case the copy went stale meanwhile.  A
        reply a co-located sync point overtook is not installed: the
        fault asks again (PROTOCOL.md §12).
        """
        inflight = self._inflight
        overtaken = self._overtaken
        node = self.node_id
        while True:
            if oid in inflight:
                marker = inflight[oid]
                if marker is None:
                    marker = inflight[oid] = self._Future("inflight")
                yield marker
                entry = self.homes.get(oid)
                if entry is not None:
                    payload = entry.payload
                else:
                    cached = self.cache.get(oid)
                    if cached is None:
                        continue
                    payload = cached.payload
            else:
                inflight[oid] = None
                sp = self._sp_write_miss if for_write else self._sp_read_miss
                hop_sp = self._sp_hop
                op = None
                if sp is not None:
                    op_kind = "write_miss" if for_write else "read_miss"
                    op = sp.open(op_kind, self.sim.now, oid, node)
                try:
                    hops = 0
                    for _attempt in range(MAX_REDIRECTIONS):
                        target = self.home_hint.get(oid)
                        if target is None:
                            target = self.heap.initial_homes[oid]
                        if target == node:
                            entry = self.homes.get(oid)
                            if entry is not None:
                                payload = entry.payload
                                break
                            if oid in self.forwards:
                                # stale self-hint after we migrated the
                                # home away
                                self._learn_home(oid, self.forwards[oid])
                                continue
                            # announced as the new home but the transfer
                            # is still in flight: wait for it
                            fut = self._Future("inbound-home")
                            self._local_home_waits.setdefault(oid, []).append(
                                fut
                            )
                            yield fut
                            continue
                        self._req_counter += 1
                        request_id = (node, self._req_counter)
                        fut = self._Future("objreq")
                        self._reply_waiters[request_id] = fut
                        if hop_sp is not None:
                            sent_at = self.sim.now
                        self._send(
                            target,
                            _OBJ_REQUEST,
                            REQUEST_BYTES,
                            ObjRequest(
                                oid, node, request_id, hops, for_write, op,
                            ),
                        )
                        reply = yield fut
                        if type(reply) is ObjReply:
                            if (
                                reply.version >= overtaken.get(oid, 0)
                                or reply.migrated
                            ):
                                payload = self._install_reply(oid, reply)
                                break
                            # older than a notice that arrived meanwhile
                            self._learn_home(oid, reply.home)
                            continue
                        # redirected: one more accumulated redirection
                        hops += 1
                        if hop_sp is not None:
                            # the hop's extent is only known now; the open
                            # carries the earlier send timestamp
                            # (consumers sort by time)
                            hop_sp.completed(
                                "redirect_hop",
                                sent_at,
                                self.sim.now,
                                oid,
                                node,
                                parent=op,
                                target=target,
                            )
                        directive = reply.directive
                        if directive["kind"] == "redirect":
                            self._learn_home(oid, directive["target"])
                        elif directive["kind"] == "manager":
                            home = yield from self._query_manager(
                                oid, directive["manager"]
                            )
                            self._learn_home(oid, home)
                        else:  # pragma: no cover - defensive
                            raise RuntimeError(
                                f"unknown miss directive {directive!r}"
                            )
                    else:
                        raise RuntimeError(
                            f"fault-in of oid {oid} at node {node} exceeded "
                            f"{MAX_REDIRECTIONS} redirections"
                        )
                    if sp is not None:
                        sp.close(op, op_kind, self.sim.now, oid, node)
                finally:
                    marker = inflight.pop(oid)
                    if overtaken:
                        overtaken.pop(oid, None)
                    if marker is not None:
                        marker.resolve(None)
            if not for_write:
                return payload
            payload = self.local_access.try_write(oid)
            if payload is not None:
                return payload

    def _install_reply(self, oid: int, reply: ObjReply) -> np.ndarray:
        """Install a fault or ship reply: a cached copy, or — for a
        hand-off — the home itself, adopting the received buffer."""
        if reply.migrated:
            self.cache.pop(oid, None)
            return self._become_home(
                oid, reply.data, reply.version, reply.monitor, "reply-mig",
                reply.op_id,
            )
        # _learn_home, inline: this runs once per remote read
        if reply.home == self.heap.initial_homes[oid]:
            self.home_hint.pop(oid, None)
        else:
            self.home_hint[oid] = reply.home
        self.cache[oid] = CacheEntry(reply.data, reply.version)
        return reply.data

    def _overtake_fetches(self, notices: dict[int, int]) -> None:
        """Record ``notices`` a sync point delivered against the fetches
        in flight.

        A reply to a request sent before the notices arrived may predate
        them: under a topology a small grant can overtake a large reply
        (PROTOCOL.md §12).  Such a reply must meet the versions recorded
        here or the fetch asks again.  Costs O(fetches in flight).
        """
        overtaken = self._overtaken
        for oid in self._inflight:
            version = notices.get(oid)
            if version is not None and version > overtaken.get(oid, 0):
                overtaken[oid] = version
        for groups, floors in self._batches.values():
            for group in groups.values():
                for oid in group:
                    version = notices.get(oid)
                    if version is not None and version > floors.get(oid, 0):
                        floors[oid] = version

    # ------------------------------------------------------------------
    # home side
    # ------------------------------------------------------------------

    def _handle_obj_request(self, request: ObjRequest) -> None:
        """Serve one fault: record the remote read, apply the Eq-2 test,
        and reply with the version's snapshot or hand the home over."""
        if type(request) is ObjBatchRequest:
            self._handle_batch_request(request)
            return
        oid = request.oid
        entry = self.homes.get(oid)
        if entry is None:
            self._answer_not_home(oid, request)
            return
        requester = request.requester
        state = entry.state
        events = self.stats.events
        state.record_remote_read(requester, request.hops)
        events["remote_read"] += 1
        if self._tr_serve:
            self.tracer.record(
                "serve",
                self.sim.now,
                oid,
                self.node_id,
                requester=requester,
                hops=request.hops,
            )
        size_bytes = state.object_bytes
        alpha = state.alpha
        # Equation 2: the policy compares C against the live threshold
        migrate = self.policy.should_migrate(
            state, requester, alpha, request.for_write
        )
        if self._watch_decisions:
            self._trace_decision(oid, state, requester, alpha, migrate)
        if migrate:
            self._hand_off_home(
                oid, entry, requester, alpha, _OBJ_REPLY_MIG,
                request.request_id, request.op_id,
            )
            return
        # Replies share the version's read-only snapshot; an open home
        # write takes a fresh one per reply (every version bump drops it).
        data = entry.snapshot
        if data is None or oid in self.home_dirty:
            data = entry.snapshot = entry.payload.copy()
            data.setflags(False)  # write=False; the keyword form costs 2x
        events["obj"] += 1
        self._send(
            requester,
            _OBJ_REPLY,
            size_bytes + REPLY_EXTRA_BYTES,
            ObjReply(oid, request.request_id, entry.version, data, self.node_id),
        )

    def _handle_batch_request(self, request: ObjBatchRequest) -> None:
        items: list[tuple[int, int, np.ndarray]] = []
        missing: list[int] = []
        for oid in request.oids:
            entry = self.homes.get(oid)
            if entry is None:
                missing.append(oid)
                continue
            entry.state.record_remote_read(request.requester)
            self.stats.incr("remote_read")
            self.stats.incr("obj")
            data = entry.snapshot  # the snapshot rule of _handle_obj_request
            if data is None or oid in self.home_dirty:
                data = entry.snapshot = entry.payload.copy()
                data.setflags(False)
            items.append((oid, entry.version, data))
        size = REQUEST_BYTES + sum(
            self.heap.get(oid).size_bytes + REPLY_EXTRA_BYTES
            for oid, _v, _d in items
        )
        self._send(
            request.requester,
            _OBJ_REPLY,
            size,
            ObjBatchReply(
                request_id=request.request_id,
                items=items,
                missing=missing,
                home=self.node_id,
            ),
        )

    def _handle_ship(self, request: ShipRequest) -> None:
        oid = request.oid
        entry = self.homes.get(oid)
        if entry is None:
            self._answer_not_home(oid, request)
            return
        state = entry.state
        state.record_redirections(request.hops)
        alpha = state.alpha
        migrate = self.policy.should_migrate(
            state, request.requester, alpha, for_write=True
        )
        if self._watch_decisions:
            self._trace_decision(oid, state, request.requester, alpha, migrate)
        if migrate:
            self._hand_off_home(
                oid, entry, request.requester, alpha, _SHIP_REPLY,
                request.request_id, request.op_id,
            )
            return
        # execute here; the execution is a remote write by the requester
        self.stats.incr("ship")
        self.stats.incr("remote_write")
        state.record_remote_write(request.requester, request.args_bytes)
        if self._tr_ship:
            self.tracer.record(
                "ship",
                self.sim.now,
                oid,
                self.node_id,
                home=self.node_id,
                requester=request.requester,
            )
        result = request.fn(entry.payload)
        entry.version += 1
        entry.snapshot = None
        reply = ShipReply(oid, request.request_id, entry.version, self.node_id, result)
        if request.compute_us > 0:
            self.sim.schedule(
                request.compute_us,
                self._send,
                request.requester,
                _SHIP_REPLY,
                REQUEST_BYTES + request.args_bytes,
                reply,
            )
        else:
            self._send(
                request.requester,
                _SHIP_REPLY,
                REQUEST_BYTES + request.args_bytes,
                reply,
            )

    def _answer_not_home(
        self, oid: int, request: ObjRequest | ShipRequest
    ) -> None:
        """A request reached a node that does not home ``oid``: redirect
        it along the configured §3.2 mechanism if the home moved away,
        else park it until the inbound hand-off lands."""
        events = self.stats.events
        if oid in self.forwards:
            events["redir"] += 1
            if self.tracer is not None and self.tracer.wants("redirect"):
                self.tracer.record(
                    "redirect",
                    self.sim.now,
                    oid,
                    self.node_id,
                    obsolete_home=self.node_id,
                    requester=request.requester,
                )
            self._send(
                request.requester,
                _REDIRECT,
                REQUEST_BYTES,
                RedirectReply(
                    oid,
                    request.request_id,
                    self.mechanism.miss_directive(self, oid),
                ),
            )
        else:
            events["deferred_request"] += 1
            self.pending_foreign.setdefault(oid, []).append(request)
