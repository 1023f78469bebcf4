"""Fault-in (§3.1): the local probes, the miss path, and the home that
serves a request.

A faulting node sends OBJ_REQUEST to its best-known home and follows
redirections (§3.2) until the current home answers.  The home records a
remote read, applies the Eq-2 test (:meth:`FaultInMixin._serve_request`)
and replies with the image — or, when the policy fires, hands the home
itself over (:meth:`~repro.dsm.migration.MigrationMixin._hand_off_home`).
A request demanding a version the home has not reached parks on the
home entry; one reaching a node whose inbound hand-off is still in
flight parks on the engine.  The two §5.1 optimizations, batched
fault-in (object pushing) and synchronized method shipping, live here
too: a ship is a request the home serves by executing it.

State is declared in :class:`~repro.dsm.protocol.DsmEngine`'s
constructor; this mixin only contributes methods.
"""

from __future__ import annotations

from functools import partialmethod
from typing import Any, Generator

import numpy as np

from repro.cluster.message import MsgCategory
from repro.core.coefficient import home_access_coefficient
from repro.dsm.cache import AccessMode, CacheEntry
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
_READ = AccessMode.READ


class FaultInMixin:
    """Probes, the miss path, batched fault-in, method shipping and the
    home side of a request (a mixin of
    :class:`~repro.dsm.protocol.DsmEngine`)."""

    # ------------------------------------------------------------------
    # thread side
    # ------------------------------------------------------------------

    def try_read_local(self, oid: int) -> np.ndarray | None:
        """Readable payload if no communication is needed, else ``None``.

        The local half of a read (home-read trap included) as a plain
        call: the caller builds no generator on the overwhelmingly common
        local hit, and on ``None`` enters :attr:`read_miss` directly.
        Payloads are always arrays, so ``None`` is unambiguous.
        """
        entry = self.homes.get(oid)
        if entry is not None:
            entry.trap_home_read(self.interval)
            return entry.payload
        cached = self.cache.get(oid)
        if cached is not None and cached.readable():
            return cached.payload
        return None

    def try_write_local(self, oid: int) -> np.ndarray | None:
        """Writable payload if no communication is needed, else ``None``.

        The local half of a write (home-write trap, twin creation, dirty
        tracking) as a plain call; on ``None`` the caller enters
        :attr:`write_miss`, which ends in this probe again.
        """
        entry = self.homes.get(oid)
        if entry is not None:
            trapped, exclusive = entry.trap_home_write(self.interval)
            if trapped:
                events = self.stats.events
                events["home_write"] += 1
                if exclusive:
                    events["exclusive_home_write"] += 1
            self.home_dirty.add(oid)
            return entry.payload
        cached = self.cache.get(oid)
        if cached is not None and cached.readable():
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

    def read_many(self, oids: list[int]) -> Generator[Any, Any, None]:
        """Batched read fault-in: one request per (presumed) home node.

        Ensures a readable copy of every object; objects already valid
        locally cost nothing.  Objects the presumed home no longer hosts
        fall back to the singular redirect-following path.  Models the
        paper's connectivity-based object pushing optimization.
        """
        by_target: dict[int, list[int]] = {}
        leftover_local: list[int] = []
        for oid in oids:
            if oid in self.homes:
                continue
            cached = self.cache.get(oid)
            if cached is not None and cached.readable():
                continue
            if oid in self._inflight:
                # a co-located thread is already fetching it
                leftover_local.append(oid)
                continue
            target = self.home_hint.get(oid, self.heap.initial_homes[oid])
            if target == self.node_id:
                if oid not in self.forwards:
                    # inbound transfer in flight: take the singular path,
                    # which waits for it
                    leftover_local.append(oid)
                    continue
                target = self.forwards[oid]
                self._learn_home(oid, target)
            by_target.setdefault(target, []).append(oid)
        pending: list[Future] = []
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
        leftovers: list[int] = list(leftover_local)
        for fut in pending:
            reply: ObjBatchReply = yield fut
            for oid, version, data in reply.items:
                if version < self.required_version.get(oid, 0):
                    leftovers.append(oid)  # stale (rare race): refetch singly
                    continue
                self._learn_home(oid, reply.home)
                self.cache[oid] = CacheEntry(data, version)
            leftovers.extend(reply.missing)
        for oid in leftovers:
            if oid in self.homes:
                continue
            cached = self.cache.get(oid)
            if cached is not None and cached.readable():
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
            trapped, exclusive = entry.trap_home_write(self.interval)
            if trapped:
                self.stats.incr("home_write")
                if exclusive:
                    self.stats.incr("exclusive_home_write")
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
            if cached is not None and cached.mode is _READ:
                cached.invalidate()
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

        Entered right after the caller's ``try_*_local`` probe failed, as
        :attr:`read_miss`/:attr:`write_miss`.  Co-located faults coalesce:
        one request per object is outstanding per node, and piggybacking
        threads re-check local state once it completes.  A write ends in
        the write probe (twin, or home-write trap after a migration), and
        faults again in the rare case the copy went stale meanwhile.
        """
        inflight = self._inflight
        node = self.node_id
        while True:
            marker = inflight.get(oid)
            if marker is not None:
                yield marker
                entry = self.homes.get(oid)
                if entry is not None:
                    payload = entry.payload
                else:
                    cached = self.cache.get(oid)
                    if cached is None or not cached.readable():
                        continue
                    payload = cached.payload
            else:
                marker = inflight[oid] = self._Future("inflight")
                sp = self._sp_write_miss if for_write else self._sp_read_miss
                hop_sp = self._sp_hop
                op = None
                if sp is not None:
                    op_kind = "write_miss" if for_write else "read_miss"
                    op = sp.open(op_kind, self.sim.now, oid, node)
                try:
                    min_version = self.required_version.get(oid, 0)
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
                                oid, node, request_id, min_version, hops,
                                for_write, op,
                            ),
                        )
                        reply = yield fut
                        if type(reply) is ObjReply:
                            payload = self._install_reply(oid, reply)
                            break
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
                    del inflight[oid]
                    marker.resolve(None)
            if not for_write:
                return payload
            payload = self.try_write_local(oid)
            if payload is not None:
                return payload

    #: The miss entry points, the same on both protocol engines: call
    #: with an oid only after its ``try_read_local``/``try_write_local``
    #: probe returned ``None``; each returns the :meth:`_fault_in`
    #: generator itself, with no wrapper frame.
    read_miss = partialmethod(_fault_in, False)
    write_miss = partialmethod(_fault_in, True)

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
        required = self.required_version.get(oid, 0)
        if reply.version < required:  # pragma: no cover - protocol invariant
            raise RuntimeError(
                f"home replied version {reply.version} < required {required} "
                f"for oid {oid}"
            )
        self.cache[oid] = CacheEntry(reply.data, reply.version)
        return reply.data

    # ------------------------------------------------------------------
    # home side
    # ------------------------------------------------------------------

    def _handle_obj_request(self, request: ObjRequest) -> None:
        if type(request) is ObjBatchRequest:
            self._handle_batch_request(request)
            return
        oid = request.oid
        entry = self.homes.get(oid)
        if entry is None:
            self._answer_not_home(oid, request)
            return
        if entry.version < request.min_version:
            self.stats.events["deferred_request"] += 1
            entry.pending.push(request.min_version, request)
            return
        self._serve_request(entry, request)

    def _serve_request(self, entry: HomeEntry, request: ObjRequest) -> None:
        """Serve one fault: record the remote read, apply the Eq-2 test,
        and reply with the image or hand the home over."""
        oid = request.oid
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
        alpha = home_access_coefficient(
            size_bytes, state.diff_bytes_avg, self.network.half_peak_bytes
        )
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
        data = entry.payload.copy()
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
            items.append(
                (
                    oid,
                    entry.version,
                    entry.payload.copy(),
                )
            )
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
        alpha = self.alpha(oid, state)
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
        self._recheck_pending(oid)
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

    def _recheck_pending(self, oid: int) -> None:
        """Serve version-deferred requests the latest bump made eligible.

        The version index pops exactly the newly-eligible requests (in
        arrival order), so a bump costs O(k log n) for k served instead
        of an O(n) full rescan, which was once by far the hottest call
        site of a protocol run.  If serving one of them migrates the
        home away, the rest of the batch chases the new home like any
        other stale-hint request.
        """
        entry = self.homes.get(oid)
        if entry is None or not entry.pending:
            return
        for request in entry.pending.pop_ready(entry.version):
            if oid in self.homes:
                self._serve_request(entry, request)
            else:
                self._handle_obj_request(request)
