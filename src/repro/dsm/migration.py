"""Home migration (§3.1–§3.2): the Eq-2 decision trace, the hand-off and
its installation, barrier-ordered migration, and the home-location
messages.

A migration is one handshake whatever triggers it: a served fault
(:meth:`~repro.dsm.faultin.FaultInMixin._handle_obj_request`, where the Eq-2
test runs), a served ship, or a barrier manager's order (JiaJia).  The
old home calls :meth:`MigrationMixin._hand_off_home`, which ships the
image together with the access monitor in one
:class:`~repro.dsm.wire.ObjReply` and keeps a cached copy behind a
forwarding pointer.  The new home calls :meth:`MigrationMixin._become_home`,
which installs the entry and serves whatever raced the hand-off.  The
§3.2 notification strategies are in :mod:`repro.dsm.redirection`; the
HOME_BCAST, HOME_UPDATE and HOME_QUERY messages they send land here.

State is declared in :class:`~repro.dsm.protocol.DsmEngine`'s
constructor; this mixin only contributes methods.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.cluster.message import MsgCategory
from repro.core.state import ObjectAccessState
from repro.dsm.cache import CacheEntry
from repro.dsm.home import HomeEntry
from repro.dsm.redirection import NOTIFY_BYTES, fanout_children
from repro.dsm.wire import (
    MONITOR_BYTES,
    REPLY_EXTRA_BYTES,
    REQUEST_BYTES,
    HomeAnswerMsg,
    HomeQueryMsg,
    MigrateOrderMsg,
    ObjReply,
    ShipRequest,
)
from repro.memory.diff import apply_diff, compute_diff

_CONTROL = MsgCategory.CONTROL


class MigrationMixin:
    """Decision tracing, the hand-off, its install and barrier-ordered
    migration (a mixin of :class:`~repro.dsm.protocol.DsmEngine`)."""

    __slots__ = ()

    def _trace_decision(
        self,
        oid: int,
        state: ObjectAccessState,
        requester: int,
        alpha: float,
        migrated: bool,
    ) -> None:
        """Trace one Eq-2 decision (called only when
        ``_watch_decisions``)."""
        self.tracer.record(
            "decision",
            self.sim.now,
            oid,
            self.node_id,
            requester=requester,
            threshold=self.policy.current_threshold(state, alpha),
            consecutive=state.consecutive_writes,
            exclusive_home_writes=state.exclusive_home_writes,
            redirections=state.redirections,
            migrated=migrated,
            writer=state.consecutive_writer,
            alpha=alpha,
            base=state.threshold_base,
        )

    # -- the hand-off ---------------------------------------------------

    def _hand_off_home(
        self,
        oid: int,
        entry: HomeEntry,
        new_home: int,
        alpha: float,
        category: MsgCategory,
        request_id: tuple[int, int] | None,
        parent_op: int | None,
    ) -> None:
        """Ship the home of ``oid`` to ``new_home``: the sending half of
        every migration, whatever triggered it.

        The message carries a private copy of the image and the access
        monitor itself, so the feedback loop continues at the new home.
        This node keeps its payload array as a valid cached copy behind
        a forwarding pointer, so a local thread holding a reference from
        this interval keeps writing into the node's own copy.  The
        version travels with the home, so the new home never answers
        below a notice already issued (PROTOCOL.md §12).
        """
        state = entry.state
        node = self.node_id
        self.policy.on_migrated(state, alpha)
        if self.tracer is not None and self.tracer.wants("migration"):
            self.tracer.record(
                "migration",
                self.sim.now,
                oid,
                node,
                old_home=node,
                new_home=new_home,
                frozen_threshold=state.threshold_base,
            )
        mig_op = None
        if self._sp_migration is not None:
            # child of the triggering fault or ship (none for a barrier
            # order); closed by the new home in _become_home
            mig_op = self._sp_migration.open(
                "migration",
                self.sim.now,
                oid,
                node,
                parent=parent_op,
                target=new_home,
            )
        events = self.stats.events
        events["mig"] += 1
        events["migration"] += 1
        if oid in self.home_dirty:
            # The local thread wrote the home copy this interval: bump the
            # version before shipping, and carry the notice so the next
            # local release still announces the write.
            entry.version += 1
            self.home_dirty.discard(oid)
            if self.carry_notices.get(oid, 0) < entry.version:
                self.carry_notices[oid] = entry.version
        self._send(
            new_home,
            category,
            self.heap.get(oid).size_bytes + REPLY_EXTRA_BYTES + MONITOR_BYTES,
            ObjReply(
                oid,
                request_id,
                entry.version,
                entry.payload.copy(),
                new_home,
                True,
                state,
                mig_op,
            ),
        )
        del self.homes[oid]
        self.forwards[oid] = new_home
        self._learn_home(oid, new_home)
        self.cache[oid] = CacheEntry(entry.payload, entry.version)
        self.mechanism.on_migration(self, oid, new_home)

    def _become_home(
        self,
        oid: int,
        payload: np.ndarray,
        version: int,
        monitor: ObjectAccessState,
        origin: str,
        op_id: int | None,
        written: bool = False,
    ) -> np.ndarray:
        """Install the home of ``oid`` here: the receiving half of every
        migration.  ``written`` marks a payload a local write already
        changed: the new home traps it as this interval's home write.
        Then serve what raced the hand-off, in order: parked foreign
        requests, parked diffs, local threads waiting for it."""
        self.forwards.pop(oid, None)  # we are home again: drop stale pointer
        entry = HomeEntry(payload=payload, version=version, state=monitor)
        self.homes[oid] = entry
        if written:
            self._trap_home_write(entry)
        self._learn_home(oid, self.node_id)
        if self._tr_home_install:
            self.tracer.record(
                "home_install",
                self.sim.now,
                oid,
                self.node_id,
                origin=origin,
                version=version,
            )
        if op_id is not None:  # only a node opening migration spans sets it
            self._sp_migration.close(
                op_id, "migration", self.sim.now, oid, self.node_id,
                version=version,
            )
        for request in self.pending_foreign.pop(oid, ()):
            if isinstance(request, ShipRequest):
                self._handle_ship(request)
            else:
                self._handle_obj_request(request)
        for diff_msg in self._pending_diffs.pop(oid, ()):
            self._handle_diff(diff_msg)
        for waiter in self._local_home_waits.pop(oid, ()):
            waiter.resolve(None)
        return payload

    # -- barrier-ordered migration (JiaJia) -----------------------------

    def _order_barrier_migrations(
        self, writers: dict[int, set[int]]
    ) -> dict[int, int]:
        """JiaJia-style: migrate single-writer objects to their writer."""
        new_homes: dict[int, int] = {}
        for oid in sorted(writers):
            writer_set = writers[oid]
            if len(writer_set) != 1:
                continue
            writer = next(iter(writer_set))
            current = self.manager_home_map.get(oid, self.heap.initial_home(oid))
            if current == writer:
                continue
            self.manager_home_map[oid] = writer
            new_homes[oid] = writer
            order = MigrateOrderMsg(oid=oid, new_home=writer)
            if current == self.node_id:
                self._execute_migrate_order(order)
            else:
                self._send(current, _CONTROL, REQUEST_BYTES, order)
        return new_homes

    def _execute_migrate_order(self, order: MigrateOrderMsg) -> None:
        """Barrier-ordered migration (JiaJia): ship the home to the writer."""
        oid = order.oid
        entry = self.homes.get(oid)
        if entry is None:  # pragma: no cover - manager orders serially
            raise RuntimeError(
                f"migrate order for oid {oid} at node {self.node_id}, "
                "which is not the home"
            )
        self._hand_off_home(
            oid, entry, order.new_home, entry.state.alpha,
            _CONTROL, None, None,
        )

    def _install_home_transfer(self, msg: ObjReply) -> None:
        """Become the home of ``oid`` on a barrier-ordered hand-off.

        If we hold a private cached copy, the home payload reuses *that
        array object* (updated in place), so any reference a local thread
        took this interval keeps pointing at the node's authoritative
        copy; a clean fetched snapshot is read-only, so the home adopts
        the shipped image instead.  A dirty WRITE copy (the local thread
        started writing before the transfer arrived) additionally has its
        uncommitted changes replayed on top of the transferred image, and
        the new home traps that replay as this interval's home write
        before serving anything.
        """
        oid = msg.oid
        cached = self.cache.pop(oid, None)
        written = False
        if cached is None or not cached.payload.flags.writeable:
            payload = msg.data
        else:
            payload = cached.payload
            local_diff = None
            if cached.twin is not None:
                local_diff = compute_diff(oid, cached.twin, cached.payload)
                if self._tr_twin_free:
                    self.tracer.record(
                        "twin_free",
                        self.sim.now,
                        oid,
                        self.node_id,
                        interval=self.interval,
                    )
                cached.twin = None
            payload[:] = msg.data
            if local_diff is not None:
                apply_diff(payload, local_diff)
                self.dirty.discard(oid)
                self.home_dirty.add(oid)
                written = True
        self._become_home(
            oid, payload, msg.version, msg.monitor, "transfer", msg.op_id,
            written,
        )

    def _on_control(self, payload: Any) -> None:
        if isinstance(payload, MigrateOrderMsg):
            self._execute_migrate_order(payload)
        elif isinstance(payload, ObjReply):
            self._install_home_transfer(payload)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown control payload {payload!r}")

    # -- home-location messages (§3.2 mechanisms) -----------------------

    def _on_home_bcast(self, payload: dict) -> None:
        # Multicast relay (BroadcastMechanism(fanout=k)): forward the
        # shared announcement down the tree before applying the hint.
        # The new home also relays, but applying the hint there is
        # harmless: it names the node itself, and if the object moved on
        # again the retained forwarding pointer still redirects.
        if payload.get("fanout"):
            for dst in fanout_children(
                self.node_id,
                payload["root"],
                payload["fanout"],
                self.network.nnodes,
            ):
                self._send(dst, MsgCategory.HOME_BCAST, NOTIFY_BYTES, payload)
        self._learn_home(payload["oid"], payload["new_home"])

    def _on_home_update(self, payload: dict) -> None:
        self.manager_home_map[payload["oid"]] = payload["new_home"]

    def _handle_home_query(self, msg: HomeQueryMsg) -> None:
        home = self.manager_home_map.get(msg.oid, self.heap.initial_home(msg.oid))
        self._send(
            msg.requester,
            MsgCategory.HOME_ANSWER,
            REQUEST_BYTES,
            HomeAnswerMsg(oid=msg.oid, request_id=msg.request_id, home=home),
        )

    def _query_manager(
        self, oid: int, manager: int
    ) -> Generator[Any, Any, int]:
        if manager == self.node_id:
            # we are the manager: answer from the local map
            return self.manager_home_map.get(oid, self.heap.initial_home(oid))
        request_id = self._next_request_id()
        fut = self._Future(label="homequery")
        self._reply_waiters[request_id] = fut
        self._send(
            manager,
            MsgCategory.HOME_QUERY,
            REQUEST_BYTES,
            HomeQueryMsg(oid=oid, requester=self.node_id, request_id=request_id),
        )
        answer: HomeAnswerMsg = yield fut
        return answer.home
