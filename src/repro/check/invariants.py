"""Runtime protocol invariant checker over the trace-event stream.

:class:`InvariantChecker` is a tracer (``DistributedJVM(tracer=checker)``)
that replays protocol-level state machines from the event stream
*online*, as the engines emit it, flagging violations as strings rather
than raising (the episode runner aggregates them).

Checked invariants (``docs/PROTOCOL.md`` §13):

* **Single home** — exactly one home per object per virtual time:
  initial installs are unique; migrations leave the old home and arrive
  at the announced target; decisions, ships and diff applications only
  ever happen at the current home.
* **Threshold rule** — for the threshold policies, every decision
  event's threshold replays to
  ``T_i = max(T_{i-1} + lam*(R_i - alpha*E_i), T_init)`` from the
  event's own counters, never drops below ``T_init``, and the recorded
  migrate/stay outcome matches the rule.
* **Version discipline** — no diff is applied to a stale version: each
  application bumps the home version by exactly one and versions per
  object never regress (across migrations included).
* **Redirection** — forwarding chains are bounded (a requester may be
  redirected at most ``nnodes`` hops plus one per concurrent migration
  of the object before reaching a home) and the settled
  forwarding-pointer graph is acyclic at end of run.
* **Twin lifecycle** — twin freed ⇒ no later diff from that interval: a
  node sends diffs for an object only while it holds a live twin, twins
  are created/freed alternately, and none leak past the end of the run.
* **Diff conservation** — at end of run every sent diff was applied
  exactly once (acks guarantee it; forwarded diffs still apply once).
* **Span lifecycle** — every causal span (``span_open``/``span_close``,
  ``docs/PROTOCOL.md`` §14) closes exactly once with a matching
  ``op_kind``, op ids are run-unique, children never reference an
  unseen parent (no orphans), and no span is left open at end of run.

The checker is observation-only: it must never mutate protocol state.
"""

from __future__ import annotations

from repro.core.threshold import adaptive_threshold
from repro.trace.events import TraceEvent


class InvariantChecker:
    """Online invariant checker fed by trace events.

    ``nnodes`` bounds redirection chains; ``policy_name``/``policy_params``
    (the draw recorded in the episode's
    :class:`~repro.check.fuzz.ProgramSpec`) select which decision-rule
    checks apply.  Violations are collected in :attr:`violations`
    (capped at ``max_violations``; the overflow count is preserved so a
    runaway loop cannot exhaust memory).
    """

    def __init__(
        self,
        nnodes: int,
        policy_name: str = "NM",
        policy_params: dict | None = None,
        max_violations: int = 100,
    ):
        self.nnodes = nnodes
        self.policy_name = policy_name
        self.policy_params = dict(policy_params or {})
        self.max_violations = max_violations
        #: Violation messages, in detection order.
        self.violations: list[str] = []
        #: Violations dropped once the cap was hit.
        self.overflow = 0
        #: Events inspected so far.
        self.events_seen = 0
        self._finished = False
        # -- protocol state replayed from the stream ----------------------
        self._homes: dict[int, int] = {}
        self._in_flight: dict[int, tuple[int, int]] = {}
        self._pointers: dict[int, dict[int, int]] = {}
        self._versions: dict[int, int] = {}
        self._twins: set[tuple[int, int]] = set()
        self._chains: dict[tuple[int, int], tuple[int, int]] = {}
        self._migrations: dict[int, int] = {}
        self._diff_sends: dict[tuple[int, int], int] = {}
        self._diff_applies: dict[tuple[int, int], int] = {}
        #: op -> op_kind of spans currently open; ids ever seen opened.
        self._span_open: dict[int, str] = {}
        self._span_seen: set[int] = set()
        self._handlers = {
            "home_install": self._on_home_install,
            "migration": self._on_migration,
            "redirect": self._on_redirect,
            "decision": self._on_decision,
            "ship": self._on_ship,
            "diff_send": self._on_diff_send,
            "diff_apply": self._on_diff_apply,
            "twin_create": self._on_twin_create,
            "twin_free": self._on_twin_free,
            "span_open": self._on_span_open,
            "span_close": self._on_span_close,
        }

    # -- reporting ---------------------------------------------------------

    def _flag(self, message: str) -> None:
        """Record one violation (bounded)."""
        if len(self.violations) < self.max_violations:
            self.violations.append(message)
        else:
            self.overflow += 1

    @property
    def ok(self) -> bool:
        """True while no invariant has been violated."""
        return not self.violations and self.overflow == 0

    # -- event intake --------------------------------------------------------

    def wants(self, kind: str) -> bool:
        """Tracer protocol: every trace kind is inspected."""
        return True

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **detail
    ) -> None:
        """Tracer protocol: check one event as the engines emit it."""
        self.on_event(TraceEvent(time_us, kind, oid, node, detail))

    def on_event(self, event) -> None:
        """Check one :class:`~repro.trace.events.TraceEvent`."""
        self.events_seen += 1
        handler = self._handlers.get(event.kind)
        if handler is not None:
            handler(event)

    # -- per-kind handlers ---------------------------------------------------

    def _on_home_install(self, event) -> None:
        oid, node, d = event.oid, event.node, event.detail
        origin = d.get("origin")
        version = d.get("version", 0)
        if origin == "initial":
            if oid in self._homes or oid in self._in_flight:
                self._flag(
                    f"invariant[single-home]: oid {oid} initial install at "
                    f"node {node} but a home already exists"
                )
            self._homes[oid] = node
        else:
            flight = self._in_flight.pop(oid, None)
            if flight is None:
                self._flag(
                    f"invariant[single-home]: oid {oid} installed at node "
                    f"{node} ({origin}) with no migration in flight"
                )
            elif flight[1] != node:
                self._flag(
                    f"invariant[single-home]: oid {oid} installed at node "
                    f"{node} but the migration targeted node {flight[1]}"
                )
            self._homes[oid] = node
            self._pointers.get(oid, {}).pop(node, None)
        if version < self._versions.get(oid, 0):
            self._flag(
                f"invariant[version]: oid {oid} home installed at node "
                f"{node} with stale version {version} < "
                f"{self._versions[oid]}"
            )
        self._versions[oid] = max(self._versions.get(oid, 0), version)

    def _on_migration(self, event) -> None:
        oid, d = event.oid, event.detail
        old, new = d["old_home"], d["new_home"]
        if self._homes.get(oid) != old:
            self._flag(
                f"invariant[single-home]: oid {oid} migrated from node "
                f"{old} which is not its home "
                f"(home={self._homes.get(oid)!r})"
            )
        self._homes.pop(oid, None)
        if oid in self._in_flight:
            self._flag(
                f"invariant[single-home]: oid {oid} migration {old}->{new} "
                f"started while transfer {self._in_flight[oid]} in flight"
            )
        self._in_flight[oid] = (old, new)
        self._pointers.setdefault(oid, {})[old] = new
        self._migrations[oid] = self._migrations.get(oid, 0) + 1

    def _on_redirect(self, event) -> None:
        oid, d = event.oid, event.detail
        requester = d["requester"]
        key = (oid, requester)
        migrations_now = self._migrations.get(oid, 0)
        count, migrations_at_start = self._chains.get(
            key, (0, migrations_now)
        )
        count += 1
        self._chains[key] = (count, migrations_at_start)
        bound = self.nnodes + (migrations_now - migrations_at_start) + 1
        if count > bound:
            self._flag(
                f"invariant[redirect-bound]: oid {oid} requester "
                f"{requester} redirected {count} times (bound {bound}) "
                f"without reaching a home"
            )

    def _reached_home(self, oid: int, requester: int) -> None:
        """A request from ``requester`` landed at a real home: its
        redirection chain (if any) terminated legally."""
        self._chains.pop((oid, requester), None)

    def _on_decision(self, event) -> None:
        oid, node, d = event.oid, event.node, event.detail
        if self._homes.get(oid) != node:
            self._flag(
                f"invariant[single-home]: oid {oid} migration decision at "
                f"node {node} which is not its home "
                f"(home={self._homes.get(oid)!r})"
            )
        self._reached_home(oid, d["requester"])
        threshold = d.get("threshold")
        name = self.policy_name
        params = self.policy_params
        if name in ("NM", "JIAJIA") and d.get("migrated"):
            self._flag(
                f"invariant[threshold]: oid {oid} migrated on a request "
                f"under policy {name}, which never does"
            )
        if threshold is None:
            return
        if name == "FT":
            expected = float(params.get("threshold", 1))
            if threshold != expected:
                self._flag(
                    f"invariant[threshold]: oid {oid} decision threshold "
                    f"{threshold} != fixed threshold {expected}"
                )
        elif name in ("AT", "ATD"):
            t_init = float(params.get("t_init", 1.0))
            alpha = params.get("fixed_alpha") or d["alpha"]
            expected = adaptive_threshold(
                base=d["base"],
                redirections=d["redirections"],
                exclusive_home_writes=d["exclusive_home_writes"],
                alpha=alpha,
                lam=params.get("lam", 1.0),
                t_init=t_init,
            )
            if threshold != expected:
                self._flag(
                    f"invariant[threshold]: oid {oid} decision threshold "
                    f"{threshold} != rule replay {expected} "
                    f"(base={d['base']}, R={d['redirections']}, "
                    f"E={d['exclusive_home_writes']}, alpha={alpha})"
                )
            if threshold < t_init:
                self._flag(
                    f"invariant[threshold]: oid {oid} threshold "
                    f"{threshold} below floor T_init={t_init}"
                )
        if name in ("FT", "AT", "ATD"):
            should = (
                d["writer"] == d["requester"]
                and d["consecutive"] >= threshold
            )
            if bool(d["migrated"]) != should:
                self._flag(
                    f"invariant[threshold]: oid {oid} decision outcome "
                    f"migrated={d['migrated']} disagrees with rule "
                    f"(writer={d['writer']}, requester={d['requester']}, "
                    f"C={d['consecutive']}, T={threshold})"
                )

    def _on_ship(self, event) -> None:
        oid, node, d = event.oid, event.node, event.detail
        if self._homes.get(oid) != node:
            self._flag(
                f"invariant[single-home]: oid {oid} method shipped to "
                f"node {node} which is not its home "
                f"(home={self._homes.get(oid)!r})"
            )
        self._reached_home(oid, d["requester"])

    def _on_diff_send(self, event) -> None:
        oid, node, d = event.oid, event.node, event.detail
        if (node, oid) not in self._twins:
            self._flag(
                f"invariant[twin]: node {node} sent a diff for oid {oid} "
                f"without a live twin (freed twin ⇒ no later diff)"
            )
        if not 0 <= d["target"] < self.nnodes:
            self._flag(
                f"invariant[twin]: node {node} sent a diff for oid {oid} "
                f"to out-of-cluster node {d['target']}"
            )
        key = (oid, node)
        self._diff_sends[key] = self._diff_sends.get(key, 0) + 1

    def _on_diff_apply(self, event) -> None:
        oid, node, d = event.oid, event.node, event.detail
        if self._homes.get(oid) != node:
            self._flag(
                f"invariant[single-home]: oid {oid} diff applied at node "
                f"{node} which is not its home "
                f"(home={self._homes.get(oid)!r})"
            )
        before, after = d["version_before"], d["version_after"]
        if after != before + 1:
            self._flag(
                f"invariant[version]: oid {oid} diff apply at node {node} "
                f"bumped version {before} -> {after} (expected +1)"
            )
        if before < self._versions.get(oid, 0):
            self._flag(
                f"invariant[version]: oid {oid} diff applied to stale "
                f"version {before} < {self._versions[oid]} at node {node}"
            )
        self._versions[oid] = max(self._versions.get(oid, 0), after)
        key = (oid, d["writer"])
        self._diff_applies[key] = self._diff_applies.get(key, 0) + 1

    def _on_twin_create(self, event) -> None:
        key = (event.node, event.oid)
        if key in self._twins:
            self._flag(
                f"invariant[twin]: node {event.node} created a twin for "
                f"oid {event.oid} while one is already live"
            )
        self._twins.add(key)

    def _on_twin_free(self, event) -> None:
        key = (event.node, event.oid)
        if key not in self._twins:
            self._flag(
                f"invariant[twin]: node {event.node} freed a twin for "
                f"oid {event.oid} with none live"
            )
        self._twins.discard(key)

    def _on_span_open(self, event) -> None:
        d = event.detail
        op, parent = d["op"], d.get("parent")
        if op in self._span_seen:
            self._flag(
                f"invariant[span]: op {op} ({d.get('op_kind')}) opened "
                f"twice — span ids must be run-unique"
            )
        self._span_seen.add(op)
        self._span_open[op] = d.get("op_kind")
        if parent is not None and parent not in self._span_seen:
            self._flag(
                f"invariant[span]: op {op} ({d.get('op_kind')}) claims "
                f"parent {parent} which was never opened (orphan child)"
            )

    def _on_span_close(self, event) -> None:
        d = event.detail
        op = d["op"]
        open_kind = self._span_open.pop(op, None)
        if open_kind is None:
            if op in self._span_seen:
                self._flag(
                    f"invariant[span]: op {op} ({d.get('op_kind')}) "
                    f"closed twice"
                )
            else:
                self._flag(
                    f"invariant[span]: op {op} ({d.get('op_kind')}) "
                    f"closed without a matching open"
                )
            return
        if open_kind != d.get("op_kind"):
            self._flag(
                f"invariant[span]: op {op} opened as {open_kind!r} but "
                f"closed as {d.get('op_kind')!r}"
            )

    # -- end-of-run checks ---------------------------------------------------

    def finish(self) -> list[str]:
        """Run end-of-run invariants; return all violations collected.

        Idempotent.  Call once the simulation is quiescent — a crashed
        run legitimately leaves transfers in flight, so the episode
        runner only calls this after a clean completion.
        """
        if self._finished:
            return self.violations
        self._finished = True
        for oid, flight in sorted(self._in_flight.items()):
            self._flag(
                f"invariant[single-home]: oid {oid} home transfer "
                f"{flight[0]}->{flight[1]} never completed"
            )
        for node, oid in sorted(self._twins):
            self._flag(
                f"invariant[twin]: node {node} leaked a live twin for "
                f"oid {oid} past end of run"
            )
        for op in sorted(self._span_open):
            self._flag(
                f"invariant[span]: op {op} ({self._span_open[op]}) "
                f"never closed (every span closes exactly once)"
            )
        keys = sorted(set(self._diff_sends) | set(self._diff_applies))
        for key in keys:
            sends = self._diff_sends.get(key, 0)
            applies = self._diff_applies.get(key, 0)
            if sends != applies:
                self._flag(
                    f"invariant[diff-conservation]: oid {key[0]} writer "
                    f"node {key[1]} sent {sends} diffs but {applies} "
                    f"were applied"
                )
        for oid, pointers in sorted(self._pointers.items()):
            if oid in self._in_flight:
                continue  # transient graph; already flagged above
            for start in sorted(pointers):
                node, hops = start, 0
                while node in pointers and hops <= self.nnodes:
                    node = pointers[node]
                    hops += 1
                if hops > self.nnodes:
                    self._flag(
                        f"invariant[redirect-acyclic]: oid {oid} settled "
                        f"forwarding pointers cycle from node {start}"
                    )
                    break
        return self.violations
