#!/usr/bin/env python
"""Anatomy of one home migration, step by step.

Drives the DSM by hand (no application harness): allocates one shared
object homed on node 0, has node 2 update it repeatedly, and narrates the
protocol events — the fault-in, the diff propagation, the consecutive-
writes counter, the migration decision, and the forwarding-pointer
redirection another reader then pays.  Also prints the home access
coefficient alpha and the live adaptive threshold after each step.

Run:  python examples/protocol_anatomy.py
"""

from repro import AdaptiveThreshold, FAST_ETHERNET
from repro.core.coefficient import home_access_coefficient
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext


def snapshot(gos, obj):
    home = gos.current_home(obj)
    state = gos.engines[home].homes[obj.oid].state
    threshold = gos.policy.current_threshold(state, state.alpha)
    return (
        f"home=node{home}  C={state.consecutive_writes} "
        f"(writer={state.consecutive_writer})  E={state.exclusive_home_writes} "
        f"R={state.redirections}  alpha={state.alpha:.2f}  T={threshold:.2f}"
    )


def main() -> None:
    gos = GlobalObjectSpace(
        nnodes=4, comm_model=FAST_ETHERNET, policy=AdaptiveThreshold()
    )
    obj = gos.alloc_array(256, home=0, label="demo")
    lock = gos.alloc_lock(home=0)
    print(
        "alpha for a fresh 2064-byte object on Fast Ethernet:",
        f"{home_access_coefficient(obj.size_bytes, obj.size_bytes, FAST_ETHERNET.half_peak_bytes):.2f}",
    )
    print(f"allocated {obj!r}, initial {snapshot(gos, obj)}\n")

    log = []

    def writer():
        ctx = ThreadContext(gos, tid=0, node=2)
        for turn in range(3):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[turn] = float(turn + 1)
            yield from ctx.release(lock)
            log.append((f"after update {turn + 1} from node 2", None))

    proc = gos.sim.spawn(writer(), name="writer")
    gos.sim.run()
    assert proc.finished.exception is None
    for label, _ in log:
        pass
    print("node 2 performed 3 synchronized updates:")
    print("  ", snapshot(gos, obj))
    print("   events:", {
        k: v for k, v in gos.stats.events.items()
        if k in ("obj", "mig", "diff", "redir", "migration")
    })
    print()

    def reader():
        ctx = ThreadContext(gos, tid=1, node=3)
        payload = yield from ctx.read(obj)
        assert payload[0] == 1.0

    gos.sim.spawn(reader(), name="reader")
    gos.sim.run()
    print("node 3 then read the object through the stale initial home:")
    print("  ", snapshot(gos, obj))
    print("   events:", {
        k: v for k, v in gos.stats.events.items()
        if k in ("obj", "mig", "diff", "redir", "migration")
    })
    print()
    print("The single redirection (node 0's forwarding pointer) was")
    print("charged to the object's negative feedback R — future migration")
    print("decisions for this object just got a little more conservative.")


if __name__ == "__main__":
    main()
