"""Mutation self-test: deliberately broken protocols the checker must catch.

Each mutation monkey-patches exactly one protocol decision for the
duration of one episode (context-managed, always restored) and comes
with a crafted :class:`~repro.check.fuzz.ProgramSpec` on which the bug
is guaranteed to manifest:

* ``skip_diff`` — the first diff application at a home is silently
  dropped (the version still bumps, the ack still flows).  A lost
  update: the **oracle** catches it as a stale read or a final-heap
  mismatch.
* ``misroute_redirect`` — an obsolete home redirects requesters back to
  *itself* instead of along the forwarding pointer.  The requester
  loops: the **invariant checker** catches the unbounded redirection
  chain (and the engine's ``MAX_REDIRECTIONS`` fuse eventually blows).
* ``threshold_off_by_one`` — the adaptive threshold is evaluated one
  too high.  Decision events stop replaying under the paper's update
  rule ``T_i = max(T_{i-1} + lam*(R_i - alpha*E_i), T_init)``: the
  **invariant checker** flags every decision.

The self-test (``repro check`` runs it by default) executes each
mutation's crafted episode twice — unmutated (must be clean) and
mutated (must be flagged) — proving the harness has teeth before its
green verdicts are trusted.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.check.fuzz import ObjectSpec, ProgramSpec, SectionSpec

#: Names of the built-in mutations, in self-test order.
MUTATION_NAMES = ("skip_diff", "misroute_redirect", "threshold_off_by_one")


@contextmanager
def _patched_skip_diff():
    """Drop the first diff application at a home (the module-global
    ``apply_diff`` of the module defining ``_handle_diff``)."""
    import repro.dsm.interval as interval

    original = interval.apply_diff
    state = {"skipped": False}

    def patched(payload, diff):
        if not state["skipped"]:
            state["skipped"] = True
            return None
        return original(payload, diff)

    interval.apply_diff = patched
    try:
        yield
    finally:
        interval.apply_diff = original


@contextmanager
def _patched_misroute_redirect():
    """Make obsolete homes redirect requesters back to themselves."""
    from repro.dsm.redirection import ForwardingPointerMechanism

    original = ForwardingPointerMechanism.miss_directive

    def patched(self, obsolete_home, oid):
        return {"kind": "redirect", "target": obsolete_home.node_id}

    ForwardingPointerMechanism.miss_directive = patched
    try:
        yield
    finally:
        ForwardingPointerMechanism.miss_directive = original


@contextmanager
def _patched_threshold_off_by_one():
    """Evaluate the adaptive threshold one higher than the rule says."""
    from repro.core.policies import AdaptiveThreshold

    original = AdaptiveThreshold.current_threshold

    def patched(self, state, alpha):
        return original(self, state, alpha) + 1.0

    AdaptiveThreshold.current_threshold = patched
    try:
        yield
    finally:
        AdaptiveThreshold.current_threshold = original


_PATCHES = {
    "skip_diff": _patched_skip_diff,
    "misroute_redirect": _patched_misroute_redirect,
    "threshold_off_by_one": _patched_threshold_off_by_one,
}


@contextmanager
def apply_mutation(name: str | None):
    """Context manager installing mutation ``name`` (``None`` = no-op)."""
    if name is None:
        yield
        return
    if name not in _PATCHES:
        raise ValueError(
            f"unknown mutation {name!r}; choose from {MUTATION_NAMES}"
        )
    with _PATCHES[name]():
        yield


def self_test_spec(policy_name: str, policy_params: dict) -> ProgramSpec:
    """A crafted episode that reliably exercises the mutated machinery.

    Three nodes, one thread each, one lock-guarded object homed at node
    0.  Phase 1 gives thread 1 three consecutive lock tenures (its node
    accumulates consecutive remote writes, so FT1/AT migrate the home to
    node 1); phase 2 has thread 2 fault the object through its now-stale
    hint (node 0), forcing a redirect.  Only ``add`` ops are used, so a
    single lost diff shifts the final sums.
    """
    adds_t1 = [
        SectionSpec(lock=0, ops=[("add", "obj0", 0, 1.0)]),
        SectionSpec(lock=0, ops=[("add", "obj0", 0, 2.0)]),
        SectionSpec(lock=0, ops=[("add", "obj0", 1, 4.0)]),
    ]
    return ProgramSpec(
        seed=-1,
        nodes=3,
        nthreads=3,
        placement=[0, 1, 2],
        policy=policy_name,
        policy_params=policy_params,
        mechanism="forwarding-pointer",
        manager_node=0,
        lock_discipline="fifo",
        objects=[ObjectSpec(name="obj0", length=2, home=0, init=[0.0, 0.0])],
        lock_homes=[0],
        barrier_home=0,
        phases=[
            [
                [SectionSpec(lock=0, ops=[("read", "obj0", 0)])],
                adds_t1,
                [],
            ],
            [
                [SectionSpec(lock=0, ops=[("read", "obj0", 1)])],
                [],
                [
                    SectionSpec(lock=0, ops=[("add", "obj0", 0, 8.0)]),
                    SectionSpec(lock=0, ops=[("add", "obj0", 1, 16.0)]),
                ],
            ],
        ],
    )


def mutation_spec(name: str) -> ProgramSpec:
    """The crafted episode used to self-test mutation ``name``."""
    if name == "threshold_off_by_one":
        # needs decision events carrying an adaptive threshold
        return self_test_spec("AT", {"lam": 1.0, "t_init": 1.0})
    # skip_diff needs diffs; misroute needs a migration + stale hint:
    # FT1 provides both
    return self_test_spec("FT", {"threshold": 1})
