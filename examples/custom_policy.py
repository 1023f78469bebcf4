#!/usr/bin/env python
"""Authoring a custom home-migration policy.

The policy interface (:class:`repro.core.policies.MigrationPolicy`) is a
public extension point: a policy sees the per-object access monitor state
and decides, per object request at the home, whether the home should move
to the requester.

This example implements a *hysteresis* policy — migrate after K
consecutive remote writes, but refuse to migrate the same object again
within a cooldown number of requests — and races it against the paper's
protocols on the synthetic benchmark.

Run:  python examples/custom_policy.py
"""

from repro import DistributedJVM, FAST_ETHERNET
from repro.apps import SingleWriterBenchmark
from repro.core.policies import make_policy
from repro.core.policies import MigrationPolicy
from repro.core.state import ObjectAccessState


class HysteresisPolicy(MigrationPolicy):
    """Fixed threshold + per-object cooldown between migrations."""

    name = "HYST"

    def __init__(self, threshold: int = 1, cooldown: int = 16):
        self.threshold = threshold
        self.cooldown = cooldown
        # per-object remote-read countdown since the last migration
        self._cooldowns: dict[int, int] = {}

    def should_migrate(
        self,
        state: ObjectAccessState,
        requester: int,
        alpha: float,
        for_write: bool,
    ) -> bool:
        remaining = self._cooldowns.get(state.oid, 0)
        if remaining > 0:
            self._cooldowns[state.oid] = remaining - 1
            return False
        return (
            state.consecutive_writer == requester
            and state.consecutive_writes >= self.threshold
        )

    def on_migrated(self, state: ObjectAccessState, alpha: float) -> None:
        self._cooldowns[state.oid] = self.cooldown
        super().on_migrated(state, alpha)


def run(policy, repetition):
    app = SingleWriterBenchmark(total_updates=512, repetition=repetition)
    jvm = DistributedJVM(nodes=9, comm_model=FAST_ETHERNET, policy=policy)
    result = jvm.run(app)
    app.verify(result.output)
    return result


def main() -> None:
    print(f"{'r':>3} {'policy':>6} {'time':>9} {'migrations':>11} {'redir':>7}")
    for repetition in (2, 16):
        for factory in (
            lambda: make_policy("FT1"),
            lambda: make_policy("AT"),
            lambda: HysteresisPolicy(threshold=1, cooldown=16),
        ):
            policy = factory()
            result = run(policy, repetition)
            print(
                f"{repetition:>3} {policy.name:>6} "
                f"{result.execution_time_s:8.3f}s "
                f"{result.migrations:>11} "
                f"{result.stats.events.get('redir', 0):>7}"
            )
    print()
    print("The cooldown tames FT1's redirection storm at r=2 but, unlike")
    print("AT, it is a fixed compromise: at r=16 the cooldown also delays")
    print("helpful migrations, while AT's feedback adapts per object.")


if __name__ == "__main__":
    main()
