"""Tests for the retry lock discipline (the paper's runtime randomness)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import SingleWriterBenchmark
from repro.cluster.hockney import FAST_ETHERNET
from repro.core.policies import AdaptiveThreshold, FixedThreshold, NoMigration
from repro.gos.jvm import DistributedJVM
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext
from repro.trace import TraceRecorder

from tests.conftest import run_threads


def retry_jvm(nodes=5, policy=None, seed=0, tracer=None):
    return DistributedJVM(
        nodes=nodes,
        comm_model=FAST_ETHERNET,
        policy=policy if policy is not None else AdaptiveThreshold(),
        lock_discipline="retry",
        seed=seed,
        tracer=tracer,
    )


def test_discipline_validation():
    with pytest.raises(ValueError):
        GlobalObjectSpace(2, FAST_ETHERNET, lock_discipline="bogus")


def test_retry_locks_preserve_mutual_exclusion():
    gos = GlobalObjectSpace(
        4, FAST_ETHERNET, policy=NoMigration(), lock_discipline="retry"
    )
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)

    def incrementer(node, times):
        ctx = ThreadContext(gos, tid=node, node=node)
        for _ in range(times):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[0] += 1.0
            yield from ctx.release(lock)

    run_threads(gos, incrementer(1, 20), incrementer(2, 20), incrementer(3, 20))
    assert gos.read_global(obj)[0] == 60.0


def test_retry_locks_work_with_local_manager():
    gos = GlobalObjectSpace(
        3, FAST_ETHERNET, policy=NoMigration(), lock_discipline="retry"
    )
    obj = gos.alloc_fields(("v",), home=0)
    lock = gos.alloc_lock(home=0)

    def body(node, times):
        ctx = ThreadContext(gos, tid=node, node=node)
        for _ in range(times):
            yield from ctx.acquire(lock)
            payload = yield from ctx.write(obj)
            payload[0] += 1.0
            yield from ctx.release(lock)

    # one contender runs on the manager node itself
    run_threads(gos, body(0, 10), body(1, 10))
    assert gos.read_global(obj)[0] == 20.0


def test_retry_runs_are_deterministic_per_seed():
    def one(seed):
        app = SingleWriterBenchmark(total_updates=128, repetition=4)
        result = retry_jvm(seed=seed).run(app)
        app.verify(result.output)
        return result.execution_time_us, result.stats.snapshot()

    assert one(1) == one(1)
    assert one(1) != one(2)


def test_retry_produces_consecutive_turn_repeats():
    """The paper: "the actual consecutive writing times could be a
    multiple of r".  Under FIFO round-robin that never happens; under the
    retry discipline the releasing thread sometimes wins again."""
    tracer = TraceRecorder(kinds=["decision"])
    app = SingleWriterBenchmark(
        total_updates=512, repetition=4, compute_us=400.0
    )
    result = retry_jvm(
        nodes=9, policy=FixedThreshold(10_000), seed=3, tracer=tracer
    ).run(app)
    app.verify(result.output)
    # FT(10000) never migrates, so consecutive counts accumulate at the
    # fixed home; a repeat tenure shows up as C > r at a decision point
    max_consecutive = max(
        event.detail["consecutive"] for event in tracer.of_kind("decision")
    )
    assert max_consecutive > 4


def test_synthetic_verifies_under_retry_for_all_policies():
    for policy_name in ("NM", "FT1", "FT2", "AT"):
        from repro.core.policies import make_policy

        app = SingleWriterBenchmark(total_updates=128, repetition=4)
        result = retry_jvm(policy=make_policy(policy_name), seed=7).run(app)
        app.verify(result.output)


def test_ft2_migrates_on_random_repeats_at_r2():
    """The paper's 'individual cases': FT2 prohibits migration at r=2
    except when a thread randomly keeps the lock for consecutive turns."""
    migrations = []
    for seed in range(4):
        app = SingleWriterBenchmark(
            total_updates=256, repetition=2, compute_us=400.0
        )
        result = retry_jvm(
            nodes=9, policy=FixedThreshold(2), seed=seed
        ).run(app)
        app.verify(result.output)
        migrations.append(result.migrations)
    assert any(m > 0 for m in migrations)  # repeats do occur
    assert all(m < 40 for m in migrations)  # but migration stays rare


#: A 2-node retry-discipline run whose lock holder raises while its peer
#: retries the lock; prints the exception ``DistributedJVM.run`` ends with.
_FAILED_HOLDER = """\
from repro import DistributedJVM, FAST_ETHERNET, NoMigration
from repro.apps.base import DsmApplication


class FailingHolder(DsmApplication):
    name = "failing-holder"

    def setup(self, gos, nthreads):
        self.lock = gos.alloc_lock(home=0)

    def thread_body(self, ctx, tid):
        yield from ctx.acquire(self.lock)
        if tid == 0:
            raise RuntimeError("holder failed")
        yield from ctx.release(self.lock)


jvm = DistributedJVM(
    nodes=2, comm_model=FAST_ETHERNET, policy=NoMigration(),
    lock_discipline="retry",
)
try:
    jvm.run(FailingHolder(), nthreads=2)
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def test_failed_lock_holder_ends_the_run(backend):
    """A thread that raises while holding a lock ends the run with its
    exception; its peer would otherwise retry the lock for ever.  Run in
    a subprocess with a timeout, so a regression fails instead of
    hanging the suite."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _FAILED_HOLDER],
        env=dict(os.environ, PYTHONPATH=str(root / "src"), REPRO_BACKEND=backend),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "ProcessFailed process 'failing-holder-t0' failed: "
        "RuntimeError('holder failed')"
    )
