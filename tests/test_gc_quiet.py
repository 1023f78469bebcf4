"""Collector-quiet episodes: CPython's cyclic GC and the simulation.

``DistributedJVM.run`` and ``run_serving`` pause CPython's cyclic
collector for the call and collect the young generations once on entry
(DESIGN.md §6.13, docs/PROTOCOL.md §12).  This is not the protocol's
barrier-epoch GC (``gc_enabled``).  The pause is memory-safe only while
an episode allocates no reference cycles, so the first half of this file
pins that invariant over every subsystem: from a clean slate, with the
run's result still referenced, no collection may find an unreachable
object.  The second half pins the pause itself: no collection starts
while an episode's events run, the caller's collector state comes back
on every exit, and back-to-back episodes do not pile up in memory.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager, nullcontext

import pytest

from repro.apps import Asp
from repro.apps.base import DsmApplication
from repro.apps.serving import ServingSpec
from repro.bench.executor import ObsSpec, RunSpec, run_spec
from repro.bench.serving import _serve, run_serving
from repro.check.runner import run_episode
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.jvm import DistributedJVM, _cycle_collector_paused
from repro.sim.errors import ProcessFailed

#: The frame an episode's events run under (cluster build, drain, finalize).
EPISODE_CODE = DistributedJVM._run.__code__


@pytest.fixture
def kept(monkeypatch):
    """Every ``RunResult`` that ``DistributedJVM.run`` returns, kept alive
    past the entry point that would drop it (``run_spec``, ``run_serving``,
    ``run_episode``)."""
    results = []
    run = DistributedJVM.run

    def keeping(self, app, nthreads=None):
        results.append(run(self, app, nthreads))
        return results[-1]

    monkeypatch.setattr(DistributedJVM, "run", keeping)
    return results


class CollectorWatch:
    """``gc.callbacks`` hook: the generations of collections started under
    one of ``codes``' frames, and every unreachable object found."""

    def __init__(self, codes) -> None:
        self.codes = frozenset(codes)
        self.inside: list[int] = []
        self.unreachable = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in self.codes:
                    self.inside.append(info["generation"])
                    break
                frame = frame.f_back
        else:
            self.unreachable += info["collected"] + info["uncollectable"]


@contextmanager
def watched(*codes):
    """Watch the collector from a clean slate to a closing full collection
    (which runs while the caller still holds everything it produced)."""
    assert gc.isenabled()
    gc.collect()
    watch = CollectorWatch(codes or (EPISODE_CODE,))
    gc.callbacks.append(watch)
    try:
        yield watch
        gc.collect()
    finally:
        gc.callbacks.remove(watch)


# -- the invariant: an episode allocates no reference cycles ------------------

SYNTH = {"schedule": [(48, 2), (48, 16)]}

#: name -> the episode, through the public entry point that runs it.
EPISODES = {
    **{
        f"synthetic-at-{mechanism}": lambda tmp, m=mechanism: run_spec(
            RunSpec(app="synthetic", app_kwargs=SYNTH, nodes=8, mechanism=m)
        )
        for mechanism in ("forwarding-pointer", "broadcast", "home-manager")
    },
    "shipping": lambda tmp: run_spec(
        RunSpec(
            app="synthetic",
            app_kwargs={"total_updates": 64, "use_shipping": True},
            nodes=4,
        )
    ),
    "retry-locks": lambda tmp: run_spec(
        RunSpec(app="synthetic", app_kwargs=SYNTH, nodes=8, lock_discipline="retry")
    ),
    "homeless": lambda tmp: run_spec(
        RunSpec(
            app="sor",
            app_kwargs={"size": 16, "iterations": 3},
            nodes=4,
            protocol="homeless",
        )
    ),
    "asp-nm": lambda tmp: run_spec(
        RunSpec(app="asp", app_kwargs={"size": 24}, policy="NM", nodes=4)
    ),
    "sor-at": lambda tmp: run_spec(
        RunSpec(app="sor", app_kwargs={"size": 16, "iterations": 4}, nodes=4)
    ),
    "fat-tree-relay": lambda tmp: run_spec(
        RunSpec(
            app="asp",
            app_kwargs={"size": 32},
            nodes=16,
            topology="fat-tree:edge=4:pod=2:oversub=2:contention=1",
            release_fanout=2,
        )
    ),
    "obs": lambda tmp: run_spec(
        RunSpec(
            app="asp",
            app_kwargs={"size": 16},
            nodes=4,
            obs=ObsSpec(
                trace_path=str(tmp / "trace.jsonl"),
                metrics=True,
                log_level="debug",
            ),
        )
    ),
    "serving-churn-16": lambda tmp: run_serving(
        ServingSpec(seed=5, nodes=16, keys=32, phases=3, requests_per_thread=4,
                    churn=0.25)
    ),
}


@pytest.mark.parametrize("name", sorted(EPISODES))
def test_episode_allocates_no_cycles(name, backend, kept, tmp_path):
    with watched() as watch:
        EPISODES[name](tmp_path)
    assert len(kept) == 1 and kept[0].gos.sim.events_processed > 0
    assert watch.unreachable == 0, (
        f"{name}: the collector found {watch.unreachable} unreachable "
        "objects: the episode allocated a reference cycle"
    )
    assert watch.inside == []


@pytest.mark.parametrize("flavor", ["core", "serving"])
def test_fuzz_episodes_allocate_no_cycles(flavor, backend, kept):
    for seed in range(10):
        kept.clear()
        with watched() as watch:
            episode = run_episode(seed=seed, flavor=flavor)
        assert episode.ok, episode.verdict()
        assert len(kept) == 1
        assert watch.unreachable == 0, f"{flavor} seed {seed}"
        assert watch.inside == []


# -- the pause ------------------------------------------------------------------


def test_no_collection_while_a_serving_episode_runs():
    """The traffic expansion, the episode's events and the report run
    collector-quiet; only the entry collection runs, before them."""
    spec = ServingSpec(seed=0, nodes=32, keys=64, phases=2, requests_per_thread=8)
    with watched(_serve.__code__) as watch:
        report = run_serving(spec)
    assert report["requests"] > 0
    assert watch.inside == []


BATCH_32 = RunSpec(app="asp", app_kwargs={"size": 64}, nodes=32)


def test_no_collection_while_a_batch_episode_runs():
    with watched() as watch:
        run_spec(BATCH_32)
    assert watch.inside == []


def test_the_watch_sees_collections_without_the_pause(monkeypatch):
    """The watch can fail: with the collector left on, the same episode
    starts collections under its own frame."""
    from repro.gos import jvm

    monkeypatch.setattr(jvm, "_cycle_collector_paused", nullcontext)
    with watched() as watch:
        run_spec(BATCH_32)
    assert watch.inside


class _Probe(Asp):
    """ASP that notes the collector state while its cluster is built."""

    def setup(self, gos, nthreads):
        self.collector_enabled = gc.isenabled()
        super().setup(gos, nthreads)


def test_collector_state_restored_after_a_normal_run():
    app = _Probe(size=16)
    DistributedJVM(nodes=4, comm_model=FAST_ETHERNET).run(app)
    assert app.collector_enabled is False  # paused inside
    assert gc.isenabled()  # restored after


class _Broken(DsmApplication):
    name = "broken"

    def setup(self, gos, nthreads):
        pass

    def thread_body(self, ctx, tid):
        yield from ctx.compute(1.0)
        raise RuntimeError("app bug")


def test_collector_state_restored_after_a_failing_thread():
    jvm = DistributedJVM(nodes=2, comm_model=FAST_ETHERNET)
    with pytest.raises(ProcessFailed):
        jvm.run(_Broken())
    assert gc.isenabled()


def test_a_caller_who_paused_the_collector_gets_no_collection():
    app = _Probe(size=16)
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.disable()
    gc.callbacks.append(note)
    try:
        DistributedJVM(nodes=4, comm_model=FAST_ETHERNET).run(app)
        assert not gc.isenabled()
    finally:
        gc.callbacks.remove(note)
        gc.enable()
    assert starts == []


def test_nested_pause_collects_once_and_leaves_the_collector_enabled():
    """``run_serving`` pauses; its nested ``DistributedJVM.run`` finds the
    collector paused already and neither collects nor resumes it."""
    entry = _cycle_collector_paused.__wrapped__.__code__
    with watched(entry) as watch:
        run_serving(ServingSpec(seed=1, nodes=4, keys=8, phases=1))
        assert gc.isenabled()
    assert watch.inside == [1]  # the outer entry collection, young only


# -- memory bound -----------------------------------------------------------------


def test_back_to_back_episodes_do_not_pile_up(kept):
    """Each episode's dropped cluster is freed by the next entry
    collection, so the tracked-object count stops growing after the second
    of 30 back-to-back episodes.  At most one dropped cluster may sit in
    the old generation until the next full collection; without the entry
    collection they pile up there, ten and more of them at a time."""
    spec = RunSpec(app="asp", app_kwargs={"size": 64}, nodes=64, verify=False)
    gc.collect()
    before = len(gc.get_objects())
    run_spec(spec)
    cluster = len(gc.get_objects()) - before  # one live result's objects
    kept.clear()
    tracked = []
    for _ in range(30):
        run_spec(spec)
        kept.clear()  # drop each result, as run_spec alone would
        tracked.append(len(gc.get_objects()))
    assert max(tracked[1:]) - tracked[1] < 2 * cluster, (cluster, tracked)
