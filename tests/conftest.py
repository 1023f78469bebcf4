"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import _kernel
from repro.cluster.hockney import FAST_ETHERNET
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.core.policies import AdaptiveThreshold, NoMigration
from repro.gos.jvm import DistributedJVM
from repro.gos.space import GlobalObjectSpace
from repro.sim.engine import Simulator


@pytest.fixture(params=("python", "compiled"))
def backend(request):
    """Run the test under each backend in turn, then restore the caller's
    (skips the compiled leg where the extension cannot be built)."""
    previous_env = os.environ.get("REPRO_BACKEND")
    previous = _kernel.backend_name()
    try:
        try:
            _kernel.select_backend(request.param)
        except RuntimeError as exc:
            pytest.skip(f"compiled backend unavailable: {exc}")
        yield request.param
    finally:
        _kernel.select_backend(previous)
        if previous_env is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = previous_env


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def stats() -> ClusterStats:
    return ClusterStats()


@pytest.fixture
def network(sim, stats) -> Network:
    return Network(sim, FAST_ETHERNET, nnodes=4, stats=stats)


def make_gos(nnodes: int = 4, policy=None, mechanism=None) -> GlobalObjectSpace:
    """A small cluster with the given policy (NoMigration by default)."""
    return GlobalObjectSpace(
        nnodes=nnodes,
        comm_model=FAST_ETHERNET,
        policy=policy if policy is not None else NoMigration(),
        mechanism=mechanism,
    )


def make_jvm(nodes: int = 4, policy=None, mechanism=None) -> DistributedJVM:
    """A small DistributedJVM with AT by default."""
    return DistributedJVM(
        nodes=nodes,
        comm_model=FAST_ETHERNET,
        policy=policy if policy is not None else AdaptiveThreshold(),
        mechanism=mechanism,
    )


@pytest.fixture
def gos() -> GlobalObjectSpace:
    return make_gos()


def run_threads(gos: GlobalObjectSpace, *bodies) -> float:
    """Spawn generator thread bodies, drain the simulation, surface errors."""
    processes = [
        gos.sim.spawn(body, name=f"test-thread-{i}")
        for i, body in enumerate(bodies)
    ]
    try:
        end = gos.sim.run()
    except Exception:
        # prefer a thread's root-cause failure over the induced deadlock
        for process in processes:
            if process.done and process.finished.exception is not None:
                raise process.finished.exception from None
        raise
    for process in processes:
        if process.finished.exception is not None:
            raise process.finished.exception
    return end
