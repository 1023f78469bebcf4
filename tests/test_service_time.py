"""Tests for the per-message receiver service overhead knob."""

import pytest

from repro.apps import SingleWriterBenchmark
from repro.cluster.hockney import FAST_ETHERNET
from repro.cluster.node import DEFAULT_SERVICE_US
from repro.core.policies import NoMigration
from repro.gos.jvm import DistributedJVM


def _run(service_us):
    app = SingleWriterBenchmark(total_updates=64, repetition=4)
    jvm = DistributedJVM(
        nodes=3,
        comm_model=FAST_ETHERNET,
        policy=NoMigration(),
        service_us=service_us,
    )
    result = jvm.run(app)
    app.verify(result.output)
    return result


def test_default_service_time_is_modest():
    assert 0 < DEFAULT_SERVICE_US <= 20.0


def test_service_time_slows_execution_proportionally():
    fast = _run(0.0)
    slow = _run(50.0)
    assert slow.execution_time_us > fast.execution_time_us
    # message counts are identical: only the timing changed
    assert slow.stats.snapshot() == fast.stats.snapshot()


def test_negative_service_time_rejected():
    from repro.cluster.node import Node

    with pytest.raises(ValueError):
        Node(0, network=None, service_us=-1.0)
