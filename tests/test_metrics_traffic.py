"""Network traffic metrics: derived from ClusterStats when a run ends.

``net_messages_total``/``net_bytes_total`` are not bumped on the send
path; ``DistributedJVM.run`` adds the finished run's per-category
``ClusterStats`` counts to the attached registry.  So a metered run
sends through the same body as an unmetered one — the compiled fabric
under the compiled backend — and its deterministic outcome is identical.
"""

from dataclasses import replace

from repro.apps import Asp
from repro.bench.executor import ObsSpec, RunSpec, run_spec
from repro.core.policies import make_policy
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.jvm import DistributedJVM
from repro.obs.metrics import MetricsRegistry

SPEC = RunSpec(app="asp", app_kwargs={"size": 24}, policy="AT", nodes=4)


def test_net_counters_equal_cluster_stats_per_category(backend):
    outcome = run_spec(replace(SPEC, obs=ObsSpec(metrics=True)))
    metrics = MetricsRegistry.from_snapshot(outcome.metrics)
    assert len(outcome.msg_count) > 3
    for label, count in outcome.msg_count.items():
        assert metrics.counter_value("net_messages_total", category=label) == count
        assert (
            metrics.counter_value("net_bytes_total", category=label)
            == outcome.msg_bytes[label]
        )
    assert metrics.counter_total("net_messages_total") == outcome.messages
    assert metrics.counter_total("net_bytes_total") == outcome.bytes_total


def test_metered_run_is_deterministically_identical(backend):
    metered = run_spec(replace(SPEC, obs=ObsSpec(metrics=True)))
    assert metered.deterministic() == run_spec(SPEC).deterministic()


def test_metered_compiled_run_uses_the_fabric(backend):
    metrics = MetricsRegistry()
    jvm = DistributedJVM(
        nodes=4, comm_model=FAST_ETHERNET, policy=make_policy("AT"),
        metrics=metrics,
    )
    result = jvm.run(Asp(size=24))
    fabric = type(result.gos.network._fabric).__name__
    assert fabric == ("NetFabric" if backend == "compiled" else "PyNetFabric")
    assert metrics.counter_total("net_messages_total") == (
        result.stats.total_messages()
    )
