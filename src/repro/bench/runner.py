"""Run one application once on one cluster."""

from __future__ import annotations

from repro.apps.base import DsmApplication
from repro.gos.jvm import ClusterSpec, DistributedJVM, RunResult


def run_once(
    app: DsmApplication, policy="AT", nodes: int = 8, *,
    nthreads: int | None = None, verify: bool = True, **cluster,
) -> RunResult:
    """Run ``app`` on ``ClusterSpec(nodes=, policy=, **cluster)``; verify by default."""
    cluster_spec = ClusterSpec(nodes=nodes, policy=policy, **cluster)
    result = DistributedJVM(cluster_spec).run(app, nthreads=nthreads)
    if verify:
        app.verify(result.output)
    return result
