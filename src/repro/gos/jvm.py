"""DistributedJVM: build the simulated machine, run an application.

Mirrors the paper's execution model (§5): "A Java application is started
in one cluster node.  When a Java thread is created, it is automatically
dispatched to a free cluster node" — thread placement defaults to
``tid -> node tid % nnodes`` and can be overridden by the application
(the synthetic benchmark places its workers on nodes other than node 0).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, TYPE_CHECKING

from repro.cluster.hockney import HockneyModel
from repro.cluster.stats import ClusterStats
from repro.core.policies import MigrationPolicy, NoMigration
from repro.dsm.redirection import (
    ForwardingPointerMechanism,
    NotificationMechanism,
)
from repro.gos import homeless
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext
from repro.obs.sinks import LogSink, MetricsSink, observer

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import DsmApplication


@contextmanager
def _cycle_collector_paused() -> Iterator[None]:
    """Run one episode with CPython's cyclic collector paused.

    Not the protocol's barrier-epoch GC (``gc_enabled``): this is host
    memory management.  An episode allocates no reference cycles — its
    objects die by reference counting or stay reachable from the result —
    so a collection inside it finds nothing to free and only costs wall
    time.  The collector instead runs once at the boundary: ``collect(1)``
    on entry frees the young generations, where a previous paused
    episode's dropped cluster sits.  The caller's state is restored on
    any exit; a caller who paused the collector already (or an enclosing
    pause) gets neither a collection nor a change.
    """
    if not gc.isenabled():
        yield
        return
    gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass
class RunResult:
    """Everything one run produced: timing, traffic, and application output."""

    app_name: str
    policy_name: str
    mechanism_name: str
    nnodes: int
    nthreads: int
    execution_time_us: float
    stats: ClusterStats
    output: Any = None
    gos: GlobalObjectSpace = field(repr=False, default=None)

    @property
    def execution_time_s(self) -> float:
        return self.execution_time_us / 1e6

    @property
    def migrations(self) -> int:
        return self.stats.events.get("migration", 0)

    def summary(self) -> dict:
        """Stable plain-dict summary used by the bench harness and tests."""
        return {
            "app": self.app_name,
            "policy": self.policy_name,
            "mechanism": self.mechanism_name,
            "nodes": self.nnodes,
            "threads": self.nthreads,
            "time_us": self.execution_time_us,
            "messages": self.stats.total_messages(),
            "data_messages": self.stats.data_messages(),
            "bytes": self.stats.total_bytes(),
            "data_bytes": self.stats.data_bytes(),
            "migrations": self.migrations,
            "breakdown": self.stats.breakdown(),
        }


class DistributedJVM:
    """One-call façade: configure the cluster once, run applications."""

    def __init__(
        self,
        nodes: int,
        comm_model: HockneyModel,
        policy: MigrationPolicy | None = None,
        mechanism: NotificationMechanism | None = None,
        service_us: float | None = None,
        protocol: str = "home-based",
        tracer=None,
        lock_discipline: str = "fifo",
        seed: int = 0,
        metrics=None,
        logger=None,
        gc_enabled: bool = True,
        topology=None,
        release_fanout: int | None = None,
    ):
        if nodes < 1:
            raise ValueError(f"need at least one node, got {nodes}")
        if protocol not in ("home-based", "homeless"):
            raise ValueError(
                f"protocol must be 'home-based' or 'homeless', got {protocol!r}"
            )
        if protocol == "homeless" and lock_discipline != "fifo":
            raise ValueError(homeless.RETRY_UNSUPPORTED)
        self.nodes = nodes
        self.comm_model = comm_model
        self.policy = policy if policy is not None else NoMigration()
        self.mechanism = (
            mechanism if mechanism is not None else ForwardingPointerMechanism()
        )
        self.service_us = service_us
        self.protocol = protocol
        self.tracer = tracer
        self.lock_discipline = lock_discipline
        self.seed = seed
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`: every
        #: home-based run folds its trace stream into it
        #: (:class:`~repro.obs.sinks.MetricsSink`), and every run adds its
        #: per-category ``net_*`` traffic counters when it ends.
        self.metrics = metrics
        #: Optional :class:`~repro.obs.logging.RunLogger`: run lifecycle
        #: lines, plus the migration/decision lines of home-based runs
        #: (:class:`~repro.obs.sinks.LogSink`).
        self.logger = logger
        #: Barrier-epoch memory GC in the home-based engines (``--no-gc``
        #: escape hatch turns it off; results are identical either way,
        #: only the memory footprint differs).
        self.gc_enabled = gc_enabled
        #: Opt-in interconnect topology (spec string, dict or
        #: :class:`~repro.cluster.topology.ClusterTopology`); ``None``
        #: keeps the seed's ideal single switch (PROTOCOL.md §15).
        self.topology = topology
        #: Opt-in k-ary multicast relay for barrier releases; ``None``
        #: keeps the legacy direct burst.
        self.release_fanout = release_fanout

    def run(
        self, app: "DsmApplication", nthreads: int | None = None
    ) -> RunResult:
        """Execute ``app`` on a freshly built cluster; verify its output.

        Each run constructs a new :class:`GlobalObjectSpace` (fresh
        simulator, network, heap, engines), so runs are independent and
        deterministic.  CPython's cyclic collector is paused for the call
        and the caller's collector state is restored afterwards.
        """
        with _cycle_collector_paused():
            return self._run(app, nthreads)

    def _observer(self):
        """The one tracer a run's engines emit into: the caller's tracer
        and, on home-based runs, the metrics and log sinks."""
        if self.protocol == "homeless":  # its engines emit nothing
            return self.tracer
        tracers = [self.tracer]
        if self.metrics is not None:
            tracers.append(MetricsSink(self.metrics, self.nodes))
        if self.logger is not None and self.logger.enabled_for("info"):
            tracers.append(LogSink(self.logger))
        return observer(*tracers)

    def _run(self, app: "DsmApplication", nthreads: int | None) -> RunResult:
        threads = nthreads if nthreads is not None else app.default_threads(self.nodes)
        if threads < 1:
            raise ValueError(f"need at least one thread, got {threads}")
        # resolved per run, so a patched HomelessObjectSpace takes effect
        space_class = (
            homeless.HomelessObjectSpace
            if self.protocol == "homeless"
            else GlobalObjectSpace
        )
        gos = space_class(
            nnodes=self.nodes,
            comm_model=self.comm_model,
            policy=self.policy,
            mechanism=self.mechanism,
            service_us=self.service_us,
            tracer=self._observer(),
            lock_discipline=self.lock_discipline,
            seed=self.seed,
            gc_enabled=self.gc_enabled,
            topology=self.topology,
            release_fanout=self.release_fanout,
        )
        log = self.logger
        log_info = log is not None and log.enabled_for("info")
        if log_info:
            log.info(
                "run_start",
                app=app.name,
                protocol=self.protocol,
                nodes=self.nodes,
                threads=threads,
            )
        app.setup(gos, threads)
        processes = []
        for tid in range(threads):
            node = app.placement(tid, self.nodes, threads)
            ctx = ThreadContext(gos, tid, node)
            processes.append(
                gos.sim.spawn(app.thread_body(ctx, tid), name=f"{app.name}-t{tid}")
            )
        try:
            execution_time = gos.sim.run()
        except Exception:
            # a thread failure often surfaces as a deadlock of its peers;
            # report the root cause instead
            for process in processes:
                if process.done and process.finished.exception is not None:
                    raise process.finished.exception from None
            raise
        for process in processes:
            if process.finished.exception is not None:
                raise process.finished.exception
        output = app.finalize(gos)
        if self.metrics is not None:
            _count_traffic(self.metrics, gos.stats)
        if log_info:
            log.info(
                "run_end",
                app=app.name,
                sim_time_us=execution_time,
                events=gos.sim.events_processed,
                messages=gos.stats.total_messages(),
                migrations=gos.stats.events.get("migration", 0),
            )
        # A bounded TraceRecorder that evicted span events has broken
        # causal trees: never let that pass silently.
        dropped_spans = getattr(self.tracer, "dropped_spans", 0)
        if dropped_spans:
            if log is not None:
                log.warning(
                    "dropped_spans",
                    app=app.name,
                    dropped_spans=dropped_spans,
                    dropped_total=getattr(self.tracer, "dropped", 0),
                )
            else:  # no logger: fall back to a stdlib warning
                import warnings

                warnings.warn(
                    f"trace recorder dropped {dropped_spans} span events "
                    f"(max_events too small); causal trees are incomplete",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return RunResult(
            app_name=app.name,
            policy_name=(
                "HOMELESS" if self.protocol == "homeless" else self.policy.name
            ),
            mechanism_name=self.mechanism.name,
            nnodes=self.nodes,
            nthreads=threads,
            execution_time_us=execution_time,
            stats=gos.stats,
            output=output,
            gos=gos,
        )


def _count_traffic(metrics, stats: ClusterStats) -> None:
    """Add a finished run's per-category traffic to ``metrics``.

    ``net_messages_total``/``net_bytes_total`` are derived from the
    network's :class:`ClusterStats` counters here instead of being bumped
    per send, so the send body carries no metrics branch.
    """
    for category, count in stats.msg_count.items():
        label = category.value
        metrics.counter("net_messages_total", category=label).inc(count)
        metrics.counter("net_bytes_total", category=label).inc(
            stats.msg_bytes[category]
        )
