"""ClusterSpec and DistributedJVM: describe the simulated machine, run
an application on it.

Mirrors the paper's execution model (§5): "A Java application is started
in one cluster node.  When a Java thread is created, it is automatically
dispatched to a free cluster node" — thread placement defaults to
``tid -> node tid % nnodes`` and can be overridden by the application
(the synthetic benchmark places its workers on nodes other than node 0).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Mapping, TYPE_CHECKING

from repro.cluster.hockney import FAST_ETHERNET, HockneyModel, make_comm_model
from repro.cluster.stats import ClusterStats
from repro.cluster.topology import make_topology
from repro.core.policies import MigrationPolicy, make_policy
from repro.dsm.protocol import check_lock_discipline
from repro.dsm.redirection import NotificationMechanism, make_mechanism
from repro.dsm.sync import check_release_fanout
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext
from repro.obs.sinks import LogSink, MetricsSink, observer

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import DsmApplication


@contextmanager
def _cycle_collector_paused() -> Iterator[None]:
    """Run one episode with CPython's cyclic collector paused.

    Host memory management, not the protocol's: the engines drop a
    cached copy when they invalidate it.  An episode allocates no reference cycles — its
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


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """The one description of a simulated machine.

    ``nodes`` nodes on a Hockney-modelled network (``comm_model``) under
    one coherence ``protocol``, one migration ``policy`` (``NM`` when
    ``None``; ``policy_params`` go to a named policy's constructor) and
    one §3.2 notification ``mechanism`` (forwarding pointers when
    ``None``; a ``home-manager`` defaults to ``manager_node``).  Policy,
    mechanism and comm model each take a registry name or an instance;
    ``topology`` (PROTOCOL.md §15) a spec string, dict or built topology,
    ``None`` for the ideal switch; ``release_fanout`` the k-ary barrier
    release relay, ``None`` for the direct burst.  Every
    setting is checked here, at construction, and a bad one is one
    ``ValueError`` line; what they resolve to is kept in the
    ``resolved_*`` attributes.
    """

    nodes: int
    comm_model: str | HockneyModel = FAST_ETHERNET.name
    protocol: str = "home-based"
    policy: str | MigrationPolicy | None = None
    policy_params: Mapping[str, Any] = field(default_factory=dict)
    mechanism: str | NotificationMechanism | None = None
    manager_node: int = 0
    lock_discipline: str = "fifo"
    topology: Any = None
    release_fanout: int | None = None
    seed: int = 0
    service_us: float | None = None
    resolved_comm_model: HockneyModel = field(init=False, repr=False, compare=False)
    resolved_policy: MigrationPolicy = field(init=False, repr=False, compare=False)
    resolved_mechanism: NotificationMechanism = field(
        init=False, repr=False, compare=False
    )
    resolved_topology: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"need at least one node, got {self.nodes}")
        if self.protocol not in ("home-based", "homeless"):
            raise ValueError(
                f"protocol must be 'home-based' or 'homeless', got {self.protocol!r}"
            )
        check_lock_discipline(self.lock_discipline)
        if self.protocol == "homeless" and self.lock_discipline != "fifo":
            from repro.gos.homeless import RETRY_UNSUPPORTED

            raise ValueError(RETRY_UNSUPPORTED)
        check_release_fanout(self.release_fanout)
        comm, policy, mechanism = self.comm_model, self.policy, self.mechanism
        if not isinstance(comm, HockneyModel):
            comm = make_comm_model(comm)
        if policy is None:
            policy = "NM"
        if not isinstance(policy, MigrationPolicy):
            policy = make_policy(policy, **self.policy_params)
        elif self.policy_params:
            raise ValueError("policy_params need a policy name, not an instance")
        if mechanism is None:
            mechanism = "forwarding-pointer"
        if not isinstance(mechanism, NotificationMechanism):
            mechanism = make_mechanism(mechanism, self.manager_node)
        mechanism.validate(self.nodes)
        topology = make_topology(self.topology, self.nodes)
        setattr_ = object.__setattr__  # the spec is frozen
        setattr_(self, "resolved_comm_model", comm)
        setattr_(self, "resolved_policy", policy)
        setattr_(self, "resolved_mechanism", mechanism)
        setattr_(self, "resolved_topology", topology)

    @classmethod
    def of(cls, spec, **settings) -> "ClusterSpec":
        """The cluster of ``spec``, a dataclass that spells its cluster
        fields with this class's names (``RunSpec``, ``ServingSpec``,
        ``ProgramSpec``); ``settings`` add what it does not hold."""
        held = {f.name for f in fields(spec)}
        given = {
            f.name: getattr(spec, f.name)
            for f in fields(cls) if f.init and f.name in held
        }
        return cls(**given, **settings)


class DistributedJVM:
    """One-call façade: configure the cluster once, run applications.

    Takes a :class:`ClusterSpec`, or its settings as keywords
    (``DistributedJVM(nodes=8, policy="AT")``), and the observers: a
    ``tracer``; a :class:`~repro.obs.metrics.MetricsRegistry` that
    home-based runs fold their trace stream into and every run adds its
    ``net_*`` traffic counters to; a :class:`~repro.obs.logging.RunLogger`
    for run lifecycle lines (and, home-based, migration/decision lines).
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        *,
        tracer=None,
        metrics=None,
        logger=None,
        **settings,
    ):
        if cluster is None:
            cluster = ClusterSpec(**settings)
        elif settings:
            raise TypeError("pass a ClusterSpec or its settings, not both")
        self.cluster = cluster
        self.tracer = tracer
        self.metrics = metrics
        self.logger = logger

    def run(
        self, app: "DsmApplication", nthreads: int | None = None
    ) -> RunResult:
        """Execute ``app`` on a freshly built cluster.

        Each run constructs a new :class:`GlobalObjectSpace` (fresh
        simulator, network, heap, engines), so runs are independent and
        deterministic.  CPython's cyclic collector is paused for the call
        and the caller's collector state is restored afterwards.  The
        first thread that raises ends the run with its
        :class:`~repro.sim.errors.ProcessFailed`.
        """
        with _cycle_collector_paused():
            return self._run(app, nthreads)

    def _observer(self):
        """The one tracer a run's engines emit into: the caller's tracer
        and, on home-based runs, the metrics and log sinks."""
        if self.cluster.protocol == "homeless":  # its engines emit nothing
            return self.tracer
        tracers = [self.tracer]
        if self.metrics is not None:
            tracers.append(MetricsSink(self.metrics, self.cluster.nodes))
        if self.logger is not None and self.logger.enabled_for("info"):
            tracers.append(LogSink(self.logger))
        return observer(*tracers)

    def _run(self, app: "DsmApplication", nthreads: int | None) -> RunResult:
        cluster = self.cluster
        nodes, homeless_run = cluster.nodes, cluster.protocol == "homeless"
        threads = nthreads if nthreads is not None else app.default_threads(nodes)
        if threads < 1:
            raise ValueError(f"need at least one thread, got {threads}")
        space_class = GlobalObjectSpace
        if homeless_run:
            # imported here, by the one protocol that runs it; resolved per
            # run, so a patched HomelessObjectSpace takes effect
            from repro.gos.homeless import HomelessObjectSpace as space_class
        gos = space_class(
            nnodes=nodes,
            comm_model=cluster.resolved_comm_model,
            policy=cluster.resolved_policy,
            mechanism=cluster.resolved_mechanism,
            service_us=cluster.service_us,
            tracer=self._observer(),
            lock_discipline=cluster.lock_discipline,
            seed=cluster.seed,
            topology=cluster.resolved_topology,
            release_fanout=cluster.release_fanout,
        )
        log = self.logger
        log_info = log is not None and log.enabled_for("info")
        if log_info:
            log.info(
                "run_start",
                app=app.name,
                protocol=cluster.protocol,
                nodes=nodes,
                threads=threads,
            )
        app.setup(gos, threads)
        processes = []
        for tid in range(threads):
            node = app.placement(tid, nodes, threads)
            ctx = ThreadContext(gos, tid, node)
            process = gos.sim.spawn(
                app.thread_body(ctx, tid), name=f"{app.name}-t{tid}"
            )
            # A failed thread ends the run: its peers may wait on it for
            # ever (a held lock under the retry discipline never drains).
            process.finished.add_done_callback(_raise_failure)
            processes.append(process)
        try:
            execution_time = gos.sim.run()
        except Exception:
            # report the failed thread's exception, not what it caused
            for process in processes:
                if process.done and process.finished.exception is not None:
                    raise process.finished.exception from None
            raise
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
        return RunResult(
            app_name=app.name,
            policy_name=(
                "HOMELESS" if homeless_run else cluster.resolved_policy.name
            ),
            mechanism_name=cluster.resolved_mechanism.name,
            nnodes=nodes,
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


def _raise_failure(finished) -> None:
    """Done-callback of a thread's ``finished`` future: raise a failure
    out of the simulator's drain."""
    if finished.exception is not None:
        raise finished.exception
