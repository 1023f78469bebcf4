"""Parallel sweep execution: declarative run specs fanned out over processes.

Every figure and ablation sweep is a list of *independent, deterministic*
single-run configurations.  This module gives them one shared execution
layer:

* :class:`RunSpec` — a picklable, declarative description of one run
  (application registry name + constructor kwargs, policy, node count,
  notification mechanism, communication model, lock discipline, seed);
* :class:`RunOutcome` — the plain-data measurements one run produced
  (simulated time, message/byte counters, protocol events, per-run
  wall-clock), safe to ship across process boundaries;
* :func:`execute` — run a list of specs either in-process (``jobs=1``)
  or fanned out over a :class:`concurrent.futures.ProcessPoolExecutor`
  (``jobs>1``), always returning outcomes in spec order.

Determinism: each run builds a fresh simulated cluster from its spec, so
an outcome is a pure function of its spec — results are keyed by spec
index regardless of completion order, and ``execute(specs, jobs=1)`` is
bit-identical to ``execute(specs, jobs=N)`` (only the wall-clock fields
differ).  Specs whose application is given as an in-line callable (e.g.
a test lambda) may not survive pickling; :func:`execute` detects that and
falls back to sequential in-process execution, as it does when a worker
pool cannot be started at all.
"""

from __future__ import annotations

import io
import os
import pickle
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, TextIO

from repro.apps import (
    Asp,
    Lu,
    NBody,
    SingleWriterBenchmark,
    Sor,
    TokenRing,
    Tsp,
)
from repro.cluster.hockney import HockneyModel
from repro.gos.jvm import ClusterSpec

#: Application factories by registry name (the picklable way to say
#: "an ``Asp(size=192)``" without capturing a closure).
APP_FACTORIES: dict[str, Callable[..., Any]] = {
    "asp": Asp,
    "sor": Sor,
    "nbody": NBody,
    "tsp": Tsp,
    "lu": Lu,
    "tokenring": TokenRing,
    "synthetic": SingleWriterBenchmark,
}

@dataclass(frozen=True)
class ObsSpec:
    """Declarative, picklable observability configuration for one run.

    All fields default to "off", so ``ObsSpec()`` is an explicit no-op.
    ``trace_path`` streams the run's trace events to a JSONL file via
    :class:`~repro.obs.export.JsonlTraceWriter` (``trace_kinds`` filters
    which event kinds, ``None`` = all); ``metrics`` builds a
    :class:`~repro.obs.metrics.MetricsRegistry` whose snapshot lands on
    the outcome; ``log_level`` enables a
    :class:`~repro.obs.logging.RunLogger` whose lines land in
    :attr:`RunOutcome.log` (:func:`execute` prints them on stderr).
    """

    trace_path: str | None = None
    trace_kinds: tuple[str, ...] | None = None
    metrics: bool = False
    log_level: str | None = None

    @property
    def enabled(self) -> bool:
        """True when any instrument is switched on."""
        return (
            self.trace_path is not None
            or self.metrics
            or self.log_level is not None
        )

    def for_run(self, index: int, total: int) -> "ObsSpec":
        """Derive the per-run variant for run ``index`` of ``total``.

        With more than one run sharing a ``trace_path``, each run's
        stream gets its own file: ``trace.jsonl`` becomes
        ``trace-000.jsonl``, ``trace-001.jsonl``, ...  (suffix inserted
        before the extension).  Single-run sweeps keep the path as-is.
        """
        if self.trace_path is None or total <= 1:
            return self
        root, ext = os.path.splitext(self.trace_path)
        return replace(self, trace_path=f"{root}-{index:03d}{ext}")


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one simulated run.

    ``app`` is either a key of :data:`APP_FACTORIES` (the picklable form,
    required for multi-process execution) or a zero-argument callable
    returning a :class:`~repro.apps.base.DsmApplication` (convenient in
    tests; forces the sequential fallback when it cannot be pickled).
    The cluster settings are flat fields with
    :class:`~repro.gos.jvm.ClusterSpec`'s names, checked at construction
    (:attr:`cluster`), so a malformed spec fails where it is written, not
    in a sweep worker.  ``tag`` is an arbitrary picklable label the sweep
    uses to map outcomes back to its own result structure.
    """

    app: str | Callable[..., Any]
    app_kwargs: Mapping[str, Any] = field(default_factory=dict)
    policy: str = "AT"
    policy_params: Mapping[str, Any] = field(default_factory=dict)
    nodes: int = 8
    mechanism: str = "forwarding-pointer"
    comm_model: str | HockneyModel = "fast-ethernet"
    protocol: str = "home-based"
    lock_discipline: str = "fifo"
    seed: int = 0
    nthreads: int | None = None
    verify: bool = True
    tag: Any = None
    obs: ObsSpec | None = None
    #: Opt-in interconnect topology spec string (PROTOCOL.md §15), e.g.
    #: ``"hier:leaf=16:oversub=4"``; ``None`` keeps the ideal switch.
    topology: str | None = None
    #: Opt-in k-ary multicast relay for barrier releases.
    release_fanout: int | None = None

    def __post_init__(self) -> None:
        ClusterSpec.of(self)  # a bad cluster setting fails here

    @property
    def cluster(self) -> ClusterSpec:
        """The run's machine, from the flat cluster fields."""
        return ClusterSpec.of(self)


@dataclass(frozen=True)
class RunOutcome:
    """Plain-data measurements of one completed run.

    Everything here is JSON-friendly and picklable: the figure drivers
    assemble their result dictionaries from these fields instead of
    holding on to live :class:`~repro.gos.jvm.RunResult` objects (which
    carry the whole simulated cluster and cannot cross processes).
    ``wall_clock_s`` is the only nondeterministic field; everything else
    is a pure function of the spec.

    ``metrics`` is the run's :class:`~repro.obs.metrics.MetricsRegistry`
    snapshot when the spec carried an :class:`ObsSpec` with
    ``metrics=True``, else ``None``; :meth:`deterministic` strips it, so
    a metered and a bare run of one spec compare equal.  ``log`` holds
    the run's log lines (``""`` without a ``log_level``): a run never
    writes to stderr itself, so a pool worker's lines cannot tear.
    """

    tag: Any
    app: str
    policy: str
    mechanism: str
    nodes: int
    threads: int
    time_us: float
    wall_clock_s: float
    events_processed: int
    messages: int
    data_messages: int
    bytes_total: int
    data_bytes: int
    migrations: int
    breakdown: dict[str, int]
    events: dict[str, int]
    msg_count: dict[str, int]
    msg_bytes: dict[str, int]
    metrics: dict | None = None
    #: Which simulation backend produced this outcome ("python" or
    #: "compiled") — diagnostic provenance, stripped from the
    #: deterministic view because both backends are bit-identical.
    backend: str = "python"
    log: str = ""

    @property
    def time_s(self) -> float:
        """Simulated execution time in seconds."""
        return self.time_us / 1e6

    def deterministic(self) -> dict:
        """All fields except the wall-clock, metrics, backend and log —
        the bit-stable view two executions of the same spec must agree on
        exactly (whichever backend ran them)."""
        payload = self.__dict__.copy()
        for name in ("wall_clock_s", "metrics", "backend", "log"):
            payload.pop(name)
        return payload


def _make_app(spec: RunSpec) -> Any:
    """Instantiate the spec's application (registry name or callable)."""
    kwargs = dict(spec.app_kwargs)
    if callable(spec.app):
        return spec.app(**kwargs)
    try:
        factory = APP_FACTORIES[spec.app]
    except KeyError:
        raise ValueError(
            f"unknown application {spec.app!r}; "
            f"choose from {sorted(APP_FACTORIES)}"
        ) from None
    return factory(**kwargs)


def _build_obs(obs: ObsSpec, log_stream: TextIO):
    """Realize an :class:`ObsSpec` into live instruments.

    Returns ``(metrics, writer, logger)``; each is ``None`` when the
    corresponding instrument is off.  The logger writes to
    ``log_stream``.
    """
    from repro.obs.export import JsonlTraceWriter
    from repro.obs.logging import RunLogger
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry() if obs.metrics else None
    writer = (
        JsonlTraceWriter(obs.trace_path, kinds=obs.trace_kinds)
        if obs.trace_path is not None
        else None
    )
    logger = (
        RunLogger(level=obs.log_level, stream=log_stream)
        if obs.log_level is not None
        else None
    )
    return metrics, writer, logger


def run_spec(spec: RunSpec) -> RunOutcome:
    """Realize and run one :class:`RunSpec` in the current process.

    This is the worker function :func:`execute` fans out; it is also the
    entire sequential path, so both modes share one code path per run.
    When ``spec.obs`` is enabled, the run is instrumented; a metered
    run's snapshot lands in :attr:`RunOutcome.metrics` and a logged
    run's lines in :attr:`RunOutcome.log`.
    """
    from repro import _kernel
    from repro.gos.jvm import DistributedJVM

    obs = spec.obs if spec.obs is not None and spec.obs.enabled else None
    log_stream = io.StringIO()
    if obs is None:
        metrics = writer = logger = None
    else:
        metrics, writer, logger = _build_obs(obs, log_stream)
    if metrics is not None:
        # Backend provenance in the metrics snapshot: 1.0 when the
        # compiled kernel ran this spec, 0.0 for pure Python.
        metrics.gauge("run_backend_compiled").set(
            1.0 if _kernel.backend_name() == "compiled" else 0.0
        )

    start = time.perf_counter()
    try:
        app = _make_app(spec)
        jvm = DistributedJVM(
            spec.cluster, tracer=writer, metrics=metrics, logger=logger
        )
        result = jvm.run(app, nthreads=spec.nthreads)
        if spec.verify:
            app.verify(result.output)
    finally:
        if writer is not None:
            writer.close()
    stats = result.stats
    return RunOutcome(
        tag=spec.tag,
        app=result.app_name,
        policy=result.policy_name,
        mechanism=result.mechanism_name,
        nodes=result.nnodes,
        threads=result.nthreads,
        time_us=result.execution_time_us,
        wall_clock_s=time.perf_counter() - start,
        events_processed=result.gos.sim.events_processed,
        messages=stats.total_messages(),
        data_messages=stats.data_messages(),
        bytes_total=stats.total_bytes(),
        data_bytes=stats.data_bytes(),
        migrations=result.migrations,
        breakdown=stats.breakdown(),
        events=dict(stats.events),
        msg_count={cat.value: n for cat, n in stats.msg_count.items()},
        msg_bytes={cat.value: n for cat, n in stats.msg_bytes.items()},
        metrics=metrics.snapshot() if metrics is not None else None,
        backend=_kernel.backend_name(),
        log=log_stream.getvalue(),
    )


def default_jobs() -> int:
    """CPU-count-aware default worker count (respects CPU affinity)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Signature of :func:`execute`'s ``progress`` callback:
#: ``progress(done, total, outcome)`` after each run completes.
ProgressCallback = Callable[[int, int, RunOutcome], None]


def _execute_sequential(
    specs: list[RunSpec], progress: ProgressCallback | None = None
) -> list[RunOutcome]:
    """In-process execution, in order — the ``jobs=1`` / fallback path."""
    outcomes = []
    total = len(specs)
    for spec in specs:
        outcome = run_spec(spec)
        outcomes.append(outcome)
        sys.stderr.write(outcome.log)
        if progress is not None:
            progress(len(outcomes), total, outcome)
    return outcomes


def execute(
    specs: Iterable[RunSpec],
    jobs: int | None = None,
    obs: ObsSpec | None = None,
    progress: ProgressCallback | None = None,
) -> list[RunOutcome]:
    """Run every spec; return outcomes in spec order.

    ``jobs=None`` means :func:`default_jobs` (all usable cores);
    ``jobs=1`` runs sequentially in-process.  For ``jobs>1`` the specs
    are fanned out over a process pool; completion order does not matter
    because results are collected by spec index.  If the specs cannot be
    pickled (in-line application callables) or the pool cannot be
    started (restricted environments), execution silently falls back to
    the sequential path — the results are identical either way.

    ``obs`` applies one observability configuration to every spec that
    does not already carry its own (per-run trace files are derived via
    :meth:`ObsSpec.for_run`).  ``progress`` is called as
    ``progress(done, total, outcome)`` once per run, in spec order on
    both paths: a pool reports a finished run as soon as every earlier
    spec has finished too, so a hook that folds outcomes (the CLI's
    merged metrics, whose float sums depend on the fold order) folds
    them in one order whatever ``jobs`` is.  Each run's log lines are
    printed on stderr just before it is reported, so the log too is the
    same whatever ``jobs`` is.  Neither affects the deterministic fields
    of the outcomes.
    """
    spec_list = list(specs)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if obs is not None and obs.enabled:
        total = len(spec_list)
        spec_list = [
            spec if spec.obs is not None
            else replace(spec, obs=obs.for_run(i, total))
            for i, spec in enumerate(spec_list)
        ]
    jobs = min(jobs, len(spec_list))
    if jobs <= 1:
        return _execute_sequential(spec_list, progress)
    try:
        pickle.dumps(spec_list)
    except Exception:
        return _execute_sequential(spec_list, progress)
    # the pool's stdlib stack is loaded only by a run that uses it
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(run_spec, spec): i
                for i, spec in enumerate(spec_list)
            }
            total = len(spec_list)
            results: list[RunOutcome | None] = [None] * total
            done = 0
            for future in as_completed(futures):
                results[futures[future]] = future.result()
                while done < total and results[done] is not None:
                    sys.stderr.write(results[done].log)
                    done += 1
                    if progress is not None:
                        progress(done, total, results[done - 1])
            return results  # type: ignore[return-value]
    except (OSError, BrokenProcessPool):
        return _execute_sequential(spec_list, progress)
