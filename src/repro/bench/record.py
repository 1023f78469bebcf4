"""Record a span-enabled trace of one run — the analyze pipeline's input.

Thin convenience over the bench executor: build a :class:`RunSpec` whose
:class:`ObsSpec` streams every trace kind (spans included) to a JSONL
file, run it in-process, and hand back the outcome.  Used by tests that
need a real trace file without spelling out the executor plumbing.
"""

from __future__ import annotations

from repro.bench.executor import ObsSpec, RunOutcome, RunSpec, run_spec

__all__ = ["record_trace"]


def record_trace(out: str, app: str = "asp", **fields) -> RunOutcome:
    """Run one workload with full tracing on, writing the trace to ``out``.

    ``fields`` are :class:`RunSpec` fields (``app_kwargs``, ``policy``,
    ``nodes``, ``seed``, ...; its defaults otherwise).  All trace kinds
    are captured (``trace_kinds=None``), so the file contains the span
    layer plus the decision/migration events the analyzer correlates
    against.  The run itself is deterministic; only the trace meta line
    (backend name, kernel build hash) varies with the execution
    environment.
    """
    obs = ObsSpec(trace_path=out, trace_kinds=None)
    return run_spec(RunSpec(app=app, obs=obs, **fields))
