"""Benchmark harness: regenerates every figure of the paper's evaluation.

* :mod:`repro.bench.figure2` — execution time vs processors, HM vs NoHM,
  four applications (paper Figure 2);
* :mod:`repro.bench.figure3` — AT-over-FT improvement vs problem size on
  8 nodes for ASP and SOR (paper Figure 3);
* :mod:`repro.bench.figure5` — normalized execution time and message
  breakdown vs single-writer repetition for NM/FT1/FT2/AT (paper
  Figure 5a/5b);
* :mod:`repro.bench.ablation` — extensions beyond the paper: notification
  mechanisms, related-work policies, threshold-parameter sensitivity;
* :mod:`repro.bench.executor` — declarative :class:`RunSpec` sweeps fanned
  out over a process pool (every driver takes ``jobs=N`` and optional
  ``obs=``/``progress=`` telemetry hooks);
* :mod:`repro.bench.analyze` — the offline reader of saved JSONL traces
  (the CLI's ``analyze`` target);
* :mod:`repro.bench.cli` — ``python -m repro.bench <target> [flags]``,
  one subparser per target (installed as ``repro-bench``).

Every driver returns plain dicts (JSON-friendly) and can render an ASCII
table via :mod:`repro.bench.report`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".executor": ["ObsSpec", "RunOutcome", "RunSpec", "default_jobs", "execute"],
    ".runner": ["run_once"],
    "repro.core.policies": ["POLICIES", "make_policy"],
})
