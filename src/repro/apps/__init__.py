"""The paper's evaluation applications (§5.1) and synthetic benchmark (§5.2).

* :class:`~repro.apps.asp.Asp` — all-pairs shortest paths, parallel Floyd;
* :class:`~repro.apps.sor.Sor` — red-black successive over-relaxation;
* :class:`~repro.apps.nbody.NBody` — Barnes–Hut gravitational N-body;
* :class:`~repro.apps.tsp.Tsp` — branch-and-bound travelling salesman;
* :class:`~repro.apps.lu.Lu` — blocked LU factorisation (beyond-paper
  application with a shrinking single-writer pattern);
* :class:`~repro.apps.pingpong.TokenRing` — migratory-data ring
  (beyond-paper; the sequential-writers pathology of §2);
* :class:`~repro.apps.synthetic.SingleWriterBenchmark` — the Figure-4
  skeleton: a shared counter updated ``r`` consecutive times per lock
  tenure, the knob that sweeps transient vs lasting single-writer
  patterns;
* :class:`~repro.apps.fromspec.SpecProgram` — executes a fuzzed
  episode spec from :mod:`repro.check.fuzz` (the conformance harness's
  program-from-spec runner);
* :mod:`repro.apps.serving` — the request-driven serving workload tier:
  deterministic Zipfian request traffic over a keyed store
  (:class:`~repro.apps.serving.ServingSpec`), compiled to ProgramSpecs
  so every serving run is replayable and oracle-checkable.

All applications compute *real results* on the simulated DSM and are
verified against sequential oracles.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".asp": ["Asp"],
    ".base": ["DsmApplication"],
    ".fromspec": ["SpecProgram"],
    ".lu": ["Lu"],
    ".nbody": ["NBody"],
    ".pingpong": ["TokenRing"],
    ".serving": ["ServingSpec", "ZipfSampler", "build_serving_program"],
    ".sor": ["Sor"],
    ".synthetic": ["SingleWriterBenchmark"],
    ".tsp": ["Tsp"],
})
