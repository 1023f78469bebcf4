"""Protocol conformance harness: fuzzer, oracle, invariants, mutations.

The generative correctness layer of the reproduction
(``docs/PROTOCOL.md`` §13).  A single integer seed expands into a
random data-race-free DSM program (:mod:`repro.check.fuzz`), which runs
on the simulated cluster while a runtime invariant checker replays
protocol state machines from the live trace stream
(:mod:`repro.check.invariants`); afterwards a sequential oracle replays
the execution log and compares every observation and the final heap
field-for-field (:mod:`repro.check.oracle`).  A mutation self-test
(:mod:`repro.check.mutations`) flips single protocol decisions and
asserts the harness catches each one.

Entry points: ``python -m repro.bench check --episodes N --seed S`` on
the command line, :func:`repro.check.runner.run_check` from code.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".fuzz": [
        "ObjectSpec", "ProgramSpec", "SectionSpec", "episode_seeds",
        "generate_program",
    ],
    ".invariants": ["InvariantChecker"],
    ".mutations": ["MUTATION_NAMES", "apply_mutation"],
    ".runner": [
        "CheckReport", "EpisodeResult", "run_check", "run_episode",
        "run_self_test",
    ],
})
