"""Conformance episode runner: fuzz → simulate → oracle + invariants.

:func:`run_episode` executes one :class:`~repro.check.fuzz.ProgramSpec`
(generated from a seed or crafted) on a fresh simulated cluster with a
full trace subscription, then renders a verdict from three sources:

* the **runtime invariant checker** fed online from the trace stream;
* the **sequential oracle** replaying the execution log;
* any **crash** of the run itself (an engine exception).

:func:`run_check` drives a whole `repro check` session: ``episodes``
fuzzed episodes derived from one base seed, plus the mutation
self-test (each built-in mutation must be *caught*, and its crafted
episode must be *clean* when unmutated).  Verdicts serialize
canonically so equal seeds produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.fromspec import SpecProgram
from repro.check import oracle
from repro.check.fuzz import ProgramSpec, episode_seeds, generate_program
from repro.check.invariants import InvariantChecker
from repro.check.mutations import (
    MUTATION_NAMES,
    apply_mutation,
    mutation_spec,
)
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.jvm import DistributedJVM


@dataclass
class EpisodeResult:
    """Everything one episode produced, verdict included."""

    seed: int
    spec: ProgramSpec
    oracle_violations: list[str] = field(default_factory=list)
    invariant_violations: list[str] = field(default_factory=list)
    run_error: str | None = None
    mutation: str | None = None
    ops: int = 0
    migrations: int = 0
    events: int = 0

    @property
    def ok(self) -> bool:
        """True when the episode ran clean: no violations, no crash."""
        return (
            not self.oracle_violations
            and not self.invariant_violations
            and self.run_error is None
        )

    @property
    def flagged(self) -> bool:
        """True when the checkers (not a crash alone) caught something."""
        return bool(self.oracle_violations or self.invariant_violations)

    def verdict(self) -> dict:
        """Canonical plain-data verdict (byte-stable via ``sort_keys``)."""
        return {
            "seed": self.seed,
            "mutation": self.mutation,
            "ok": self.ok,
            "oracle_violations": list(self.oracle_violations),
            "invariant_violations": list(self.invariant_violations),
            "run_error": self.run_error,
            "ops": self.ops,
            "migrations": self.migrations,
            "events": self.events,
        }


def run_episode(
    seed: int | None = None,
    spec: ProgramSpec | None = None,
    mutation: str | None = None,
    flavor: str = "core",
) -> EpisodeResult:
    """Run one episode and return its verdict.

    Pass ``seed`` to fuzz the program, or ``spec`` to run a crafted one
    (exactly one of the two).  ``mutation`` installs one of the built-in
    protocol mutations for the duration of the run.  ``flavor`` picks
    the generator family for fuzzed episodes (``core``, ``serving`` or
    ``mixed``; see :data:`repro.check.fuzz.FLAVORS`).
    """
    if (seed is None) == (spec is None):
        raise ValueError("pass exactly one of seed= or spec=")
    if spec is None:
        spec = generate_program(seed, flavor=flavor)
    program = SpecProgram(spec)
    checker = InvariantChecker(
        nnodes=spec.nnodes,
        policy_name=spec.policy_name,
        policy_params=spec.policy_params,
    )
    jvm = DistributedJVM(
        nodes=spec.nnodes,
        comm_model=FAST_ETHERNET,
        policy=spec.build_policy(),
        mechanism=spec.build_mechanism(),
        tracer=checker,
        lock_discipline=spec.lock_discipline,
        seed=spec.seed,
    )
    final_heap = None
    run_error = None
    migrations = 0
    with apply_mutation(mutation):
        try:
            result = jvm.run(program, nthreads=spec.nthreads)
            final_heap = result.output
            migrations = result.migrations
        except Exception as exc:  # a mutated run may legally crash
            run_error = f"{type(exc).__name__}: {exc}"
    if run_error is None:
        # a crashed run legitimately leaves transfers in flight; only a
        # quiescent run owes the end-of-run invariants
        checker.finish()
    oracle_violations = oracle.check_episode(
        spec, program.execution_log, final_heap
    )
    return EpisodeResult(
        seed=spec.seed,
        spec=spec,
        oracle_violations=oracle_violations,
        invariant_violations=list(checker.violations),
        run_error=run_error,
        mutation=mutation,
        ops=len(program.execution_log),
        migrations=migrations,
        events=checker.events_seen,
    )


@dataclass
class CheckReport:
    """Aggregate verdict of a `repro check` session."""

    base_seed: int
    episodes: list[EpisodeResult] = field(default_factory=list)
    #: mutation name -> (clean unmutated, caught mutated)
    self_test: dict[str, tuple[bool, bool]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Green iff every episode is clean and every mutation is caught."""
        return all(e.ok for e in self.episodes) and all(
            clean and caught for clean, caught in self.self_test.values()
        )

    def to_dict(self) -> dict:
        """Canonical plain-data report (the corpus summary artifact)."""
        return {
            "base_seed": self.base_seed,
            "ok": self.ok,
            "episodes": [e.verdict() for e in self.episodes],
            "self_test": {
                name: {"clean_unmutated": clean, "caught_mutated": caught}
                for name, (clean, caught) in sorted(self.self_test.items())
            },
        }

    def to_json(self) -> str:
        """Byte-stable JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def run_self_test() -> dict[str, tuple[bool, bool]]:
    """Prove the harness has teeth: each built-in mutation's crafted
    episode must be clean unmutated and flagged mutated."""
    outcome: dict[str, tuple[bool, bool]] = {}
    for name in MUTATION_NAMES:
        baseline = run_episode(spec=mutation_spec(name))
        mutated = run_episode(spec=mutation_spec(name), mutation=name)
        outcome[name] = (baseline.ok, mutated.flagged)
    return outcome


def run_check(
    episodes: int,
    base_seed: int,
    corpus_dir: str | Path | None = None,
    self_test: bool = True,
    progress=None,
    flavor: str = "core",
) -> CheckReport:
    """Run a full conformance session.

    ``corpus_dir`` (optional) receives one ``episode-<n>.json`` per
    episode — the program spec plus its verdict, enough to replay any
    failure offline — and a ``report.json`` summary.  ``progress`` is an
    optional callable invoked with each finished :class:`EpisodeResult`.
    ``flavor`` selects the episode generator family for every fuzzed
    episode of the session (``core``/``serving``/``mixed``).
    """
    report = CheckReport(base_seed=base_seed)
    out = Path(corpus_dir) if corpus_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for index, seed in enumerate(episode_seeds(base_seed, episodes)):
        result = run_episode(seed=seed, flavor=flavor)
        report.episodes.append(result)
        if out is not None:
            payload = {
                "index": index,
                "program": result.spec.to_dict(),
                "verdict": result.verdict(),
            }
            path = out / f"episode-{index:04d}.json"
            path.write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n"
            )
        if progress is not None:
            progress(result)
    if self_test:
        report.self_test = run_self_test()
    if out is not None:
        (out / "report.json").write_text(report.to_json() + "\n")
    return report
