"""Compatibility of the compact serving layout.

A serving request is one :class:`~repro.check.fuzz.SectionSpec` whose
``think_us`` carries its arrival gap, and the execution log is the
columnar :class:`~repro.check.oracle.ExecutionLog`.  These tests pin
that neither changed anything observable:

* core-flavour specs serialize to the same bytes as before ``think_us``
  existed (the field is written only when non-zero);
* a spec with think time survives ``to_dict``/``from_dict``;
* the older layout — each gap a zero-op compute section before its
  request — still replays, to the same SLO report and execution log;
* the columnar log yields exactly the triples a list would hold;
* serving traffic expands to the same bytes as when every draw went
  through ``randrange``/``randint``/``choice``;
* a spec stores each thread's sections of a phase packed into columns
  (:class:`~repro.check.fuzz.PackedSections`), which read back as the
  list of rows they were given and serialize to the same bytes.
"""

import dataclasses
import hashlib
import math
import struct

import pytest

from repro import DistributedJVM
from repro.apps.fromspec import SpecProgram
from repro.apps.serving import (
    ServingSpec,
    build_serving_program,
    generate_serving_program,
    quiet_nodes,
)
from repro.bench import serving as serving_bench
from repro.check.fuzz import (
    PackedSections,
    ProgramSpec,
    SectionSpec,
    generate_program,
)
from repro.check.mutations import MUTATION_NAMES, mutation_spec
from repro.check.oracle import ExecutionLog, check_episode

#: sha256 of ``generate_program(seed).to_json()`` for core seeds 0-4,
#: taken before ``SectionSpec.think_us`` existed.
CORE_JSON_SHA256 = {
    0: "c50f817170089dd7ad59a18efc0cb0ce45b48cafabc4b161b6af628883fc3081",
    1: "ada51f78cf5124b7c6b6cf6874b89608afb697fc3952f07d69cbc437184a52bc",
    2: "6e41a053be4bdbb22493e73282c82a4fbf2026de1a9d95b3b4567991c6226ac4",
    3: "646bd781d4d9d483b9dd504513e16eeceed26471d138e9bb4eeeb5b6e42e62be",
    4: "cb526d057e311e6ee58f2103ea4af346326bbec0709bc65b4ea05fe939b37222",
}

#: Two serving episodes, one open-loop and one closed-loop with churn
#: and retry locks, with the sha256 of their JSON in the gap-section
#: layout that preceded ``think_us``.
GAP_LAYOUT_SHA256 = [
    (
        ServingSpec(seed=0, nodes=3, keys=6, arrival="open"),
        "d70ec7c2831894eee68fd2da37e2e12800ead0eb2b075ef28ef1b6399ce27a52",
    ),
    (
        ServingSpec(
            seed=1, nodes=4, keys=8, arrival="closed", churn=0.25,
            lock_discipline="retry",
        ),
        "9dcb1686dfe97a789425640a5cd4b8e8be8efcfe97c70bdcd874baec8b900e09",
    ),
]


#: sha256 of ``generate_serving_program(seed).to_json()`` for seeds
#: 0-9, taken while the request loop still drew through ``randrange``,
#: ``randint`` and ``choice`` (it now calls ``_randbelow`` directly, as
#: those do inside, so the bytes must not move on any interpreter).
SERVING_JSON_SHA256 = {
    0: "aef081cf12cb108611c6ce99c575722759e1ae349cf3cb0603c4db4426419398",
    1: "768ac233e4d50d43110957c666746e03d24bc3a3576afdef1a6408f42d0840bb",
    2: "e1943c71faf3a8a5260466772ff89477e52e99efc46714125a6063333ac28827",
    3: "1c01a9c2e8287828a445a1cac1492f4851063e56d1358fe179caf62bfd3b1760",
    4: "c7f7cb35ce8bcb11cd39b4b177ef76579d2c1b9b79719022510072b9c3ede363",
    5: "e491f00933fad6e552961bea5a0dd7cb8ddd1a8cff96bf25bc9f9987c83fd07e",
    6: "ec8eb8d3e7e9225eb5e337bfdc13976a3af78ee325ff012d3982590ab097dc48",
    7: "009625e46e0e475a35d26888ea226da12d93e618819c519f0d132b97619218dd",
    8: "b1e177f3f2a35312f5ea389609aa0f124bd5eca5a8e11c2c13e46e613cd5f8c6",
    9: "44dc542063429020e85de83904c778d1c6ea1004689f5870465c9b752a015f22",
}

#: The same pin for three hand-shaped episodes: the cost ledger's
#: 32-node serving shape at a read-heavy and a write-heavy mix (every
#: put kind and the ``choice`` of a scale factor), and a closed loop
#: over one-element keys (``randrange(1)`` still consumes a draw).
_LEDGER_SHAPE = dict(
    nodes=32, keys=64, phases=2, requests_per_thread=4, churn=0.125,
    policy="AT",
)
SERVING_SPEC_SHA256 = [
    (
        ServingSpec(seed=0, read_fraction=0.1, **_LEDGER_SHAPE),
        "97161ebf3987a45fd9ceb20592948acb2fe1c5a64b02130bee78c5ca58679182",
    ),
    (
        ServingSpec(seed=0, read_fraction=0.9, **_LEDGER_SHAPE),
        "bcc36b5b227c55a2225941a5abff72e6df7422e5a981b5ae5db2955815f5f580",
    ),
    (
        ServingSpec(seed=3, nodes=4, keys=6, key_len=1, arrival="closed"),
        "c2412cc4fda98980e604d5f52a9515c5a8a4e6b9d5cdb0eb981c5036c43faaa9",
    ),
]


def _sha(spec: ProgramSpec) -> str:
    return hashlib.sha256(spec.to_json().encode()).hexdigest()


def _gap_layout(spec: ProgramSpec) -> ProgramSpec:
    """``spec`` re-expanded the old way: every ``think_us`` becomes a
    zero-op compute section ahead of its (think-free) section."""
    phases = []
    for phase in spec.phases:
        phases.append([])
        for sections in phase:
            expanded = []
            for s in sections:
                if s.think_us > 0.0:
                    expanded.append(SectionSpec(None, [], s.think_us))
                expanded.append(
                    SectionSpec(s.lock, s.ops, s.compute_us, s.request)
                )
            phases[-1].append(expanded)
    return dataclasses.replace(spec, phases=phases)


def _run(spec: ProgramSpec):
    """Run a spec bare; return (execution log triples, result)."""
    program = SpecProgram(spec)
    jvm = DistributedJVM(spec.cluster)
    result = jvm.run(program, nthreads=spec.nthreads)
    assert check_episode(spec, program.execution_log, result.output) == []
    return list(program.execution_log), result


@pytest.mark.parametrize("seed", sorted(CORE_JSON_SHA256))
def test_core_spec_json_unchanged(seed):
    spec = generate_program(seed)
    assert _sha(spec) == CORE_JSON_SHA256[seed]
    assert ProgramSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("seed", sorted(SERVING_JSON_SHA256))
def test_serving_expansion_bytes_unchanged(seed):
    assert _sha(generate_serving_program(seed)) == SERVING_JSON_SHA256[seed]


@pytest.mark.parametrize(
    "sspec, sha", SERVING_SPEC_SHA256,
    ids=["ledger-put-heavy", "ledger-get-heavy", "closed-key-len-1"],
)
def test_shaped_serving_expansion_bytes_unchanged(sspec, sha):
    assert _sha(build_serving_program(sspec)) == sha


def test_think_time_round_trips():
    spec = build_serving_program(ServingSpec(seed=2, nodes=3, keys=6))
    assert any(
        s.think_us > 0.0
        for phase in spec.phases
        for sections in phase
        for s in sections
    )
    clone = ProgramSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.to_json() == spec.to_json()


@pytest.mark.parametrize(
    "sspec, sha", GAP_LAYOUT_SHA256, ids=["open", "closed-retry"]
)
def test_gap_layout_replays_identically(sspec, sha, monkeypatch):
    spec = build_serving_program(sspec)
    old = _gap_layout(spec)
    assert _sha(old) == sha

    log, result = _run(spec)
    old_log, old_result = _run(old)
    assert log == old_log
    assert result.execution_time_us == old_result.execution_time_us
    assert result.gos.sim.events_processed == (
        old_result.gos.sim.events_processed
    )

    digest = serving_bench.report_digest(serving_bench.run_serving(sspec))
    monkeypatch.setattr(
        serving_bench, "build_serving_program", lambda s: _gap_layout(
            build_serving_program(s)
        )
    )
    old_digest = serving_bench.report_digest(serving_bench.run_serving(sspec))
    assert digest == old_digest


def test_execution_log_yields_list_triples():
    nan = float("nan")
    rows = [
        (0, ("read", "a", 0), 1.5),
        (1, ("set", "a", 0, 2.0), None),
        (2, ("add", "a", 1, -1.0), None),
        (0, ("scale", "b", 0, 0.5, 1.0), None),
        (3, ("copy", "b", 1, 0, 0.0), None),
        (1, ("ship_add", "b", 0, 4.0), -0.0),
        (2, ("read", "b", 1), nan),
    ]
    log = ExecutionLog()
    for tid, op, observed in rows:  # as SpecProgram.thread_body fills it
        log.tids.append(tid)
        log.ops.append(op)
        log.observed.append(0.0 if observed is None else observed)
    assert len(log) == len(rows)
    got = list(log)
    for (tid, op, observed), (etid, eop, eobserved) in zip(got, rows):
        assert (tid, op) == (etid, eop)
        assert op is eop
        if eobserved is None:
            assert observed is None
        else:
            # bit-exact: keeps NaN and the sign of -0.0
            assert struct.pack("<d", observed) == struct.pack("<d", eobserved)
    assert math.copysign(1.0, got[5][2]) == -1.0
    assert math.isnan(got[6][2])


# -- the packed section storage ---------------------------------------------

def _rows() -> list[SectionSpec]:
    """Rows covering every column: owned and locked, ops and none,
    compute and think time, no request and two classes."""
    return [
        SectionSpec(0, [("read", "obj0", 0)]),
        SectionSpec(
            None, [("add", "obj0", 1, 2.0), ("read", "obj0", 1)], 20.0
        ),
        SectionSpec(1, [], 0.0, "put", 12.5),
        SectionSpec(None, [("scale", "obj0", 0, 0.5, -3.0)], 0.0, "get"),
        SectionSpec(2, [("set", "obj0", 0, 4.0)], 100.0, "put", 0.25),
    ]


def test_packed_rows_read_back_like_a_list():
    rows = _rows()
    packed = PackedSections.of(rows)
    assert len(packed) == len(rows)
    assert [packed[i] for i in range(len(rows))] == rows
    assert packed[-1] == rows[-1] and packed[-len(rows)] == rows[0]
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            packed[index]
    for sl in (slice(None), slice(1, 3), slice(None, None, -2), slice(7, 9)):
        assert packed[sl] == rows[sl]
    assert list(packed) == rows
    assert packed == rows and rows == packed
    assert packed != rows[:-1] and packed != rows[::-1]
    assert PackedSections.of(packed) == packed
    # the rows hold the caller's op tuples, not copies
    assert packed[1].ops[0] is rows[1].ops[0]
    with pytest.raises(ValueError, match="lock"):
        PackedSections.of([SectionSpec(-1, [])])


def test_crafted_spec_is_packed_and_equals_its_rows():
    rows = _rows()
    spec = ProgramSpec(
        seed=-1, nodes=2, nthreads=2, placement=[0, 1], policy="NM",
        policy_params={}, mechanism="forwarding-pointer", manager_node=0,
        lock_discipline="fifo", lock_homes=[0, 1, 0],
        phases=[[rows, []], [rows[2:], rows[:2]]],
    )
    assert all(
        type(sections) is PackedSections
        for phase in spec.phases
        for sections in phase
    )
    assert spec.phases == [[rows, []], [rows[2:], rows[:2]]]
    for name in MUTATION_NAMES:
        crafted = mutation_spec(name)
        assert {
            type(sections) for phase in crafted.phases for sections in phase
        } == {PackedSections}


@pytest.mark.parametrize(
    "spec",
    [
        generate_program(0),
        generate_program(3, flavor="serving"),
        build_serving_program(ServingSpec(seed=2, nodes=3, keys=6)),
        mutation_spec("skip_diff"),
    ],
    ids=["core", "fuzzed-serving", "think-time", "crafted"],
)
def test_from_dict_keeps_the_json_bytes(spec):
    text = spec.to_json()
    clone = ProgramSpec.from_dict(spec.to_dict())
    assert clone.to_json() == text
    assert clone == spec


def test_quiet_thread_has_no_sections():
    sspec = ServingSpec(seed=1, nodes=4, keys=8, churn=0.25, phases=2)
    spec = build_serving_program(sspec)
    for phase_no, phase in enumerate(spec.phases):
        for tid in quiet_nodes(sspec.nodes, phase_no, sspec.churn):
            assert phase[tid] == []
            assert [] == phase[tid]
            assert not phase[tid] and list(phase[tid]) == []
