"""Sequential reference oracle for fuzzed episodes.

Replays the execution log a :class:`repro.apps.fromspec.SpecProgram`
produced against a plain (non-distributed) numpy heap and checks two
things field-for-field against the simulated run:

* every **read observation** — the value a ``read``/``ship_add`` saw on
  the DSM must equal the value the sequential replay computes at the
  same point in the log;
* the **final heap** — the authoritative home copy of every object
  after the run must equal the replayed heap.

Why replaying the log is sound: fuzzed programs are data-race-free by
construction (:mod:`repro.check.fuzz`), so all conflicting accesses to
one object are ordered by happens-before (lock tenure or barrier), and
the deterministic simulator's execution order — the order the log is
appended in — is a legal linearization of that partial order.  Under
LRC the unique legal outcome of a DRF program is the outcome of that
linearization.  The replay performs the *same numpy float64 operations
in the same order* as the application, so comparisons are exact
(``==``, with NaN == NaN), never epsilon-based: any discrepancy is a
coherence bug (a lost diff, a stale read, a mis-versioned home copy),
not floating-point noise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.fuzz import ProgramSpec


def reference_heap(spec: "ProgramSpec") -> dict[str, np.ndarray]:
    """Fresh sequential heap holding every object's initial data."""
    return {
        o.name: np.array(o.init, dtype=np.float64) for o in spec.objects
    }


def apply_op(heap: dict[str, np.ndarray], op: tuple) -> float | None:
    """Apply one logged op to the reference heap.

    Returns the value the op observes (``read``/``ship_add``) or ``None``
    for pure writes.  Mirrors the op execution inlined in
    ``SpecProgram.thread_body`` expression for expression so results are
    bit-identical.
    """
    kind = op[0]
    arr = heap[op[1]]
    if kind == "read":
        return float(arr[op[2]])
    if kind == "set":
        arr[op[2]] = op[3]
        return None
    if kind == "add":
        arr[op[2]] += op[3]
        return None
    if kind == "scale":
        arr[op[2]] = op[3] * arr[op[2]] + op[4]
        return None
    if kind == "copy":
        arr[op[2]] = arr[op[3]] + op[4]
        return None
    if kind == "ship_add":
        arr[op[2]] += op[3]
        return float(arr[op[2]])
    raise ValueError(f"unknown op kind {kind!r}")


def _same_scalar(a: float, b: float) -> bool:
    """Exact equality, treating NaN as equal to NaN."""
    return a == b or (a != a and b != b)


def replay(
    spec: "ProgramSpec",
    log: list[tuple[int, tuple, float | None]],
) -> tuple[dict[str, np.ndarray], list[str]]:
    """Replay the execution log; return (final reference heap, violations).

    A violation is recorded for every read observation that disagrees
    with the sequential replay.
    """
    heap = reference_heap(spec)
    violations: list[str] = []
    for step, (tid, op, observed) in enumerate(log):
        expected = apply_op(heap, op)
        if expected is None:
            continue
        if observed is None or not _same_scalar(observed, expected):
            violations.append(
                f"oracle: step {step} thread {tid} {op[0]} on "
                f"{op[1]}[{op[2]}] observed {observed!r}, expected "
                f"{expected!r}"
            )
    return heap, violations


def check_episode(
    spec: "ProgramSpec",
    log: list[tuple[int, tuple, float | None]],
    final_heap: dict[str, np.ndarray] | None,
) -> list[str]:
    """Full oracle verdict for one episode.

    Replays the log (checking every observation) and then compares the
    simulated final heap — the home copies ``SpecProgram.finalize``
    gathered — field-for-field against the replayed reference heap.
    ``final_heap=None`` (the run crashed) skips the final comparison;
    the crash itself is reported by the episode runner.
    """
    heap, violations = replay(spec, log)
    if final_heap is None:
        return violations
    for o in spec.objects:
        ref = heap[o.name]
        actual = np.asarray(final_heap[o.name], dtype=np.float64)
        if np.array_equal(ref, actual, equal_nan=True):
            continue
        for i in range(o.length):
            if not _same_scalar(float(actual[i]), float(ref[i])):
                violations.append(
                    f"oracle: final heap {o.name}[{i}] simulated "
                    f"{float(actual[i])!r} != reference {float(ref[i])!r}"
                )
    return violations
