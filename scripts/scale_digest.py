#!/usr/bin/env python
"""Digest-pinned episodes (CI hard gates).

``scale`` (the default): one short ASP run at 256 nodes exercising the
whole scale-tier feature stack at once — fat-tree topology with serialized
uplink contention, the k-ary barrier-release relay, and the sharded
home-manager directory.  ``fig4``: the paper's Figure-4/5 single-writer
pattern at 16 nodes under the adaptive threshold, transient (r = 2) then
lasting (r = 16) — every lock hand-off, diff flush, migration handshake
and redirect chain of the headline experiment.

Each is hashed over its deterministic outcome: every `RunOutcome` field
except the wall clock, telemetry and backend name, and — as in the
determinism and homeless digests — except ``events_processed``, the
engine's internal event count, which is not part of the deterministic
contract (docs/PROTOCOL.md §11).  The digests are
pinned below; both backends must reproduce them bit for bit, so CI runs
this under ``REPRO_BACKEND=python`` and ``compiled`` as the larger twins
of the 4-node determinism digest in ``tests/test_determinism_digest.py``.

The same run also gates host memory (DESIGN.md §6.13): starting from a
clean slate, with the episode's result still referenced, CPython's
cyclic collector must find no unreachable object (the episode allocated
no reference cycle), and no collection may start while the episode runs
— the N = 256 counterpart of ``tests/test_gc_quiet.py``.

Usage:
    PYTHONPATH=src python scripts/scale_digest.py [--episode fig4]         # verify (exit 1 on drift)
    PYTHONPATH=src python scripts/scale_digest.py [--episode fig4] --pin   # print the current digest
"""

import argparse
import gc
import hashlib
import json
import sys

from repro.bench.executor import RunSpec, run_spec
from repro.gos.jvm import DistributedJVM

#: name -> (the pinned episode, sha256 over the canonical JSON of
#: ``run_spec(spec).deterministic()`` minus ``events_processed``).  Behaviour changes to any path an
#: episode exercises require an explicit re-pin here.
EPISODES = {
    "scale": (
        RunSpec(
            app="asp",
            app_kwargs={"size": 256},
            policy="AT",
            nodes=256,
            mechanism="home-manager:shards=8",
            topology="fat-tree:edge=16:pod=4:oversub=2:contention=1",
            release_fanout=4,
            verify=True,
            tag="scale-digest",
        ),
        "51102d659c1477b39a8c9a21049ca4c0314fe0e34d5e3d7ed540579f6371a141",
    ),
    "fig4": (
        RunSpec(
            app="synthetic",
            app_kwargs={"schedule": [(32837, 2), (32699, 16)]},
            policy="AT",
            nodes=16,
            seed=0,
            verify=False,
        ),
        "e1b433ee0563f3329ca050040a37fbb5dccb7adc405bf0f69a1bbbbd134be6a8",
    ),
}


#: The frame an episode's events run under.
EPISODE_CODE = DistributedJVM._run.__code__


class CollectorWatch:
    """``gc.callbacks`` hook: collections started under the episode's
    frame, and unreachable objects found by any collection."""

    def __init__(self) -> None:
        self.inside = 0
        self.unreachable = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not EPISODE_CODE:
                frame = frame.f_back
            self.inside += frame is not None
        else:
            self.unreachable += info["collected"] + info["uncollectable"]


def watched_digest(spec: RunSpec) -> tuple[str, CollectorWatch]:
    """Run ``spec`` once from a clean slate under a collector watch that
    ends with a full collection while the episode's result is still held
    (``run_spec`` alone would drop it); return the digest and the watch."""
    kept = []
    run = DistributedJVM.run

    def keeping(self, app, nthreads=None):
        kept.append(run(self, app, nthreads))
        return kept[-1]

    DistributedJVM.run = keeping
    gc.collect()
    watch = CollectorWatch()
    gc.callbacks.append(watch)
    try:
        outcome = run_spec(spec).deterministic()
        del outcome["events_processed"]
        gc.collect()
    finally:
        gc.callbacks.remove(watch)
        DistributedJVM.run = run
    blob = json.dumps(outcome, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest(), watch


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episode", choices=sorted(EPISODES), default="scale")
    parser.add_argument(
        "--pin",
        action="store_true",
        help="print the current digest instead of verifying",
    )
    args = parser.parse_args()
    spec, expected = EPISODES[args.episode]
    digest, watch = watched_digest(spec)
    if args.pin:
        print(digest)
        return 0
    failed = False
    if digest != expected:
        print(
            f"{args.episode} digest drift:\n  expected {expected}\n"
            f"  got      {digest}",
            file=sys.stderr,
        )
        failed = True
    if watch.unreachable or watch.inside:
        print(
            f"{args.episode} collector gate: {watch.unreachable} unreachable "
            f"objects (an episode reference cycle), {watch.inside} "
            f"collections started inside the episode; both must be 0",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(f"{args.episode} digest ok: {digest}; collector gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
