#!/usr/bin/env python
"""Digest-pinned episodes (CI hard gates).

``scale`` (the default): one short ASP run at 256 nodes exercising the
whole scale-tier feature stack at once — fat-tree topology with serialized
uplink contention, the k-ary barrier-release relay, and the sharded
home-manager directory.  ``fig4``: the paper's Figure-4/5 single-writer
pattern at 16 nodes under the adaptive threshold, transient (r = 2) then
lasting (r = 16) — every lock hand-off, diff flush, migration handshake
and redirect chain of the headline experiment.

Each is hashed over its deterministic outcome (every `RunOutcome` field
except the wall clock, telemetry and backend name).  The digests are
pinned below; both backends must reproduce them bit for bit, so CI runs
this under ``REPRO_BACKEND=python`` and ``compiled`` as the larger twins
of the 4-node determinism digest in ``tests/test_determinism_digest.py``.

Usage:
    PYTHONPATH=src python scripts/scale_digest.py [--episode fig4]         # verify (exit 1 on drift)
    PYTHONPATH=src python scripts/scale_digest.py [--episode fig4] --pin   # print the current digest
"""

import argparse
import hashlib
import json
import sys

from repro.bench.executor import RunSpec, run_spec

#: name -> (the pinned episode, sha256 over the canonical JSON of
#: ``run_spec(spec).deterministic()``).  Behaviour changes to any path an
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
        "cae4855ae141767984d62db90b2d0600a3f91868e7dcdadc874e5daa9674144f",
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
        "dbe45d267d6384cbfd1f23e479facefe65b2ad3516815150cf16156a9a351c72",
    ),
}


def episode_digest(spec: RunSpec) -> str:
    outcome = run_spec(spec).deterministic()
    blob = json.dumps(outcome, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


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
    digest = episode_digest(spec)
    if args.pin:
        print(digest)
        return 0
    if digest != expected:
        print(
            f"{args.episode} digest drift:\n  expected {expected}\n"
            f"  got      {digest}",
            file=sys.stderr,
        )
        return 1
    print(f"{args.episode} digest ok: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
