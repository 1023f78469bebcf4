"""The virtual-time pins: one manifest, one gate.

The reproduction's result is its virtual time — the paper's figures and
the Eq-2 migration traces — so every deterministic output that stands
for it is pinned here, once.  ``PINS`` maps a pin's name to its producer
(a function that runs the pinned episode in-process on the active
backend and returns its value) and the expected value:

* ``determinism`` — ASP, size 64, AT, 4 nodes, forwarding pointers: the
  ``ClusterStats`` snapshot, final simulated time and every home
  migration;
* ``homeless`` — the homeless baseline: SOR (barriers, multi-writer diff
  fetches), ASP with the global diff GC forced on, TSP (locks);
* ``serving_parity`` — a churned 64-node serving episode over a fat
  tree: its SLO-report digest;
* ``scale`` — ASP at 256 nodes over a contended fat tree, the k-ary
  release relay and the sharded home manager;
* ``fig4`` — the paper's Figure-4/5 single-writer pattern at 16 nodes,
  transient (r = 2) then lasting (r = 16);
* ``serve_put_256`` — the cost ledger's 256-node write-heavy serving
  episode at seed 0: its SLO-report digest;
* ``bench_quick`` — the bytes of ``results/bench_quick.json`` and
  ``.txt`` (``python -m repro.bench all``), the outputs EXPERIMENTS.md
  quotes.

Each producer also asserts what makes its pin meaningful: the pinned
run migrates, the GC leg collects, and the scale and fig4 episodes
allocate no reference cycle and start no collection while they run
(DESIGN.md §6.13).  Episode digests leave out ``events_processed``, the
engine's internal event count, which is not part of the deterministic
contract (docs/PROTOCOL.md §11).

Tier-1 runs every pin on the active backend (``test_pin``).  Run as a
script, the module checks every pin under each backend, one subprocess
per backend, prints name / backend / expected / got / seconds and exits
1 on any drift; ``--pin NAME`` prints NAME's current value on the active
backend::

    PYTHONPATH=src python tests/test_pins.py
    PYTHONPATH=src python tests/test_pins.py --pin scale

Re-pin only for an intended behaviour change, and say so.  The
``bench_quick`` pin is re-pinned by regenerating the files:
``python -m repro.bench all --json results/bench_quick.json >
results/bench_quick.txt``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import tempfile
import time
import traceback
from functools import partial

import pytest

from repro.apps import Asp
from repro.apps.serving import ServingSpec
from repro.bench import cli
from repro.bench.executor import RunSpec, run_spec
from repro.bench.serving import report_digest, run_serving
from repro.cluster.hockney import FAST_ETHERNET
from repro.cluster.message import MsgCategory
from repro.core.policies import make_policy
from repro.dsm.redirection import make_mechanism
from repro.gos import homeless as gos_homeless
from repro.gos.jvm import DistributedJVM
from repro.trace.recorder import TraceRecorder
from tests.test_gc_quiet import watched

BACKENDS = ("python", "compiled")
RESULTS = ROOT / "results"


def digest(payload) -> str:
    """sha256 over the canonical JSON of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def outcome(spec: RunSpec) -> dict:
    """``run_spec(spec)``'s deterministic outcome, less the event count."""
    blob = run_spec(spec).deterministic()
    del blob["events_processed"]
    return blob


# -- producers ----------------------------------------------------------------


def determinism_payload(tracer) -> dict:
    """Stats, final time and migrations of the pinned ASP/AT/4 run."""
    jvm = DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=make_policy("AT"),
        mechanism=make_mechanism("forwarding-pointer"),
        tracer=tracer,
    )
    result = jvm.run(Asp(size=64))
    Asp(size=64).verify(result.output)
    migrations = [
        [
            event.time_us,
            event.oid,
            event.node,
            event.detail.get("old_home"),
            event.detail.get("new_home"),
        ]
        for event in tracer.migrations()
    ]
    return {
        "stats": result.stats.snapshot(),
        "time_us": result.execution_time_us,
        "migrations": migrations,
    }


def determinism() -> str:
    payload = determinism_payload(TraceRecorder(kinds=("migration",)))
    assert payload["migrations"], "the pinned run is expected to migrate homes"
    return digest(payload)


#: Retained-diff budget small enough that the homeless ASP leg collects.
GC_THRESHOLD_BYTES = 2048


def homeless() -> str:
    def leg(app: str, **app_kwargs) -> dict:
        return outcome(
            RunSpec(
                app=app, app_kwargs=app_kwargs, nodes=4, protocol="homeless"
            )
        )

    sor = leg("sor", size=32, iterations=4)
    tsp = leg("tsp", cities=7)
    # The object space is resolved at run time, so a partial with the
    # threshold bound reaches DistributedJVM without a new spec field.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            gos_homeless,
            "HomelessObjectSpace",
            partial(
                gos_homeless.HomelessObjectSpace,
                gc_threshold_bytes=GC_THRESHOLD_BYTES,
            ),
        )
        asp = leg("asp", size=32)
    assert asp["events"].get("homeless_gc", 0) > 0, "the GC leg must collect"
    assert asp["msg_count"].get(MsgCategory.CONTROL.value, 0) > 0
    assert tsp["msg_count"].get(MsgCategory.LOCK_GRANT.value, 0) > 0
    assert sor["msg_count"].get(MsgCategory.BARRIER_RELEASE.value, 0) > 0
    return digest([sor, asp, tsp])


def collector_quiet(spec: RunSpec) -> str:
    """Digest of ``spec``'s outcome, run under a collector watch from a
    clean slate to a full collection while its result is still held:
    the episode must allocate no reference cycle and start no collection
    while its events run."""
    kept = []
    run = DistributedJVM.run

    def keeping(self, app, nthreads=None):
        kept.append(run(self, app, nthreads))
        return kept[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DistributedJVM, "run", keeping)
        with watched() as watch:
            value = digest(outcome(spec))
    assert not watch.unreachable and not watch.inside, (
        f"collector gate: {watch.unreachable} unreachable objects (an "
        f"episode reference cycle), collections of generations "
        f"{watch.inside} started inside the episode; both must be none"
    )
    return value


def serving(**fields) -> str:
    return report_digest(run_serving(ServingSpec(**fields)))


def bench_quick() -> str:
    """``python -m repro.bench all --json …`` run in-process into a temp
    dir; the ``--json`` path line of the text is the checked-in one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench_quick.json")
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert cli.main(["all", "--jobs", "1", "--json", path]) == 0
        with open(path, "rb") as handle:
            raw = handle.read()
    txt = text.getvalue().replace(path, "results/bench_quick.json")
    return files_digest(raw, txt.encode())


def files_digest(*blobs: bytes) -> str:
    return digest([hashlib.sha256(blob).hexdigest() for blob in blobs])


#: name -> (producer, expected value).
PINS = {
    "determinism": (
        determinism,
        "05a9d3183dedc867faded32b8a4d538ad8a836397fa01db3aef2fe1be2d06302",
    ),
    "homeless": (
        homeless,
        "821f54ada46d261b11c41dc5a82146a862ae549af8a19367d2de37ad1abc961e",
    ),
    "serving_parity": (
        partial(
            serving, seed=0, nodes=64, keys=96, phases=3,
            requests_per_thread=4, churn=0.125, policy="AT",
            topology="fat-tree:edge=8:pod=2:oversub=2",
        ),
        "fa4c2938a6b8baf7f569ae2654d3d3e84a0f12dd001a08af0ab77d27587216a8",
    ),
    "scale": (
        partial(
            collector_quiet,
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
        ),
        "51102d659c1477b39a8c9a21049ca4c0314fe0e34d5e3d7ed540579f6371a141",
    ),
    "fig4": (
        partial(
            collector_quiet,
            RunSpec(
                app="synthetic",
                app_kwargs={"schedule": [(32837, 2), (32699, 16)]},
                policy="AT",
                nodes=16,
                seed=0,
                verify=False,
            ),
        ),
        "e1b433ee0563f3329ca050040a37fbb5dccb7adc405bf0f69a1bbbbd134be6a8",
    ),
    "serve_put_256": (
        partial(
            serving, seed=0, nodes=256, keys=512, phases=4,
            requests_per_thread=32, read_fraction=0.1, churn=0.125,
            policy="AT",
            topology="fat-tree:edge=16:pod=4:oversub=2:contention=1",
        ),
        "0e7d782da66a5f5067f2ec888787af6b61c1b32f213560dbefb908c47cb27d3d",
    ),
    "bench_quick": (
        bench_quick,
        files_digest(
            (RESULTS / "bench_quick.json").read_bytes(),
            (RESULTS / "bench_quick.txt").read_bytes(),
        ),
    ),
}


# -- tier-1 -------------------------------------------------------------------


@pytest.mark.parametrize("name", PINS)
def test_pin(name):
    produce, expected = PINS[name]
    assert produce() == expected, (
        f"pin {name} drifted on the active backend; re-pin only for an "
        f"intended behaviour change"
    )


def test_determinism_stable_across_repeats():
    """Two in-process runs give one digest (no hidden global state leaks
    between simulations)."""
    assert determinism() == determinism()


FAKE = {"fake": (lambda: "abc", "abc")}


def test_runner_exits_0_when_every_pin_holds(capsys):
    assert compare(FAKE, {"python": measured(FAKE)}) == 0
    assert "drift" not in capsys.readouterr().out.lower()


def test_runner_exits_1_and_names_the_drifted_pin(capsys):
    drifted = {"fake": (lambda: "abc", "abd")}
    assert compare(drifted, {"python": measured(drifted)}) == 1
    assert "fake drift under python" in capsys.readouterr().out


def test_runner_pin_prints_the_produced_value(capsys):
    assert main(["--pin", "fake"], pins=FAKE) == 0
    assert capsys.readouterr().out == "abc\n"


# -- the runner ---------------------------------------------------------------


def measured(pins):
    """``(name, value, seconds)`` of every pin on the active backend; a
    producer that raises yields its error as the value."""
    for name, (produce, _) in pins.items():
        start = time.perf_counter()
        try:
            value = produce()
        except Exception as exc:  # a failed producer is one drifted pin
            traceback.print_exc()
            value = f"error: {type(exc).__name__}: {exc}"
        yield name, value, time.perf_counter() - start


def emit() -> None:
    """One JSON line per pin (the per-backend subprocess's side)."""
    for row in measured(PINS):
        print(json.dumps(row), flush=True)


def spawned(backend: str):
    """The rows of one subprocess that measures every pin on ``backend``."""
    env = dict(
        os.environ,
        REPRO_BACKEND=backend,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    with subprocess.Popen(
        [sys.executable, "-c", "from tests.test_pins import emit; emit()"],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        for line in child.stdout:
            yield json.loads(line)
    if child.returncode:
        print(f"{backend} runner exited {child.returncode}")


def compare(pins, runs) -> int:
    """Print one row per pin and backend; 1 if any pin drifted or is
    missing, else 0.  ``runs`` maps a backend to its rows."""
    failed = []
    print(f"{'pin':<15} {'backend':<9} {'expected':<17} {'got':<17} seconds")
    for backend, rows in runs.items():
        seen = set()
        for name, value, seconds in rows:
            seen.add(name)
            expected = pins[name][1]
            mark = "" if value == expected else "  DRIFT"
            print(
                f"{name:<15} {backend:<9} {expected[:16]:<17} "
                f"{value[:16]:<17} {seconds:7.2f}{mark}",
                flush=True,
            )
            if mark:
                failed.append((name, backend, expected, value))
        failed += [
            (name, backend, pins[name][1], "missing")
            for name in pins
            if name not in seen
        ]
    for name, backend, expected, value in failed:
        print(
            f"{name} drift under {backend}:\n  expected {expected}\n"
            f"  got      {value}"
        )
    return 1 if failed else 0


def main(argv=None, pins=PINS) -> int:
    parser = argparse.ArgumentParser(
        description="Check every virtual-time pin under each backend."
    )
    parser.add_argument(
        "--pin",
        choices=sorted(pins),
        help="print this pin's current value on the active backend",
    )
    args = parser.parse_args(argv)
    if args.pin:
        print(pins[args.pin][0]())
        return 0
    return compare(pins, {backend: spawned(backend) for backend in BACKENDS})


if __name__ == "__main__":
    sys.exit(main())
