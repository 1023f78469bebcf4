"""Tests of the cost ledger itself.

Run with ``python -m pytest benchmarks/ledger/test_ledger.py`` (not part
of the tier-1 ``tests/`` suite: the smoke test spawns ~25 interpreters).
"""

import json
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import ledger
import probes
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# -- calibration maths --------------------------------------------------------


def test_drift_correction_rescales_to_the_reference_speed():
    ref = ledger.CALIB_REF_S
    # at reference speed nothing changes
    assert ledger.drift_corrected(2.0, ref, ref) == pytest.approx(2.0)
    # host 25 % slower (calibration took 1.25x): the same work is billed less
    assert ledger.drift_corrected(2.5, 1.25 * ref, 1.25 * ref) == pytest.approx(2.0)
    # the factor is the mean of the two passes around the episode
    assert ledger.drift_corrected(2.2, ref, 1.2 * ref) == pytest.approx(2.0)


def test_drift_correction_rejects_a_dead_clock():
    with pytest.raises(ValueError):
        ledger.drift_corrected(1.0, 0.0, 0.0)


def test_calibration_runs_and_scales_with_rounds():
    short = min(ledger.calibrate(passes=3, rounds=2) for _ in range(3))
    long = min(ledger.calibrate(passes=3, rounds=40) for _ in range(3))
    assert 0.0 < short < long


def test_a_lap_is_rescaled_by_the_speed_sampled_during_it():
    # host at 80 % of the reference speed: 2.5 s of CPU did 2.0 s of work
    assert ledger.Lap(cpu_s=2.5, speed=0.8, sampler_s=0.3).adjusted_s == pytest.approx(2.0)


def test_sampler_bills_its_own_passes_to_nobody():
    sampler = ledger.SpeedSampler()
    sampler.start()
    try:
        sampler.lap()
        start = time.process_time()
        while time.process_time() - start < 0.25:
            pass
        spent = time.process_time() - start
        lap = sampler.lap()
    finally:
        sampler.stop()
    # ~12 passes of ~2 ms interrupted the loop and were taken out again
    assert lap.sampler_s > 5 * ledger.SAMPLE_INTERVAL_S * 0.05
    assert lap.cpu_s == pytest.approx(spent - lap.sampler_s, abs=0.01)
    assert 0.2 < lap.speed < 5.0


def test_a_lap_too_short_to_be_sampled_still_has_a_speed():
    sampler = ledger.SpeedSampler()  # never started: no timer, no samples
    lap = sampler.lap()
    assert lap.sampler_s == 0.0 and 0.2 < lap.speed < 5.0


def test_summarize_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert ledger.summarize(values) == {"median": 3.0, "iqr": q3 - q1, "n": 7}
    assert ledger.summarize([2.0]) == {"median": 2.0, "iqr": 0.0, "n": 1}
    with pytest.raises(ValueError):
        ledger.summarize([])


# -- workloads ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ledger.WORKLOADS))
def test_workload_inputs_are_a_function_of_the_seed(name):
    workload = ledger.WORKLOADS[name]
    assert workload.params(5, False) == workload.params(5, False)
    assert workload.params(5, False) != workload.params(6, False)
    assert workload.params(5, True) != workload.params(5, False)


def test_synthetic_seed_keeps_total_work_constant():
    for seed in range(20):
        schedule = ledger.WORKLOADS["synth_at_16"].params(seed, False)["app_kwargs"]["schedule"]
        assert sum(count for count, _rep in schedule) == 2 * 32768
        assert [rep for _count, rep in schedule] == [2, 16]


# -- fold-by-layer mapping ----------------------------------------------------


@pytest.mark.parametrize(
    "filename, funcname, layer",
    [
        ("/x/src/repro/dsm/protocol.py", "_on_obj_request", "dsm"),
        ("/x/src/repro/sim/engine.py", "run", "sim"),
        ("/x/src/repro/bench/serving.py", "on_event", "bench"),
        ("/x/src/repro/_kernel/__init__.py", "kernel", "kernel"),
        ("/x/src/repro/check/fuzz.py", "build_policy", "other"),
        ("/x/src/repro/__init__.py", "<module>", "other"),
        ("~", "<method 'run' of '_kernelc.Engine' objects>", "kernel"),
        ("~", "<built-in method repro._kernel._kernelc.diff_arrays>", "kernel"),
        ("~", "<built-in method numpy.array>", "numpy"),
        ("~", "<built-in method _heapq.heappush>", "builtin"),
        ("/py/site-packages/numpy/_core/fromnumeric.py", "sum", "numpy"),
        ("/py/lib/python3.11/random.py", "randrange", "other"),
        ("C:\\co\\src\\repro\\obs\\hist.py", "record", "obs"),
    ],
)
def test_layer_of(filename, funcname, layer):
    assert ledger.layer_of(filename, funcname) == layer


def test_fold_profile_shares_sum_to_one_and_count_calls():
    def python_function(filename, name):
        return types.SimpleNamespace(co_filename=filename, co_name=name)

    def entry(code, callcount, inlinetime):
        return types.SimpleNamespace(code=code, callcount=callcount, inlinetime=inlinetime)

    entries = [
        entry(python_function("/x/src/repro/dsm/protocol.py", "f"), 3, 0.5),
        # two generated dataclass __init__s share (file, line, name): both count
        entry(python_function("<string>", "__init__"), 2, 0.05),
        entry(python_function("<string>", "__init__"), 4, 0.05),
        entry(python_function("/x/src/repro/sim/engine.py", "run"), 1, 0.1),
        entry("<method 'send' of 'generator' objects>", 6, 0.3),
    ]
    shares, calls = ledger.fold_profile(entries)
    assert calls == 16
    assert set(shares) == set(ledger.LAYERS)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["dsm"] == pytest.approx(0.5)
    assert shares["builtin"] == pytest.approx(0.3)
    assert shares["other"] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        ledger.fold_profile([])


def test_fold_profile_reads_a_real_profile():
    import cProfile

    profiler = cProfile.Profile()
    profiler.runcall(sorted, range(2000), key=lambda x: -x)
    shares, calls = ledger.fold_profile(profiler.getstats())
    assert calls >= 2001
    assert shares["builtin"] + shares["other"] == pytest.approx(1.0)


# -- null-probe path ----------------------------------------------------------


def test_a_probe_whose_entry_point_is_gone_reports_null_and_a_reason():
    def renamed():
        from repro.dsm import no_such_module  # noqa: F401

    def fine():
        return 1.5e-6

    values, reasons = probes.run_all({"dsm.gone_ns": renamed, "sim.fine_ns": fine})
    assert values["dsm.gone_ns"] is None
    assert reasons["dsm.gone_ns"].startswith(("ImportError", "ModuleNotFoundError"))
    assert "\n" not in reasons["dsm.gone_ns"]
    assert values["sim.fine_ns"] > 0.0
    assert "sim.fine_ns" not in reasons


def test_every_declared_probe_has_a_function():
    assert set(probes.PROBE_FUNCS) == set(ledger.PROBES)


# -- failure accounting ---------------------------------------------------------


def test_problems_and_diverging_results_are_failed_operations():
    good = {"problems": [], "sim": {"digest": "a" * 64}}
    bad = {"problems": ["oracle: final heap key001[0] simulated 1.0 != reference 2.0"],
           "sim": {"digest": "b" * 64}}
    tally = run.Tally()
    assert run.consistent(tally, "leg", [good, good])
    assert tally.failed == 0
    assert run.consistent(tally, "leg", [good, bad])
    assert tally.failed == 2  # the violation, and the diverging digest
    assert not run.consistent(tally, "leg", [])


# -- BENCHMARK.json agrees with the ledger's own tables -----------------------


def test_benchmark_json_matches_the_ledger_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, ledger.WORKLOADS[name].why) for name in ledger.DRIVER_WORKLOADS
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert {
        m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]
    } == ledger.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == ledger.per_layer_units()
    assert len(spec["per_layer"]) <= 128


# -- smoke: one round of every workload, shrunken -----------------------------


def test_one_round_smoke_on_shrunken_workloads(tmp_path):
    out = tmp_path / "ledger.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--rounds", "1", "--small",
         "--layers", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(out.read_text())
    assert result["ops_failed"] == 0
    assert set(result["workloads"]) == set(ledger.WORKLOADS)
    for name, entry in result["workloads"].items():
        assert entry["ops_failed"] == 0
        assert set(entry["end_to_end"]) == set(ledger.END_TO_END)
        assert all(m["median"] > 0 and m["n"] == 1 for m in entry["end_to_end"].values())
        # a request percentile exists on the serving legs and only there
        assert ("req_p99_us" in entry["sim"]) == name.startswith("serve_")
        layers = entry["per_layer"]
        assert (layers["host.req_per_s"] is not None) == name.startswith("serve_")
        shares = [layers[f"{layer}.self_share"] for layer in ledger.LAYERS]
        assert sum(shares) == pytest.approx(1.0, abs=0.02)
        assert layers["prof.calls"] > 0
        assert entry["provenance"]["repro_file"].startswith(str(ROOT / "src"))
    assert result["workloads"]["synth_at_16_py"]["provenance"]["backend"] == "python"
    assert result["workloads"]["synth_at_16_py"]["provenance"]["build_hash"] is None


def test_driver_mode_ends_with_one_json_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sor_at_16", "--seed", "4",
         "--seconds", "1", "--trace", "0", "--small"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, (unit, _bound) in ledger.END_TO_END.items()
    }
