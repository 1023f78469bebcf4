"""End-to-end tests: telemetry through the executor, CLI and trace reader."""

import json
from dataclasses import replace

from repro.bench.executor import ObsSpec, RunSpec, execute, run_spec
from repro.bench.analyze import analyze_trace, render_analysis
from repro.obs.export import load_trace
from repro.obs.metrics import MetricsRegistry

SPEC = RunSpec(
    app="synthetic",
    app_kwargs={"total_updates": 64, "repetition": 8},
    policy="AT",
    nodes=4,
    tag="t0",
)


def test_obsspec_enabled_and_for_run(tmp_path):
    assert not ObsSpec().enabled
    obs = ObsSpec(trace_path=str(tmp_path / "run.jsonl"), metrics=True)
    assert obs.enabled
    assert obs.for_run(0, 1) is obs  # single run keeps the path
    derived = obs.for_run(2, 5)
    assert derived.trace_path == str(tmp_path / "run-002.jsonl")
    assert derived.metrics  # other fields carried over


def test_run_spec_with_obs_carries_telemetry(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    obs = ObsSpec(trace_path=trace, metrics=True)
    outcome = run_spec(replace(SPEC, obs=obs))
    telemetry = outcome.telemetry
    assert telemetry is not None
    assert set(telemetry["phases"]) == {"build", "simulate", "verify"}
    assert telemetry["phases"]["simulate"]["count"] == 1
    assert telemetry["trace"]["path"] == trace
    assert telemetry["trace"]["events"] > 0
    metrics = MetricsRegistry.from_snapshot(telemetry["metrics"])
    assert (
        metrics.counter_total("dsm_migrations_total") == outcome.migrations
    )
    # the streamed trace agrees with the outcome
    loaded = load_trace(trace)
    assert len(loaded.migrations()) == outcome.migrations
    json.dumps(telemetry)  # picklable and JSON-clean


def test_telemetry_does_not_change_deterministic_fields():
    bare = run_spec(SPEC)
    obs = ObsSpec(metrics=True)
    instrumented = run_spec(replace(SPEC, obs=obs))
    assert bare.telemetry is None
    assert instrumented.deterministic() == bare.deterministic()


def test_execute_applies_obs_and_reports_progress(tmp_path):
    specs = [
        replace(SPEC, tag=f"t{i}", seed=i)
        for i in range(3)
    ]
    obs = ObsSpec(trace_path=str(tmp_path / "sweep.jsonl"), metrics=True)
    seen = []
    outcomes = execute(
        specs, jobs=1, obs=obs,
        progress=lambda done, total, outcome: seen.append((done, total)),
    )
    assert seen == [(1, 3), (2, 3), (3, 3)]
    assert [o.tag for o in outcomes] == ["t0", "t1", "t2"]
    for i, outcome in enumerate(outcomes):
        path = str(tmp_path / f"sweep-{i:03d}.jsonl")
        assert outcome.telemetry["trace"]["path"] == path
        assert load_trace(path).events  # file exists and has events
    # per-run snapshots merge into one registry
    total = MetricsRegistry()
    for outcome in outcomes:
        total.merge(outcome.telemetry["metrics"])
    assert total.counter_total("dsm_migrations_total") == sum(
        o.migrations for o in outcomes
    )


def test_execute_without_obs_is_unchanged():
    outcomes = execute([SPEC], jobs=1)
    assert outcomes[0].telemetry is None


def test_render_trace_report(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    obs = ObsSpec(trace_path=trace)
    outcome = run_spec(replace(SPEC, obs=obs))
    analysis = analyze_trace(trace)
    assert analysis["event_counts"]["migration"] == outcome.migrations
    assert analysis["object"]["threshold"]["points"] > 0
    report = render_analysis(analysis)
    assert "migrations" in report
    assert str(outcome.migrations) in report
    assert "threshold" in report


def test_cli_observability_flags(tmp_path, capsys):
    from repro.bench.cli import main

    trace = str(tmp_path / "cli.jsonl")
    metrics_out = str(tmp_path / "metrics.json")
    code = main([
        "figure5", "--jobs", "1",
        "--trace-out", trace,
        "--metrics-out", metrics_out,
        "--progress",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "[1/" in captured.err  # progress heartbeats on stderr
    snap = json.load(open(metrics_out, encoding="utf-8"))
    assert snap["runs"] > 0
    assert snap["counters"]
    # per-sweep trace files were derived from the base path
    produced = sorted(tmp_path.glob("cli-figure5-*.jsonl"))
    assert len(produced) == snap["runs"]


def test_cli_analyze_oid_target(tmp_path, capsys):
    from repro.bench.cli import main

    trace = str(tmp_path / "run.jsonl")
    outcome = run_spec(replace(SPEC, obs=ObsSpec(trace_path=trace)))
    oid = analyze_trace(trace)["object"]["oid"]
    assert main(["analyze", "--trace", trace, "--oid", str(oid)]) == 0
    captured = capsys.readouterr()
    assert "migrations" in captured.out
    assert f"Object {oid} — " in captured.out
    assert str(outcome.migrations) in captured.out
    assert "threshold" in captured.out
    # provenance on stderr only: stdout is the backend-free rendering
    assert "backend" in captured.err
    assert captured.out == render_analysis(analyze_trace(trace, oid=oid))
