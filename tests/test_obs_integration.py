"""End-to-end tests: telemetry through the executor, CLI and trace reader."""

import json
from dataclasses import replace

import pytest

from repro.bench.executor import ObsSpec, RunSpec, execute, run_spec
from repro.bench.analyze import analyze_trace, render_analysis
from repro.obs.export import iter_trace
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
    assert outcome.metrics is not None
    metrics = MetricsRegistry.from_snapshot(outcome.metrics)
    assert (
        metrics.counter_total("dsm_migrations_total") == outcome.migrations
    )
    # the streamed trace agrees with the outcome
    migrations = [e for e in iter_trace(trace) if e.kind == "migration"]
    assert len(migrations) == outcome.migrations
    json.dumps(outcome.metrics)  # picklable and JSON-clean
    # a trace-only run carries no snapshot
    traced = run_spec(replace(SPEC, obs=ObsSpec(trace_path=trace)))
    assert traced.metrics is None


def test_telemetry_does_not_change_deterministic_fields():
    bare = run_spec(SPEC)
    obs = ObsSpec(metrics=True)
    instrumented = run_spec(replace(SPEC, obs=obs))
    assert bare.metrics is None
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
        assert next(iter_trace(path))  # file exists and has events
    # per-run snapshots merge into one registry
    total = MetricsRegistry()
    for outcome in outcomes:
        total.merge(outcome.metrics)
    assert total.counter_total("dsm_migrations_total") == sum(
        o.migrations for o in outcomes
    )


def test_execute_without_obs_is_unchanged():
    outcomes = execute([SPEC], jobs=1)
    assert outcomes[0].metrics is None


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
    assert main(["analyze", trace, "--oid", str(oid)]) == 0
    captured = capsys.readouterr()
    assert "migrations" in captured.out
    assert f"Object {oid} — " in captured.out
    assert str(outcome.migrations) in captured.out
    assert "threshold" in captured.out
    # provenance on stderr only: stdout is the backend-free rendering
    assert "backend" in captured.err
    assert captured.out == render_analysis(analyze_trace(trace, oid=oid))


#: Every option the one flat parser once took on every target, as
#: (option, value) with ``None`` for a switch; ``stray`` is a positional.
OPTIONS = [
    ("--trace-out", "t.jsonl"), ("--metrics-out", "m.json"),
    ("--log-level", "info"), ("--full", None), ("--jobs", "2"),
    ("--progress", None), ("--json", "j.json"), ("--backend", "python"),
    ("--md", "t.md"), ("--trace", "t.jsonl"), ("--oid", "4"),
    ("--episodes", "3"), ("--seed", "1"), ("--corpus-out", "corpus"),
    ("--no-self-test", None), ("--flavor", "serving"), ("--nodes", "2"),
    ("--policy", "NM"), ("--keys", "4"), ("--requests", "1"),
    ("--phases", "1"), ("--zipf-s", "0.5"), ("--read-fraction", "0.5"),
    ("--churn", "0.25"), ("--arrival", "closed"),
    ("--topology", "fat-tree:edge=2"), ("--release-fanout", "2"),
    ("stray", None),
]

_SWEEP = {"--full", "--jobs", "--progress", "--json", "--backend",
          "--trace-out", "--metrics-out", "--log-level"}

#: target -> the options its runner reads, the only ones it accepts
#: (72 pairs of the 9 x 28 above; ``analyze`` reads ``stray`` as its
#: trace path).
ACCEPTS = {
    "figure2": _SWEEP,
    "figure3": _SWEEP,
    "figure5": _SWEEP,
    "all": _SWEEP,
    "ablation": _SWEEP - {"--full"},
    "sweep": {"--full", "--jobs", "--progress", "--md", "--json",
              "--backend"},
    "check": {"--episodes", "--seed", "--corpus-out", "--no-self-test",
              "--flavor", "--progress", "--json", "--backend"},
    "analyze": {"stray", "--oid", "--json", "--backend"},
    "serve": {"--nodes", "--policy", "--seed", "--keys", "--requests",
              "--phases", "--zipf-s", "--read-fraction", "--churn",
              "--arrival", "--topology", "--release-fanout", "--md",
              "--json", "--backend"},
}


@pytest.mark.parametrize("target", sorted(ACCEPTS))
@pytest.mark.parametrize("flag,value", OPTIONS)
def test_cli_rejects_observability_flags_it_would_ignore(
    target, flag, value, capsys
):
    """Each target accepts an option exactly when its runner reads it;
    any other is an exit 2 under the target's own usage, with an error
    line naming the target and the option (not the top-level usage,
    which names no target).  Parsed only: nothing runs."""
    from repro.bench.cli import TARGETS, build_parser

    assert set(TARGETS) == set(ACCEPTS)
    argv = [target, flag] + ([value] if value is not None else [])
    if flag in ACCEPTS[target]:
        assert callable(build_parser().parse_args(argv).run)
        return
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith(f"usage: repro-bench {target} [-h]")
    assert err[-1].startswith(
        f"repro-bench {target}: error: unrecognized arguments: "
    )
    assert flag in err[-1].split()


@pytest.mark.parametrize("argv,named", [
    ("serve stray --nodes 2 --requests 1 --phases 1 --jobs 7 --full "
     "--progress --episodes 3 --oid 4",
     "stray --jobs 7 --full --progress --episodes 3 --oid 4"),
    ("ablation --full", "--full"),
    ("figure5 stray", "stray"),
])
def test_cli_unread_options_exit_2_before_any_run(
    argv, named, tmp_path, monkeypatch, capsys
):
    """A whole command line with options its target never reads exits 2
    with one error line naming the target and them all, and writes
    nothing."""
    from repro.bench.cli import main

    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(argv.split())
    assert exited.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    target = argv.split()[0]
    assert error == (
        f"repro-bench {target}: error: unrecognized arguments: {named}"
    )
    assert not any(tmp_path.iterdir())
