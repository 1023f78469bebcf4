"""Tests for the parallel sweep executor (determinism across processes)."""

import pickle

import pytest

from repro.apps import Sor
from repro.bench.executor import (
    APP_FACTORIES,
    RunSpec,
    default_jobs,
    execute,
    run_spec,
)


def _sweep_specs():
    """A small mixed sweep: two apps, two policies, odd node counts."""
    return [
        RunSpec(
            app="synthetic",
            app_kwargs={"total_updates": 64, "repetition": r},
            policy=policy,
            nodes=9,
            tag=("synthetic", policy, r),
        )
        for policy in ("NM", "AT")
        for r in (2, 8)
    ] + [
        RunSpec(
            app="sor",
            app_kwargs={"size": 16, "iterations": 2},
            policy="AT",
            nodes=4,
            tag=("sor", "AT", 16),
        )
    ]


def test_jobs1_and_jobs4_bit_identical():
    """Fanning out over processes must not change a single bit of the
    simulated results (the determinism guarantee the figures rely on)."""
    specs = _sweep_specs()
    seq = execute(specs, jobs=1)
    par = execute(specs, jobs=4)
    assert [o.deterministic() for o in seq] == [
        o.deterministic() for o in par
    ]


def test_result_order_matches_spec_order():
    specs = _sweep_specs()
    outcomes = execute(specs, jobs=4)
    assert [o.tag for o in outcomes] == [s.tag for s in specs]


def test_pool_reports_progress_in_spec_order():
    """A pool reports runs in spec order even when a later spec finishes
    first, so a hook that folds outcomes (the CLI's merged metrics, whose
    float sums depend on the order) folds them alike under any --jobs."""
    slow = RunSpec(
        app="sor", app_kwargs={"size": 48, "iterations": 8}, policy="AT",
        nodes=8, tag="slow",
    )
    fast = [
        RunSpec(app="synthetic", app_kwargs={"total_updates": 8},
                policy="NM", nodes=2, tag=f"fast{i}")
        for i in range(2)
    ]
    specs = [slow, *fast]
    seen = []
    outcomes = execute(
        specs, jobs=2,
        progress=lambda done, total, outcome: seen.append(
            (done, total, outcome.tag)
        ),
    )
    assert seen == [(1, 3, "slow"), (2, 3, "fast0"), (3, 3, "fast1")]
    assert [o.tag for o in outcomes] == ["slow", "fast0", "fast1"]


def test_specs_are_picklable():
    for spec in _sweep_specs():
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


def test_callable_app_falls_back_to_sequential():
    """A lambda app cannot cross process boundaries; execute must still
    return correct results (sequential fallback)."""
    specs = [
        RunSpec(app=lambda: Sor(size=16, iterations=2), nodes=4, tag="inline")
    ]
    (outcome,) = execute(specs, jobs=4)
    assert outcome.tag == "inline"
    assert outcome.time_us > 0


def test_run_spec_matches_run_once():
    """The spec path and the legacy run_once path measure the same run."""
    from repro.bench.runner import run_once

    outcome = run_spec(
        RunSpec(app="sor", app_kwargs={"size": 16, "iterations": 2}, nodes=4)
    )
    result = run_once(Sor(size=16, iterations=2), policy="AT", nodes=4)
    assert outcome.time_us == result.execution_time_us
    assert outcome.messages == result.stats.total_messages()
    assert outcome.breakdown == result.stats.breakdown()


def test_policy_kwargs_and_registries():
    outcome = run_spec(
        RunSpec(
            app="synthetic",
            app_kwargs={"total_updates": 32, "repetition": 4},
            policy="AT",
            policy_params={"lam": 2.0},
            nodes=4,
        )
    )
    assert outcome.policy == "AT"
    with pytest.raises(ValueError):
        run_spec(RunSpec(app="no-such-app"))
    with pytest.raises(ValueError):
        run_spec(
            RunSpec(
                app="sor",
                app_kwargs={"size": 8, "iterations": 1},
                policy="no-such-policy",
            )
        )
    with pytest.raises(ValueError):
        run_spec(
            RunSpec(
                app="sor",
                app_kwargs={"size": 8, "iterations": 1},
                policy="JUMP",
                policy_params={"zap": 1},
            )
        )


def test_outcome_wall_clock_and_events_populated():
    (outcome,) = execute(
        [RunSpec(app="sor", app_kwargs={"size": 16, "iterations": 2},
                 nodes=4)],
        jobs=1,
    )
    assert outcome.wall_clock_s > 0
    assert outcome.events_processed > 0
    assert "wall_clock_s" not in outcome.deterministic()


def test_jobs_validation_and_default():
    with pytest.raises(ValueError):
        execute([], jobs=0)
    assert default_jobs() >= 1
    assert execute([], jobs=None) == []


def test_app_registry_covers_all_shipped_apps():
    assert set(APP_FACTORIES) == {
        "asp", "sor", "nbody", "tsp", "lu", "tokenring", "synthetic",
    }


def test_console_script_entry_point_resolves():
    """pyproject's ``repro-bench`` console script points at the CLI main."""
    import pathlib
    import re

    from repro.bench import cli

    pyproject = (
        pathlib.Path(__file__).parent.parent / "pyproject.toml"
    ).read_text(encoding="utf-8")
    match = re.search(r'repro-bench\s*=\s*"([\w.]+):(\w+)"', pyproject)
    assert match, "repro-bench console script missing from pyproject.toml"
    module, attr = match.groups()
    assert module == "repro.bench.cli"
    assert callable(getattr(cli, attr))


def test_figure2_sweep_identical_across_jobs():
    """End-to-end: the figure driver's public ``jobs`` knob is a no-op
    for results."""
    from repro.bench import figure2
    from repro.bench.figure2 import run_figure2

    tiny = {"SOR": ("sor", {"size": 16, "iterations": 2})}
    orig = figure2.SIZES["quick"]
    figure2.SIZES["quick"] = tiny
    try:
        seq = run_figure2(processor_counts=(2, 4), jobs=1)
        par = run_figure2(processor_counts=(2, 4), jobs=2)
    finally:
        figure2.SIZES["quick"] = orig
    assert seq == par
