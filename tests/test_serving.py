"""The serving SLO pipeline end to end (repro-bench serve).

Covers the bench layer above :mod:`repro.apps.serving`: the online
request-span collector, the deterministic report and its digest, the
policy race, the CLI target, and the conformance-harness integration
(a serving episode must run clean under the oracle and the runtime
invariant checker).
"""

import json
from unittest import mock

import pytest

from repro.apps.serving import ServingSpec
from repro.bench import serving
from repro.bench.cli import main as cli_main
from repro.bench.serving import (
    SERVE_POLICIES,
    SERVE_SCHEMA,
    render_race,
    render_serving,
    report_digest,
    run_serving,
    run_serving_race,
)
from repro.check.runner import run_check, run_episode
from repro.obs.hist import EpochSeries, LatencyHistogram
from repro.trace.events import TraceEvent
from repro.trace.recorder import TraceRecorder

SPEC = ServingSpec(seed=0, nodes=4, keys=12, phases=2, requests_per_thread=4)

#: The reference-equivalence episode: churned, fat-tree priced, adaptive
#: policy — requests of every class, lock hand-offs and migrations.
EQUIV_SPEC = ServingSpec(
    seed=5, nodes=16, keys=48, phases=3, requests_per_thread=8,
    churn=0.25, policy="AT", topology="fat-tree:edge=4:pod=2:oversub=2",
)


# -- the reference: record every span event, fold them afterwards -------------


def _fold_offline(events) -> dict:
    """Fold retained span events into what the collector accumulates.

    This is how the SLO numbers were computed before the collector
    became the run's span sink: from ``TraceEvent`` objects, by reading
    each event's ``detail`` mapping.  It is kept here, and only here, as
    the independent reference the live path is compared against.
    """
    hists: dict[str, LatencyHistogram] = {}
    epoch_requests = EpochSeries()
    barrier_close: dict[int, float] = {}
    open_requests: dict[int, tuple[float, str, int]] = {}
    open_barriers: dict[int, int] = {}
    opened = closed = 0
    for event in events:
        d = event.detail
        if event.kind == "span_open":
            kind = d.get("op_kind")
            if kind == "request":
                opened += 1
                open_requests[d["op"]] = (
                    event.time_us, d.get("cls", "?"), d.get("epoch", 0)
                )
            elif kind == "barrier_wait" and d.get("round") is not None:
                open_barriers[d["op"]] = d["round"]
        elif event.kind == "span_close":
            op = d.get("op")
            if op in open_requests:
                open_us, cls, epoch = open_requests.pop(op)
                closed += 1
                hists.setdefault(cls, LatencyHistogram()).record(
                    event.time_us - open_us
                )
                epoch_requests.note(epoch)
            elif op in open_barriers:
                round_no = open_barriers.pop(op)
                prev = barrier_close.get(round_no)
                if prev is None or event.time_us > prev:
                    barrier_close[round_no] = event.time_us
    return {
        "hists": hists,
        "epoch_requests": epoch_requests,
        "barrier_close": barrier_close,
        "opened": opened,
        "closed": closed,
    }


class _ReferenceCollector(TraceRecorder):
    """A plain recorder standing in for the serving collector.

    It has no span methods, so the run records ordinary span events and
    retains them; the first read of a folded attribute (``run_serving``
    reads them after the run) folds the retained list offline.
    """

    def __init__(self) -> None:
        super().__init__(kinds=("span_open", "span_close"))

    def __getattr__(self, name):
        if name not in ("hists", "epoch_requests", "barrier_close",
                        "opened", "closed"):
            raise AttributeError(name)
        self.__dict__.update(_fold_offline(self.events))
        return self.__dict__[name]


def reference_report(spec: ServingSpec) -> dict:
    """``run_serving``'s report with the offline fold as its collector."""
    recorder = _ReferenceCollector()
    with mock.patch.object(serving, "_RequestCollector", lambda: recorder):
        report = run_serving(spec)
    assert len(recorder.events) >= 2 * report["requests"] > 0
    return report


def test_report_equals_offline_fold_of_recorded_spans():
    """Folding spans at the emit site changes nothing in the report."""
    live = run_serving(EQUIV_SPEC)
    reference = reference_report(EQUIV_SPEC)
    assert live == reference
    assert report_digest(live) == report_digest(reference)
    assert live["migrations"] > 0 and len(live["latency_us"]) > 2


def test_run_serving_builds_no_trace_event_and_no_recorder(monkeypatch):
    """The serving tier keeps no event list: nothing to put in one."""
    built = []
    for cls in (TraceEvent, TraceRecorder):
        def counting(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built.append(_cls)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    report = run_serving(SPEC)
    assert report["spans"]["opened"] > 0
    assert built == []
    # the counters do count: a recorder capturing one event trips both
    TraceRecorder().record("migration", 0.0, 0, 0)
    assert built == [TraceRecorder, TraceEvent]


def test_collector_ignores_unmatched_and_double_close():
    """A stray close is dropped; opened != closed is the evidence."""
    collector = serving._RequestCollector()
    assert not any(collector.wants(kind) for kind in ("span_open", "ship"))
    collector.span_close(9, "request", 5.0, 0, 0, {})  # never opened
    collector.span_open(1, "request", 1.0, 0, 0, None,
                        {"cls": "put", "epoch": 0})
    collector.span_close(1, "request", 3.0, 0, 0, {})
    collector.span_close(1, "request", 4.0, 0, 0, {})  # double close
    collector.span_open(2, "request", 2.0, 0, 0, None,
                        {"cls": "put", "epoch": 1})  # never closed
    collector.span_close(7, "barrier_wait", 6.0, 0, 0, {"round": 0})
    assert (collector.opened, collector.closed) == (2, 1)
    assert collector.hists["put"].count == 1
    assert collector.hists["put"].max == 2.0
    assert collector.epoch_requests.to_dict() == {"0": 1}
    assert collector.barrier_close == {}


def test_report_shape_and_accounting():
    """Every request span closes and lands in exactly one histogram."""
    report = run_serving(SPEC)
    assert report["schema"] == SERVE_SCHEMA
    expected = SPEC.nthreads * SPEC.requests_per_thread * SPEC.phases
    assert report["requests"] == expected
    assert report["spans"] == {"opened": expected, "closed": expected}
    per_class = sum(
        report["latency_us"][cls]["count"]
        for cls in report["latency_us"]
        if cls != "all"
    )
    assert per_class == expected
    assert report["latency_us"]["all"]["count"] == expected
    assert sum(e["requests"] for e in report["epoch_throughput"]) == expected
    # one throughput row per phase, windows strictly ordered
    assert [e["epoch"] for e in report["epoch_throughput"]] == [0, 1]
    ends = [e["end_us"] for e in report["epoch_throughput"]]
    assert all(e is not None for e in ends)
    assert ends == sorted(ends)
    assert all(
        e["req_per_s"] > 0 for e in report["epoch_throughput"]
    )


def test_report_deterministic_and_digest_stable():
    """Equal specs produce byte-identical reports (same digest)."""
    first = run_serving(SPEC)
    second = run_serving(SPEC)
    assert first == second
    assert report_digest(first) == report_digest(second)
    # and the digest is over canonical JSON — key order never matters
    reordered = json.loads(
        json.dumps(first, sort_keys=True), object_pairs_hook=dict
    )
    assert report_digest(reordered) == report_digest(first)


def test_report_json_clean():
    """Reports hold only JSON types — no numpy scalars, no objects."""
    report = run_serving(SPEC)
    json.dumps(report)  # raises on anything exotic


def test_migrations_follow_hot_set_shift():
    """Adaptive policies migrate when the hot set (and owners) rotate."""
    moving = run_serving(
        ServingSpec(seed=0, nodes=8, keys=16, phases=3,
                    requests_per_thread=6, policy="JUMP")
    )
    frozen = run_serving(
        ServingSpec(seed=0, nodes=8, keys=16, phases=3,
                    requests_per_thread=6, policy="NM")
    )
    assert frozen["migrations"] == 0
    assert moving["migrations"] > 0


def test_race_runs_identical_traffic():
    """Race legs differ only in policy: same request count everywhere."""
    race = run_serving_race(SPEC, ["NM", "AT"])
    assert race["schema"] == SERVE_SCHEMA + "-race"
    nm, at = race["policies"]["NM"], race["policies"]["AT"]
    assert nm["requests"] == at["requests"]
    assert nm["policy"] == "NM" and at["policy"] == "AT"
    text = render_race(race)
    assert "NM" in text and "AT" in text and "p999_us" in text


def test_render_serving_mentions_saturation():
    """Small runs flag unresolved tails with the ~ marker."""
    report = run_serving(SPEC)
    text = render_serving(report)
    assert "Serving SLO report" in text
    assert "p999_us" in text
    assert "~" in text  # 32 requests cannot resolve p999


def test_serve_policies_all_instantiable():
    """Every raceable policy runs without mandatory parameters."""
    tiny = ServingSpec(seed=1, nodes=2, keys=4, phases=1,
                       requests_per_thread=2)
    race = run_serving_race(tiny, list(SERVE_POLICIES))
    assert set(race["policies"]) == set(SERVE_POLICIES)


def test_cli_serve_single(capsys):
    """repro-bench serve prints the report and its digest."""
    assert cli_main([
        "serve", "--nodes", "4", "--policy", "AT", "--seed", "0",
        "--keys", "12", "--requests", "4", "--phases", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "Serving SLO report" in out
    assert "report digest: " in out
    digest = out.rsplit("report digest: ", 1)[1].strip()
    assert digest == report_digest(run_serving(SPEC))


def test_cli_serve_race_and_json(tmp_path, capsys):
    """Comma-separated policies race; --json lands the raw report."""
    out_path = tmp_path / "race.json"
    assert cli_main([
        "serve", "--nodes", "2", "--policy", "NM,AT", "--seed", "1",
        "--keys", "4", "--requests", "2", "--phases", "1",
        "--json", str(out_path),
    ]) == 0
    assert "Policy race" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert set(payload["policies"]) == {"NM", "AT"}


def test_cli_serve_rejects_unknown_policy(capsys):
    """FT (mandatory threshold) and typos are refused with a message."""
    with pytest.raises(SystemExit):
        cli_main(["serve", "--policy", "FT"])
    with pytest.raises(SystemExit):
        cli_main(["serve", "--policy", "WAT"])


#: Malformed traffic -> (ServingSpec kwargs, the whole one-line rejection).
BAD_SERVING_SPECS = {
    "read_fraction above 1": (
        {"read_fraction": 1.5}, "read_fraction must be in [0, 1], got 1.5"
    ),
    "owned_fraction negative": (
        {"owned_fraction": -0.5}, "owned_fraction must be in [0, 1], got -0.5"
    ),
    "zipf_s negative": (
        {"zipf_s": -1.0}, "zipf_s must be finite and >= 0, got -1.0"
    ),
    "zipf_s nan": (
        {"zipf_s": float("nan")}, "zipf_s must be finite and >= 0, got nan"
    ),
    "mean_gap_us negative": (
        {"mean_gap_us": -5}, "mean_gap_us must be finite and >= 0, got -5"
    ),
    "think_us negative": (
        {"think_us": -3}, "think_us must be finite and >= 0, got -3"
    ),
    "think_us infinite": (
        {"think_us": float("inf")}, "think_us must be finite and >= 0, got inf"
    ),
    "requests_per_thread negative": (
        {"requests_per_thread": -1}, "requests_per_thread must be >= 1, got -1"
    ),
    "no phases": ({"phases": 0}, "phases must be >= 1, got 0"),
    "no nodes": ({"nodes": 0}, "nodes must be >= 1, got 0"),
    "no keys": ({"keys": 0}, "keys must be >= 1, got 0"),
    "empty records": ({"key_len": 0}, "key_len must be >= 1, got 0"),
    "no threads": ({"threads": 0}, "threads must be None or >= 1, got 0"),
    "unknown arrival": (
        {"arrival": "bursty"}, "arrival must be 'open' or 'closed', got 'bursty'"
    ),
    "churn of every node": ({"churn": 1.0}, "churn must be in [0, 1), got 1.0"),
    "release_fanout of one": (
        {"release_fanout": 1}, "release_fanout must be >= 2, got 1"
    ),
    "unknown policy": (
        {"policy": "bogus"},
        "unknown policy 'bogus'; choose from ['AT', 'ATD', 'FT', 'FT1', "
        "'FT2', 'JIAJIA', 'JUMP', 'LF', 'NM']",
    ),
    "FT without threshold": (
        {"policy": "FT"},
        "bad parameters for policy 'FT': FixedThreshold.__init__() "
        "missing 1 required positional argument: 'threshold'",
    ),
    "parameter the policy rejects": (
        {"policy": "NM", "policy_params": {"lam": 0.5}},
        "bad parameters for policy 'NM': NoMigration() takes no arguments",
    ),
    "unknown mechanism": (
        {"mechanism": "gossip"},
        "unknown mechanism 'gossip'; choose from ['broadcast', "
        "'forwarding-pointer', 'home-manager']",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SERVING_SPECS))
def test_malformed_serving_spec_rejected(case, backend):
    """Each malformed field is refused at construction, before any
    expansion or simulation, with one line naming the field and value."""
    kwargs, message = BAD_SERVING_SPECS[case]
    with pytest.raises(ValueError) as err:
        ServingSpec(**kwargs)
    assert str(err.value) == message


def test_cli_serve_rejects_malformed_traffic(capsys):
    with pytest.raises(SystemExit):
        cli_main(["serve", "--nodes", "0"])
    assert "nodes must be >= 1, got 0" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli_main(["serve", "--release-fanout", "1"])
    assert "release_fanout must be >= 2, got 1" in capsys.readouterr().err


def test_fuzzed_serving_draws_stay_valid():
    """The serving fuzz flavor only draws traffic the validator accepts."""
    from repro.apps.serving import generate_serving_program

    for seed in range(200):
        generate_serving_program(seed)


def test_serving_episode_clean_under_conformance():
    """A serving episode passes the oracle and the invariant checker."""
    result = run_episode(seed=0, flavor="serving")
    assert result.ok, result.verdict()
    assert result.ops > 0


def test_check_session_serving_flavor(tmp_path):
    """A short serving-flavoured check session is green end to end."""
    report = run_check(
        episodes=5,
        base_seed=0,
        corpus_dir=tmp_path,
        self_test=False,
        flavor="serving",
    )
    assert report.ok
    assert len(report.episodes) == 5
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["ok"] is True


def test_cli_check_flavor_flag(capsys):
    """The check target threads --flavor through to the generator."""
    assert cli_main([
        "check", "--episodes", "2", "--seed", "0",
        "--flavor", "serving", "--no-self-test",
    ]) == 0
    assert "conformance" in capsys.readouterr().out
