"""Tests for the metrics registry (counters, gauges, histograms, merge)."""

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


def test_counter_accumulates_and_rejects_negative():
    reg = MetricsRegistry()
    counter = reg.counter("requests", node=0)
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_instruments_memoized_by_name_and_labels():
    reg = MetricsRegistry()
    assert reg.counter("c", node=0) is reg.counter("c", node=0)
    assert reg.counter("c", node=0) is not reg.counter("c", node=1)
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    gauge = reg.gauge("threshold", oid=1)
    gauge.set(2.0)
    gauge.set(5.0)
    assert gauge.value == 5.0


def test_histogram_buckets_and_moments():
    reg = MetricsRegistry()
    hist = reg.histogram("lat", buckets=(10.0, 100.0))
    for value in (5.0, 50.0, 500.0):
        hist.observe(value)
    assert hist.count == 3
    assert hist.sum == 555.0
    assert hist.min == 5.0
    assert hist.max == 500.0
    assert hist.mean == pytest.approx(185.0)
    # one value per bucket plus one overflow
    assert hist.bucket_counts == [1, 1, 1]


def test_counter_value_and_total_helpers():
    reg = MetricsRegistry()
    reg.counter("msgs", category="diff").inc(3)
    reg.counter("msgs", category="lock_grant").inc(2)
    assert reg.counter_value("msgs", category="diff") == 3
    assert reg.counter_value("msgs", category="absent") == 0
    assert reg.counter_total("msgs") == 5


def test_snapshot_is_sorted_and_json_friendly():
    import json

    reg = MetricsRegistry()
    reg.counter("b").inc()
    reg.counter("a", node=1).inc()
    reg.counter("a", node=0).inc()
    reg.gauge("g").set(1.5)
    reg.histogram("h").observe(42.0)
    snap = reg.snapshot()
    names = [(c["name"], tuple(sorted(c["labels"].items())))
             for c in snap["counters"]]
    assert names == sorted(names)
    json.dumps(snap)  # round-trippable without default= hooks
    assert snap["histograms"][0]["buckets"] == list(DEFAULT_BUCKETS)


def test_merge_adds_counters_and_histograms():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("c", node=0).inc(2)
    b.counter("c", node=0).inc(3)
    b.counter("c", node=1).inc(1)
    a.histogram("h").observe(10.0)
    b.histogram("h").observe(1000.0)
    a.gauge("g").set(1.0)
    b.gauge("g").set(2.0)
    a.merge(b)
    assert a.counter_value("c", node=0) == 5
    assert a.counter_value("c", node=1) == 1
    hist = a.histogram("h")
    assert hist.count == 2
    assert hist.sum == 1010.0
    assert hist.min == 10.0
    assert hist.max == 1000.0
    assert a.gauge("g").value == 2.0  # last write wins


def test_merge_accepts_snapshot_and_round_trips():
    reg = MetricsRegistry()
    reg.counter("c", node=0).inc(7)
    reg.histogram("h", node=0).observe(123.0)
    reg.gauge("g").set(9.0)
    wire = reg.snapshot()

    total = MetricsRegistry()
    total.merge(wire)
    total.merge(wire)
    assert total.counter_value("c", node=0) == 14
    assert total.histogram("h", node=0).count == 2

    rebuilt = MetricsRegistry.from_snapshot(wire)
    assert rebuilt.snapshot() == wire


def test_merge_rejects_bucket_mismatch():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
    b.histogram("h", buckets=(10.0, 20.0)).observe(15.0)
    with pytest.raises(ValueError):
        a.merge(b)


def test_empty_registry_snapshot():
    reg = MetricsRegistry()
    assert reg.snapshot() == {"counters": [], "gauges": [], "histograms": []}
    assert len(reg) == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_are_rejected(bad):
    reg = MetricsRegistry()
    counter, gauge = reg.counter("c"), reg.gauge("g")
    hist = reg.histogram("h", buckets=(1.0, 2.0))
    hist.observe(1.5)
    for instrument_call in (counter.inc, gauge.set, hist.observe):
        with pytest.raises(ValueError, match="finite"):
            instrument_call(bad)
    assert counter.value == 0 and gauge.value == 0.0
    assert (hist.count, hist.min, hist.max) == (1, 1.5, 1.5)
    hist.observe(0.5)
    assert (hist.min, hist.max) == (0.5, 1.5)


def _one_histogram_snapshot(**overrides) -> dict:
    source = MetricsRegistry()
    source.counter("c", node=0).inc(3)
    source.histogram("h", buckets=(1.0, 2.0), node=0).observe(1.5)
    snap = source.snapshot()
    snap["histograms"][0].update(overrides)
    return snap


@pytest.mark.parametrize(
    "overrides",
    [
        {"bucket_counts": [0, 1, 0, 0]},  # longer than bounds + overflow
        {"bucket_counts": [1]},  # shorter
        {"bucket_counts": [0, 1, 1]},  # sums to 2, count says 1
        {"buckets": [2.0, 1.0]},  # bounds not ascending
    ],
)
def test_merge_rejects_malformed_snapshot_and_leaves_registry_unchanged(
    overrides,
):
    reg = MetricsRegistry()
    reg.counter("c", node=0).inc(1)
    reg.histogram("h", buckets=(1.0, 2.0), node=0).observe(0.5)
    before = reg.snapshot()
    with pytest.raises(ValueError, match="cannot merge histogram 'h'"):
        reg.merge(_one_histogram_snapshot(**overrides))
    assert reg.snapshot() == before


def test_merge_rejects_non_finite_snapshot_values():
    reg = MetricsRegistry()
    snap = _one_histogram_snapshot()
    snap["counters"][0]["value"] = float("nan")
    with pytest.raises(ValueError, match="cannot merge counter 'c'"):
        reg.merge(snap)
    assert len(reg) == 0


def test_merge_bucket_mismatch_leaves_counters_unfolded():
    a = MetricsRegistry()
    a.histogram("h", buckets=(10.0, 20.0), node=0).observe(15.0)
    with pytest.raises(ValueError, match="bucket bounds differ"):
        a.merge(_one_histogram_snapshot())
    assert a.counter_value("c", node=0) == 0
