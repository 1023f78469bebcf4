"""Property-based invariants of the mergeable latency histogram.

The SLO analytics engine merges per-shard histograms into one before
reporting percentiles, so merge must be a true monoid operation on the
recorded multiset:

* **single-shot equivalence** — recording a sequence into one histogram
  equals recording any partition of it into shards and merging:
  bit-identical buckets, count, ``sum_ticks``, min/max, and therefore
  identical quantiles;
* **commutativity / associativity** — shard merge order never matters;
* **empty identity** — merging an empty histogram is a no-op;
* **quantile bounds** — every quantile lies within the recorded
  [min, max] and within its bucket's upper bound error envelope.

All generators are derandomized so CI failures replay exactly.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.obs.hist import (
    LatencyHistogram,
    SUBBUCKETS,
    TICKS_PER_UNIT,
    bucket_index,
    bucket_upper,
)

# Latencies spanning the realistic simulated range: sub-us to minutes,
# plus exact zeros (instant local operations).
_values = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=1e8, allow_nan=False),
    ),
    min_size=0,
    max_size=200,
)
_quantile = st.floats(min_value=0.0, max_value=1.0)


def _single_shot(values):
    hist = LatencyHistogram()
    for value in values:
        hist.record(value)
    return hist


@settings(derandomize=True)
@given(values=_values, cut=st.integers(min_value=0, max_value=200))
def test_property_merge_equals_single_shot(values, cut):
    """Any two-way split, recorded apart and merged, is bit-identical."""
    cut = min(cut, len(values))
    left = _single_shot(values[:cut])
    right = _single_shot(values[cut:])
    merged = LatencyHistogram.merged([left, right])
    whole = _single_shot(values)
    assert merged == whole
    assert merged.to_dict() == whole.to_dict()
    assert merged.summary() == whole.summary()


@settings(derandomize=True)
@given(values=_values, cut=st.integers(min_value=0, max_value=200))
def test_property_merge_commutes(values, cut):
    """a+b == b+a on every observable field."""
    cut = min(cut, len(values))
    a = _single_shot(values[:cut])
    b = _single_shot(values[cut:])
    assert LatencyHistogram.merged([a, b]) == LatencyHistogram.merged([b, a])


@settings(derandomize=True)
@given(
    values=_values,
    cut1=st.integers(min_value=0, max_value=200),
    cut2=st.integers(min_value=0, max_value=200),
)
def test_property_merge_associates(values, cut1, cut2):
    """(a+b)+c == a+(b+c) for every three-way partition."""
    i, j = sorted((min(cut1, len(values)), min(cut2, len(values))))
    a = _single_shot(values[:i])
    b = _single_shot(values[i:j])
    c = _single_shot(values[j:])
    left_first = LatencyHistogram.merged([a, b]).merge(c)
    right_first = LatencyHistogram.merged([b, c])
    assert left_first == LatencyHistogram.merged([a, right_first])


@settings(derandomize=True)
@given(values=_values)
def test_property_empty_is_identity(values):
    """Merging an empty histogram changes nothing, either direction."""
    hist = _single_shot(values)
    empty = LatencyHistogram()
    assert LatencyHistogram.merged([hist, empty]) == hist
    assert LatencyHistogram.merged([empty, hist]) == hist


@settings(derandomize=True)
@given(values=_values, q=_quantile)
def test_property_quantile_within_recorded_range(values, q):
    """Quantiles are clamped into the exact recorded [min, max]."""
    if not values:
        assert _single_shot(values).quantile(q) is None
        return
    hist = _single_shot(values)
    result = hist.quantile(q)
    assert min(values) <= result <= max(values)


@settings(derandomize=True)
@given(
    value=st.floats(min_value=1e-3, max_value=1e8, allow_nan=False)
)
def test_property_bucket_relative_error(value):
    """The bucket envelope bounds values to ~1/SUBBUCKETS relative error."""
    index = bucket_index(value)
    upper = bucket_upper(index)
    assert value <= upper
    # the bucket's width is one sub-bucket of its binade
    assert upper <= value * (1.0 + 1.0 / SUBBUCKETS) + 1e-12


@settings(derandomize=True)
@given(values=_values, q=_quantile)
def test_property_quantile_at_value_matches_quantile(values, q):
    """quantile_at returns exactly quantile()'s value, plus the flag."""
    hist = _single_shot(values)
    value, estimated = hist.quantile_at(q)
    assert value == hist.quantile(q)
    if value is None:
        assert not estimated


@settings(derandomize=True)
@given(values=_values, q=_quantile)
def test_property_saturated_quantiles_are_flagged(values, q):
    """estimated ⇔ the rank clamps to the max sample (and q < 1)."""
    if not values:
        return
    hist = _single_shot(values)
    value, estimated = hist.quantile_at(q)
    expected = q < 1.0 and math.ceil(q * hist.count) >= hist.count
    assert estimated == expected
    if estimated:
        # a saturated quantile reports the recorded maximum
        assert value == hist.quantile(1.0)


def test_small_sample_tail_is_estimated():
    """The PR-10 fix: p999 of a 5-sample histogram is flagged, not
    silently reported as a resolved percentile equal to the max."""
    hist = _single_shot([1.0, 2.0, 3.0, 4.0, 5.0])
    p999, estimated = hist.quantile_at(0.999)
    assert estimated
    assert p999 == hist.quantile(1.0)
    # p50 of the same sample resolves exactly — not flagged
    _, est50 = hist.quantile_at(0.5)
    assert not est50
    # and the summary names exactly the saturated quantiles
    assert hist.summary()["estimated"] == ["p95", "p99", "p999"]


def test_large_sample_tail_not_estimated():
    """With >=1000 samples every canonical quantile resolves."""
    hist = _single_shot([float(i + 1) for i in range(1000)])
    assert hist.summary()["estimated"] == []
    _, est = hist.quantile_at(0.999)
    assert not est


@settings(derandomize=True)
@given(values=_values)
def test_property_roundtrip_dict(values):
    """to_dict/from_dict is a lossless round trip."""
    hist = _single_shot(values)
    clone = LatencyHistogram.from_dict(hist.to_dict())
    assert clone == hist
    assert clone.summary() == hist.summary()


@settings(derandomize=True)
@given(values=_values)
def test_property_sum_is_order_independent(values):
    """Integer tick accumulation makes the mean permutation-invariant."""
    forward = _single_shot(values)
    backward = _single_shot(list(reversed(values)))
    assert forward.sum_ticks == backward.sum_ticks
    assert forward.mean == backward.mean
    if values:
        # each sample quantizes to the nearest tick: the mean is within
        # half a tick (plus float rounding) of the true average
        expected = sum(values) / len(values)
        assert math.isclose(
            forward.mean,
            expected,
            rel_tol=1e-3,
            abs_tol=0.5 / TICKS_PER_UNIT,
        )


# Distinct latencies with repeat counts, as the serving collector keeps
# them: exact zeros, subnormals, the realistic range and huge values
# (bounded so ``value * TICKS_PER_UNIT`` stays finite).
_counted = st.dictionaries(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=5e-324, max_value=2.2e-308),
        st.floats(min_value=1e-3, max_value=1e8),
        st.floats(min_value=1e250, max_value=1e300),
    ),
    st.integers(min_value=1, max_value=40),
    max_size=30,
)


@settings(derandomize=True)
@given(counts=_counted, rng=st.randoms(use_true_random=False))
def test_property_fold_per_distinct_value_equals_single_records(counts, rng):
    """``record(v, n)`` once per distinct value is bit-identical to n
    single ``record(v)`` calls, whatever order either side runs in."""
    singles = [value for value, n in counts.items() for _ in range(n)]
    rng.shuffle(singles)
    items = list(counts.items())
    rng.shuffle(items)
    folded = LatencyHistogram()
    for value, n in items:
        folded.record(value, n)
    whole = _single_shot(singles)
    assert folded == whole
    assert folded.summary() == whole.summary()
    assert folded.to_dict() == whole.to_dict()
