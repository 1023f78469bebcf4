"""Labeled run metrics: counters, gauges and histograms in a registry.

The registry is the numeric backbone of the observability layer: the
protocol's trace stream (folded by :class:`~repro.obs.sinks.MetricsSink`),
the run driver (network traffic, derived at run end) and the bench
executor record into it when (and only when) a registry is attached.
Everything the paper plots is expressible as a metric —
threshold values, redirection chain lengths, diff sizes, fault-in
latencies in simulated microseconds, migration counts — labeled by node,
object or policy as appropriate.

Design constraints:

* **cheap** — instruments are plain ``__slots__`` objects whose
  ``inc``/``set``/``observe`` are attribute arithmetic that rejects
  non-finite values;
* **cross-process aggregation** — :meth:`MetricsRegistry.snapshot` is a
  stable, JSON-friendly plain structure; :meth:`MetricsRegistry.merge`
  folds another registry *or* a snapshot dict in (counters and
  histograms add, gauges last-write-wins), so a parallel sweep's
  per-process registries reduce to one cluster-wide view;
* **deterministic output** — snapshots sort by ``(name, labels)``, so
  two runs of the same spec produce byte-identical snapshots.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable, Mapping

#: Default histogram bucket upper bounds — log-spaced to cover everything
#: from sub-microsecond spans to multi-second simulated latencies (µs)
#: and from single bytes to megabyte diffs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0
)

_LabelsKey = tuple[tuple[str, Any], ...]


def _finite(value: float, what: str) -> None:
    """Reject NaN and ±inf: one would poison the instrument for good."""
    if not math.isfinite(value):
        raise ValueError(f"{what} needs a finite value, got {value!r}")


class Counter:
    """A monotonically increasing count (events, messages, migrations)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (must be finite and non-negative) to the counter."""
        _finite(n, "Counter.inc")
        if n < 0:
            raise ValueError(f"cannot decrement a counter by {n}")
        self.value += n


class Gauge:
    """A point-in-time value (live threshold, queue depth, home count)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with the latest (finite) observation."""
        _finite(value, "Gauge.set")
        self.value = value


class Histogram:
    """A bucketed distribution (latencies, sizes, chain lengths).

    Tracks per-bucket counts (``bucket_counts[i]`` counts observations
    ``<= buckets[i]``; the final slot is the overflow), plus running
    count/sum/min/max so means and extremes survive aggregation.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.buckets: tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts: list[int] = [0] * (len(self.buckets) + 1)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one (finite) observation."""
        if not -math.inf < value < math.inf:
            _finite(value, "Histogram.observe")
        # the first bound >= value; past the last, the overflow slot
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


def _labels_key(labels: Mapping[str, Any]) -> _LabelsKey:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Registry of labeled instruments with mergeable snapshots.

    Instruments are created on first use and memoized by
    ``(name, sorted labels)``::

        reg = MetricsRegistry()
        reg.counter("dsm_migrations_total", node=3).inc()
        reg.histogram("dsm_fault_in_us", node=3).observe(412.5)
        reg.gauge("dsm_threshold", oid=7).set(2.0)

    ``snapshot()`` emits a plain sorted dict; ``merge()`` folds in another
    registry or snapshot (counters/histograms add, gauges last-write-wins);
    ``from_snapshot()`` rebuilds a registry, so snapshots shipped across
    process boundaries by the parallel executor aggregate losslessly.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, _LabelsKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelsKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelsKey], Histogram] = {}

    # -- instrument accessors ---------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter registered under ``name`` + ``labels`` (create once)."""
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge registered under ``name`` + ``labels`` (create once)."""
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """The histogram under ``name`` + ``labels`` (create once;
        ``buckets`` only applies at creation)."""
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    # -- introspection ------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0 if never touched)."""
        entry = self._counters.get((name, _labels_key(labels)))
        return entry.value if entry is not None else 0

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all label sets (0 if never touched)."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> dict:
        """Stable, JSON-friendly copy of every instrument.

        Entries are sorted by ``(name, labels)``; two identical runs
        produce identical snapshots.
        """
        def sort_key(item):
            (name, labels), _ = item
            return (name, labels)

        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": c.value}
                for (name, labels), c in sorted(
                    self._counters.items(), key=sort_key
                )
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": g.value}
                for (name, labels), g in sorted(
                    self._gauges.items(), key=sort_key
                )
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "buckets": list(h.buckets),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min,
                    "max": h.max,
                }
                for (name, labels), h in sorted(
                    self._histograms.items(), key=sort_key
                )
            ],
        }

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        """Fold ``other`` (a registry or a snapshot dict) into this one.

        Counters and histograms accumulate; gauges take ``other``'s value
        (last write wins).  Histograms merge bucket-wise, which requires
        identical bucket bounds for the same ``(name, labels)``.
        Returns ``self`` for chaining.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        self._check_mergeable(snap)
        for entry in snap.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in snap.get("gauges", ()):
            self.gauge(entry["name"], **entry["labels"]).set(entry["value"])
        for entry in snap.get("histograms", ()):
            hist = self.histogram(
                entry["name"], buckets=entry["buckets"], **entry["labels"]
            )
            for i, n in enumerate(entry["bucket_counts"]):
                hist.bucket_counts[i] += n
            hist.count += entry["count"]
            hist.sum += entry["sum"]
            for bound_name, pick in (("min", min), ("max", max)):
                theirs = entry[bound_name]
                if theirs is None:
                    continue
                ours = getattr(hist, bound_name)
                setattr(
                    hist,
                    bound_name,
                    theirs if ours is None else pick(ours, theirs),
                )
        return self

    def _check_mergeable(self, snap: dict) -> None:
        """Reject a snapshot :meth:`merge` would fold in only partly.

        Checked before anything is folded, so a rejected snapshot leaves
        the registry unchanged: finite values, non-negative counters,
        and histograms with ascending bounds (the same as this
        registry's instrument, if it has one), one count per bucket plus
        the overflow, and counts that sum to ``count``.
        """
        for section in ("counters", "gauges"):
            for entry in snap.get(section, ()):
                value = entry["value"]
                if not math.isfinite(value) or (
                    section == "counters" and value < 0
                ):
                    raise ValueError(
                        f"cannot merge {section[:-1]} {entry['name']!r}: "
                        f"value {value!r}"
                    )
        for entry in snap.get("histograms", ()):
            name = entry["name"]
            buckets = list(entry["buckets"])
            counts = entry["bucket_counts"]
            mine = self._histograms.get((name, _labels_key(entry["labels"])))
            if not buckets or buckets != sorted(buckets):
                problem = f"bucket bounds {buckets} are not ascending"
            elif mine is not None and list(mine.buckets) != buckets:
                problem = (
                    f"bucket bounds differ ({list(mine.buckets)} vs "
                    f"{buckets})"
                )
            elif len(counts) != len(buckets) + 1:
                problem = (
                    f"{len(counts)} bucket counts for {len(buckets)} "
                    f"bounds (need {len(buckets) + 1})"
                )
            elif sum(counts) != entry["count"]:
                problem = (
                    f"bucket counts sum to {sum(counts)}, count is "
                    f"{entry['count']}"
                )
            else:
                continue
            raise ValueError(f"cannot merge histogram {name!r}: {problem}")

    @classmethod
    def from_snapshot(cls, snap: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict."""
        return cls().merge(snap)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
