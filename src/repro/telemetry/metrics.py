"""Process-local metrics: counters, gauges, bounded-bucket histograms.

One :class:`MetricsRegistry` per process (:func:`get_metrics`); every
instrument is create-on-first-use by name, so call sites never need a
wiring step:

    get_metrics().counter("store.hits").inc()
    get_metrics().histogram("engine.minibatch_s").observe(dt)

Snapshots (``to_dict()``) are plain-JSON and **mergeable**: a
coordinator folds the latest snapshot from each worker plus its own
registry into one fleet view with :func:`merge_snapshots`.  Counters
add, gauges keep the last write, histograms add bucket-wise (bucket
bounds must agree — all callers use the shared defaults unless they
own the name).

Existing ad-hoc stats (``WorkerStats``, ``ArtifactSync`` counters,
``CacheStats``) keep their public shapes — the registry mirrors them
under stable dotted names, and is the thing shipped over the wire.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "get_metrics",
    "merge_snapshots",
]

#: Default bucket upper bounds for duration histograms, in seconds.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class Counter:
    """Monotonic add-only counter (floats allowed: byte totals, seconds)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Bounded-bucket histogram: cumulative-free per-bucket counts plus
    count/sum/min/max, so merged snapshots stay exact."""

    __slots__ = ("_lock", "buckets", "counts", "count", "total", "min", "max")

    def __init__(
        self, lock: threading.Lock, buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS
    ) -> None:
        self._lock = lock
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        # one slot per bound plus the overflow bucket
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Thread-safe, create-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = Counter(self._lock)
                self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = Gauge(self._lock)
                self._gauges[name] = instrument
            return instrument

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = Histogram(self._lock, buckets)
                self._histograms[name] = instrument
            return instrument

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON snapshot (the wire/merge format)."""

        with self._lock:
            return {
                "counters": {
                    name: instrument.value
                    for name, instrument in sorted(self._counters.items())
                },
                "gauges": {
                    name: instrument.value
                    for name, instrument in sorted(self._gauges.items())
                },
                "histograms": {
                    name: instrument.snapshot()
                    for name, instrument in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a ``to_dict()``-shaped snapshot into this registry."""

        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(value)
        for name, data in (snapshot.get("histograms") or {}).items():
            hist = self.histogram(name, data.get("buckets") or DEFAULT_SECONDS_BUCKETS)
            with self._lock:
                _fold_histogram_locked(hist, data)


def _fold_histogram_locked(hist: Histogram, data: Mapping[str, Any]) -> None:
    counts = data.get("counts") or []
    if list(data.get("buckets") or []) == list(hist.buckets) and len(counts) == len(
        hist.counts
    ):
        for idx, n in enumerate(counts):
            hist.counts[idx] += n
    else:  # bucket mismatch: fold the overflow slot so totals stay exact
        hist.counts[-1] += int(data.get("count") or 0)
    hist.count += int(data.get("count") or 0)
    hist.total += float(data.get("sum") or 0.0)
    for bound, pick in (("min", min), ("max", max)):
        incoming = data.get(bound)
        if incoming is None:
            continue
        current = getattr(hist, bound)
        setattr(hist, bound, incoming if current is None else pick(current, incoming))


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge ``to_dict()`` snapshots (e.g. one per worker) into one view."""

    merged = MetricsRegistry()
    for snapshot in snapshots:
        if snapshot:
            merged.merge(snapshot)
    return merged.to_dict()


_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry instrumented code records into."""

    return _REGISTRY
