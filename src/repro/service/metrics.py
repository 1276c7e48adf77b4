"""A lightweight in-process metrics registry for the serving layer.

The deployed system (paper section 7.1) runs as a live backend; operating
such a service needs visibility into request rates, snapshot churn and
tail latency.  This module provides the three classic instrument kinds —
:class:`Counter`, :class:`Gauge` and :class:`Histogram` — behind a
:class:`MetricsRegistry` that hands out get-or-create instruments by
name and renders one JSON-able snapshot of everything.

Design constraints:

* stdlib only (the HTTP layer exposes the snapshot at ``/v1/metrics``);
* thread-safe: the HTTP server is threaded and the replay path runs in
  its own thread, so every instrument guards its state with a lock;
* bounded memory: histograms keep a fixed-size window of recent
  observations for quantiles plus exact lifetime count/sum.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Default latency bucket upper bounds in seconds.  Chosen for the
#: service's two observed regimes — sub-millisecond cache hits and
#: multi-second batch stages — with Prometheus-conventional spacing so
#: the exposition's ``le`` label set is stable across runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The ``q``-quantile of an ascending-sorted non-empty sequence by
    the nearest-rank method (no interpolation): the value at rank
    ``ceil(q * N)`` (1-based).

    The one percentile of the code base: :class:`Histogram`, the load
    harness's latency recorder (:mod:`repro.load.recorder`) and
    ``trace summarize`` (:mod:`repro.obs.summary`) all report through
    it.  The epsilon guards float noise like ``0.95 * 20 ==
    19.0000...04`` from bumping the rank up a slot.

    Raises:
        ValueError: for an empty sequence or a quantile outside [0, 1].
    """
    if not ordered:
        raise ValueError("nearest_rank needs at least one observation")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter.

        Raises:
            ValueError: for a negative amount.
        """
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (e.g. the snapshot version)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Observation distribution with windowed quantiles.

    Keeps the exact lifetime ``count`` and ``sum`` plus a ring buffer of
    the most recent ``window`` observations; quantiles are computed over
    the window (recent behaviour is what an operator watches).

    Cumulative bucket counts (Prometheus ``le`` semantics: observations
    ``<= bound``) are maintained exactly over the lifetime, under the
    same lock as ``count``/``sum`` so a concurrent scrape can never see
    a bucket ahead of the count it belongs to.
    """

    def __init__(
        self,
        name: str,
        window: int = 4096,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        if window < 1:
            raise ValueError("window must hold at least one observation")
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.name = name
        self.window = window
        self.bucket_bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._ring: List[float] = []
        self._next = 0
        self._count = 0
        self._sum = 0.0
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            index = bisect_left(self.bucket_bounds, value)
            if index < len(self._bucket_counts):
                self._bucket_counts[index] += 1
            if len(self._ring) < self.window:
                self._ring.append(value)
            else:
                self._ring[self._next] = value
            self._next = (self._next + 1) % self.window

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending with the
        implicit ``(inf, lifetime count)`` bucket."""
        with self._lock:
            raw = list(self._bucket_counts)
            total = self._count
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bucket_bounds, raw):
            running += count
            out.append((bound, running))
        out.append((float("inf"), total))
        return out

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (0..1) over the recent window, or None when
        nothing was observed.

        Raises:
            ValueError: for a quantile outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if not self._ring:
                return None
            ordered = sorted(self._ring)
        return nearest_rank(ordered, q)

    def summary(self) -> dict:
        """Count, sum, mean, max and the p50/p90/p99 quantiles."""
        with self._lock:
            if not self._ring:
                return {"count": self._count, "sum": self._sum}
            count, total, peak = self._count, self._sum, self._max
            ordered = sorted(self._ring)

        def pick(q: float) -> float:
            return nearest_rank(ordered, q)

        return {
            "count": count,
            "sum": total,
            "mean": total / count,
            "max": peak,
            "p50": pick(0.50),
            "p90": pick(0.90),
            "p99": pick(0.99),
        }


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Instrument names are dotted paths (``http.requests.spots``); a name
    is bound to one kind for the registry's lifetime.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _get(self, table: dict, other_tables: tuple, name: str, factory):
        with self._lock:
            instrument = table.get(name)
            if instrument is None:
                for other in other_tables:
                    if name in other:
                        raise ValueError(
                            f"metric {name!r} already registered with a "
                            "different kind"
                        )
                instrument = table[name] = factory(name)
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(
            self._counters, (self._gauges, self._histograms), name, Counter
        )

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(
            self._gauges, (self._counters, self._histograms), name, Gauge
        )

    def histogram(
        self,
        name: str,
        window: int = 4096,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(
            self._histograms,
            (self._counters, self._gauges),
            name,
            lambda n: Histogram(n, window=window, buckets=buckets),
        )

    def instruments(
        self,
    ) -> Tuple[Dict[str, Counter], Dict[str, Gauge], Dict[str, Histogram]]:
        """Consistent copies of the three instrument tables (for
        exposition renderers that need more than :meth:`snapshot`'s
        JSON reduction, e.g. histogram buckets)."""
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                dict(self._histograms),
            )

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Context manager recording elapsed seconds into histogram
        ``name``."""
        histogram = self.histogram(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            histogram.observe(time.perf_counter() - start)

    def snapshot(self) -> dict:
        """All instruments as one JSON-able mapping."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(histograms.items())
            },
        }
