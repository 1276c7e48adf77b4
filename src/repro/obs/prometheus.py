"""Prometheus text-format exposition of the metrics registry.

Renders a :class:`~repro.service.metrics.MetricsRegistry` as the
Prometheus text format (version 0.0.4): counters get a ``_total``
suffix, gauges render verbatim, histograms emit cumulative
``_bucket{le=...}`` series plus ``_sum``/``_count`` — all under the
``taxiqueue_`` namespace with dotted registry names flattened to
underscores.

The output is *structurally* deterministic: metric order, names,
label sets and HELP/TYPE lines depend only on which instruments exist,
never on their values — which is what lets the golden-exposition test
pin the format while tolerating value drift.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # an annotation only: repro.obs loads no serving code
    from repro.service.metrics import MetricsRegistry

#: Namespace prefix of every exposed metric.
PREFIX = "taxiqueue_"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: HELP text for well-known registry names; anything else gets a
#: generic line so the exposition is always self-describing.
HELP_TEXTS: Dict[str, str] = {
    "bootstrap.seconds": "Wall time of the batch tier-1/tier-2 bootstrap.",
    "bootstrap.spots": "Queue spots detected during bootstrap.",
    "bootstrap.records": "Records replayed by the streaming path.",
    "http.request_seconds": "HTTP request handling latency.",
    "http.cache_hits": "Response-cache hits.",
    "http.cache_misses": "Response-cache misses.",
    "http.not_modified": "Conditional requests answered 304.",
    "http.degraded": "Reads served from the last-good body.",
    "http.cache_evictions": "Response-cache bodies evicted (LRU bound).",
    "http.shed": "Requests shed with 429 by admission control.",
    "http.shed.rate": "Requests shed by the token-bucket rate limit.",
    "http.shed.inflight": "Requests shed by the in-flight budget.",
    "http.shed.connection": "Connections refused by the connection budget.",
    "http.inflight": "Requests currently inside the handlers.",
    "http.inflight_peak": "High-water mark of concurrent requests.",
    "admission.admitted": "Requests that passed every admission check.",
    "replay.records": "Records fed into the streaming monitor.",
    "replay.slots_finalized": "Spot-slots finalized by the monitor.",
    "replay.nonmonotonic_records": "Out-of-order records seen unbuffered.",
    "replay.crashes": "Replay loops aborted by an exception.",
    "replay.stream_clock": "Stream timestamp of the replay head.",
    "snapshot.version": "Current snapshot version (HTTP ETag).",
    "snapshot.slots_held": "Finalized spot-slots held in the snapshot.",
    "snapshot.updates": "Snapshot batches absorbed.",
    "snapshot.slot_results": "Individual slot results absorbed.",
    "watchdog.staleness_seconds": "Seconds since the snapshot advanced.",
    "watchdog.stale": "1 while staleness exceeds the threshold.",
}


def metric_name(name: str) -> str:
    """Flatten a dotted registry name into a Prometheus metric name."""
    flat = _INVALID.sub("_", name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return PREFIX + flat


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _help_line(name: str, kind: str) -> str:
    text = HELP_TEXTS.get(name, f"Registry {kind} {name}.")
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry as Prometheus exposition text."""
    counters, gauges, histograms = registry.instruments()
    lines = []
    for name, counter in sorted(counters.items()):
        flat = metric_name(name) + "_total"
        lines.append(f"# HELP {flat} {_help_line(name, 'counter')}")
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_format_value(counter.value)}")
    for name, gauge in sorted(gauges.items()):
        flat = metric_name(name)
        lines.append(f"# HELP {flat} {_help_line(name, 'gauge')}")
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_format_value(gauge.value)}")
    for name, histogram in sorted(histograms.items()):
        flat = metric_name(name)
        lines.append(f"# HELP {flat} {_help_line(name, 'histogram')}")
        lines.append(f"# TYPE {flat} histogram")
        for bound, count in histogram.bucket_counts():
            le = "+Inf" if math.isinf(bound) else _format_value(bound)
            lines.append(f'{flat}_bucket{{le="{le}"}} {count}')
        lines.append(f"{flat}_sum {_format_value(histogram.sum)}")
        lines.append(f"{flat}_count {histogram.count}")
    return "\n".join(lines) + "\n"
