"""Live queue-state serving layer.

The paper's deployed system (section 7.1) exposes tier-1/tier-2 results
to a frontend over a live backend; this package is that serving side for
the reproduction:

* :mod:`repro.service.snapshot` — a versioned :class:`SnapshotStore` of
  the current spot set and per-spot slot labels, updated incrementally
  from :class:`~repro.stream.StreamingQueueMonitor` callbacks;
* :mod:`repro.service.http` — a stdlib threaded HTTP/JSON API
  (``/v1/spots``, ``/v1/spots/{id}/slots``, ``/v1/citywide``,
  ``/v1/healthz``, ``/v1/metrics``) with ETag revalidation and TTL
  response caching;
* :mod:`repro.service.admission` — token-bucket rate limiting,
  in-flight budgets and per-route caps; over-budget requests are shed
  with ``429 + Retry-After`` (see ``docs/load.md``);
* :mod:`repro.service.metrics` — counters, gauges and latency
  histograms instrumented across server, store and ingest;
* :mod:`repro.service.replay` — paced replay of a recorded day into the
  monitor at a configurable speedup;
* :mod:`repro.service.app` — :class:`QueueService`, the one-call
  assembly used by ``taxiqueue serve``.

See ``docs/service.md`` for endpoint and snapshot semantics.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.service.app import EmptyDayError, QueueService, ServiceConfig
from repro.service.http import QueueStateServer, Response, ResponseCache
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service.replay import StreamReplayer
from repro.service.snapshot import SnapshotStore

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "Counter",
    "EmptyDayError",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueueService",
    "QueueStateServer",
    "Response",
    "ResponseCache",
    "ServiceConfig",
    "SnapshotStore",
    "StreamReplayer",
]
