"""Server-side admission control for the serving layer.

The ROADMAP's north star is "heavy traffic from millions of users"; a
serving layer that accepts every request it is offered does not get
there — it falls over.  This module is the gatekeeper in front of the
HTTP request handlers (:mod:`repro.service.http`):

* a :class:`TokenBucket` bounds the *sustained* request rate (with a
  configurable burst allowance) so an overload is shed early and
  cheaply, before any serialization work;
* a global **in-flight budget** bounds how many requests are inside
  the handlers at once — the threaded server may hold many open
  connections, but only ``max_inflight`` of them do work
  simultaneously.

A request that fails any check is *shed*: the server answers ``429 Too
Many Requests`` with a ``Retry-After`` hint instead of queueing it —
the existing never-5xx invariant is preserved, clients get an honest
backpressure signal, and the shed path costs microseconds.  Decisions
are fully accounted in the metrics registry:

* ``http.shed`` (plus ``http.shed.rate`` / ``http.shed.inflight``) —
  shed totals by reason;
* ``http.inflight`` / ``http.inflight_peak`` — live and high-water
  queue depth inside the handlers;
* ``admission.admitted`` — requests that passed every check.

Every clock read goes through an injectable ``clock`` callable so the
token-bucket arithmetic is exactly testable (and Hypothesis can drive
it with synthetic timelines).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.service.metrics import MetricsRegistry

#: Shed reasons (also the metric suffixes of ``http.shed.<reason>``).
SHED_RATE = "rate"
SHED_INFLIGHT = "inflight"


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check.

    ``retry_after_s`` is the server's backoff hint: for a rate-limit
    shed it is the exact time until the bucket refills one token; for
    a concurrency shed it is a fixed small hint (the slot frees when
    some in-flight request finishes, which the bucket cannot predict).
    """

    admitted: bool
    reason: Optional[str] = None
    retry_after_s: float = 0.0

    @property
    def retry_after_header(self) -> str:
        """``Retry-After`` is delta-seconds, integral, at least 1."""
        return str(max(1, math.ceil(self.retry_after_s)))


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s, capacity ``burst``.

    The bucket starts full.  :meth:`try_acquire` consumes one token
    when available; otherwise it reports the exact seconds until the
    next token accrues.  The arithmetic invariant tests rely on: over
    any span ``T`` between the first and last acquire attempt, at most
    ``burst + rate * T`` acquisitions can succeed.

    Args:
        rate: sustained tokens per second (must be positive).
        burst: bucket capacity; defaults to ``max(1, ceil(rate))``
            (one second's worth of burst).
        clock: monotonic-seconds source, injectable for tests.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive tokens/second")
        if burst is None:
            burst = max(1, math.ceil(rate))
        if burst < 1:
            raise ValueError("burst must hold at least one token")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(self.burst)
        self._last = clock()
        self._lock = threading.Lock()
        self.admitted = 0
        self.denied = 0

    def _refill(self, now: float) -> None:
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(
                float(self.burst), self._tokens + elapsed * self.rate
            )
        self._last = now

    def try_acquire(self) -> AdmissionDecision:
        """Consume one token, or report how long until one exists."""
        with self._lock:
            self._refill(self._clock())
            # Tolerance for float refill dust: a request paced exactly
            # at 1/rate must never be shed because 1/3 + 1/3 + 1/3 < 1.
            if self._tokens >= 1.0 - 1e-9:
                self._tokens = max(0.0, self._tokens - 1.0)
                self.admitted += 1
                return AdmissionDecision(True)
            self.denied += 1
            wait = (1.0 - self._tokens) / self.rate
            return AdmissionDecision(False, SHED_RATE, wait)

    @property
    def tokens(self) -> float:
        """The current token count (refilled to now)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class AdmissionController:
    """Combined rate / in-flight admission for the server.

    Checks run cheapest-first: the token bucket (pure arithmetic), then
    the global in-flight budget.  A request admitted by :meth:`admit`
    *must* be balanced by :meth:`release` — the HTTP layer does so in a
    ``finally``.

    Args:
        max_inflight: global bound on concurrently handled requests
            (None = unbounded).
        rate_limit: sustained requests/second fed to the token bucket
            (None = no rate limiting).
        burst: token-bucket capacity override.
        metrics: registry for the shed/in-flight accounting.
        clock: monotonic-seconds source, injectable for tests.
    """

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        rate_limit: Optional[float] = None,
        burst: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must admit at least one request")
        self.max_inflight = max_inflight
        self.bucket = (
            TokenBucket(rate_limit, burst, clock)
            if rate_limit is not None
            else None
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._inflight = 0
        self._peak = 0
        self.metrics.gauge("http.inflight").set(0)
        self.metrics.gauge("http.inflight_peak").set(0)

    # -- admission ---------------------------------------------------------------

    def admit(self) -> AdmissionDecision:
        """Try to admit one request."""
        if self.bucket is not None:
            decision = self.bucket.try_acquire()
            if not decision.admitted:
                self._count_shed(SHED_RATE)
                return decision
        with self._lock:
            full = (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            )
            if not full:
                self._inflight += 1
                self._peak = max(self._peak, self._inflight)
                inflight, peak = self._inflight, self._peak
        if full:
            self._count_shed(SHED_INFLIGHT)
            return AdmissionDecision(False, SHED_INFLIGHT, 1.0)
        self.metrics.counter("admission.admitted").inc()
        self.metrics.gauge("http.inflight").set(inflight)
        self.metrics.gauge("http.inflight_peak").set(peak)
        return AdmissionDecision(True)

    def release(self) -> None:
        """Return the slot taken by an admitted request."""
        with self._lock:
            self._inflight -= 1
            inflight = self._inflight
        self.metrics.gauge("http.inflight").set(inflight)

    def _count_shed(self, reason: str) -> None:
        self.metrics.counter("http.shed").inc()
        self.metrics.counter(f"http.shed.{reason}").inc()

    # -- introspection -----------------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def peak_inflight(self) -> int:
        """High-water mark of concurrently handled requests."""
        with self._lock:
            return self._peak
