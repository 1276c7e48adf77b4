"""Threaded HTTP/JSON API over a :class:`SnapshotStore`.

Stdlib only (``http.server.ThreadingHTTPServer``); the endpoint set
mirrors what the paper's frontend queries (section 7.1):

* ``GET /v1/spots`` — every spot with its current queue context;
* ``GET /v1/spots/{id}/slots`` — one spot's finalized slot history;
* ``GET /v1/citywide`` — live queue-type proportions (Table 7);
* ``GET /v1/healthz`` — liveness plus snapshot version and uptime;
* ``GET /v1/metrics`` — the metrics registry snapshot.

When the service runs with a durable history
(:mod:`repro.history`), three more endpoints come up:

* ``GET /v1/spots/{id}/history`` — one spot's multi-day slot records,
  paginated (``page``/``per_page``), optionally downsampled
  (``downsample=k`` folds k consecutive slots) or summarized as a
  day-of-week × slot profile (``view=profile``);
* ``GET /v1/history/citywide`` — per-day citywide summaries over a
  ``start_day``/``end_day`` epoch-day range;
* ``GET /v1/history/patterns`` — the week-level section-6 numbers
  (per-zone spot counts and C1–C4 mixes per day of week).

History endpoints carry their own strong ETag (``"h<version>"``, the
segment store's write version) and share the TTL body cache, keyed on
path *plus query string*.

Snapshot-derived endpoints carry a strong ``ETag`` equal to the snapshot
version; a conditional ``If-None-Match`` request is answered ``304 Not
Modified`` until new slot results advance the version.  Serialized bodies
are cached per endpoint with a TTL, keyed on the version, so a hot
endpoint serves bytes without re-serializing under load.

**Degraded serving.**  Read endpoints never answer 5xx: the server
remembers the last successfully serialized body per path and, when a
payload build raises (a fault mid-ingest, a poisoned snapshot), serves
that last-good body with an ``X-Degraded: stale`` header instead of an
error — the behaviour a city-facing frontend wants from a telemetry
backend.  A history body depends on the query string, so a history
route's last-good body is served only to the query that built it; any
other query gets the explicit empty degraded payload.  Degradations
are counted in ``http.degraded``; pair the server with a
:class:`~repro.resilience.ServiceWatchdog` so staleness is visible at
``/v1/metrics`` and ``/v1/healthz`` while the ingest path recovers.

**Admission control.**  With ``max_inflight`` / ``rate_limit`` /
``route_caps`` set, every route except ``/v1/healthz`` passes through
an :class:`~repro.service.admission.AdmissionController` before any
payload work; a request over budget is shed with ``429 Too Many
Requests`` plus a ``Retry-After`` hint (never a 5xx, never an
unbounded queue).  ``max_connections`` additionally bounds how many
connection-handling threads the listener will run at once — an excess
connection is answered with a raw 429 and closed before a handler
thread parses anything.  See ``docs/load.md`` for the full contract.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.service.admission import AdmissionController
from repro.service.metrics import MetricsRegistry
from repro.service.snapshot import SnapshotStore

#: Routes never subjected to admission control: liveness probes must
#: keep answering while the service sheds load (that is their job).
ADMISSION_EXEMPT_ROUTES = frozenset({"healthz"})

#: Default bound on distinct cached bodies (see :class:`ResponseCache`).
DEFAULT_CACHE_ENTRIES = 1024


class _BadQuery(ValueError):
    """A request carried an invalid query parameter (HTTP 400)."""


def _query_int(params: Dict[str, list], name: str, default=None):
    """The last occurrence of an integer query parameter."""
    values = params.get(name)
    if not values:
        return default
    try:
        return int(values[-1])
    except ValueError:
        raise _BadQuery(f"{name} must be an integer") from None


@dataclass
class Response:
    """One materialized HTTP response."""

    status: int
    body: bytes = b""
    etag: Optional[str] = None
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


def _json_body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class ResponseCache:
    """Bounded per-path TTL cache of serialized response bodies.

    An entry is served only while (a) the snapshot version it was built
    from is still current and (b) its TTL has not expired; either
    condition failing falls through to re-serialization.

    Keys include the query string for history routes, so hostile or
    merely diverse query mixes would grow the table without bound; the
    cache therefore holds at most ``max_entries`` bodies and evicts
    least-recently-used ones, reporting each eviction through
    ``on_evict`` (the server counts them in ``http.cache_evictions``).
    """

    def __init__(
        self,
        ttl_s: float,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
        on_evict: Optional[Callable[[int], None]] = None,
    ):
        if ttl_s < 0:
            raise ValueError("ttl must be non-negative")
        if max_entries < 1:
            raise ValueError("max_entries must hold at least one body")
        self.ttl_s = float(ttl_s)
        self.max_entries = int(max_entries)
        self._on_evict = on_evict
        self._entries: "OrderedDict[str, Tuple[int, float, bytes]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, path: str, version: int) -> Optional[bytes]:
        if self.ttl_s == 0:
            return None
        with self._lock:
            entry = self._entries.get(path)
            if entry is None:
                return None
            cached_version, expires, body = entry
            if cached_version != version or time.monotonic() >= expires:
                del self._entries[path]
                return None
            self._entries.move_to_end(path)
            return body

    def put(self, path: str, version: int, body: bytes) -> None:
        if self.ttl_s == 0:
            return
        evicted = 0
        with self._lock:
            self._entries[path] = (
                version,
                time.monotonic() + self.ttl_s,
                body,
            )
            self._entries.move_to_end(path)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted and self._on_evict is not None:
            self._on_evict(evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _Handler(BaseHTTPRequestHandler):
    """Thin shim: delegates to :meth:`QueueStateServer.respond`."""

    protocol_version = "HTTP/1.1"
    server_version = "taxiqueue"
    # Headers and body go out as separate writes; without TCP_NODELAY the
    # Nagle/delayed-ACK interaction stalls keep-alive throughput at
    # ~25 req/s per connection.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        app: "QueueStateServer" = self.server.app  # type: ignore[attr-defined]
        response = app.respond(
            self.path, if_none_match=self.headers.get("If-None-Match")
        )
        self.send_response(response.status)
        if response.etag is not None:
            self.send_header("ETag", response.etag)
        for name, value in response.headers.items():
            self.send_header(name, value)
        if response.status == 304:
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        self.wfile.write(response.body)

    def send_error(self, code, message=None, explain=None) -> None:
        """Answer the requests the stdlib rejects itself without a 5xx.

        ``BaseHTTPRequestHandler`` answers a method with no ``do_*``
        handler with 501, and an HTTP/2+ request line with a 505 page
        that has no status line, because it rejects the version before
        recording it.  Here any method other than GET gets 405 with
        ``Allow: GET``, and an unsupported version gets an HTTP/1.1
        400.  Both close the connection; other errors keep the stdlib
        answer.
        """
        if code == HTTPStatus.NOT_IMPLEMENTED:
            self.send_response(HTTPStatus.METHOD_NOT_ALLOWED)
            self.send_header("Allow", "GET")
            self.send_header("Content-Length", "0")
            self.send_header("Connection", "close")
            self.end_headers()
            return
        if code == HTTPStatus.HTTP_VERSION_NOT_SUPPORTED:
            self.request_version = self.protocol_version
            code = HTTPStatus.BAD_REQUEST
        super().send_error(code, message, explain)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging; metrics cover it."""


#: Raw shed answer for connections over the connection budget; sent
#: before any request parsing, so it costs one syscall.
_CONNECTION_SHED = (
    b"HTTP/1.1 429 Too Many Requests\r\n"
    b"Retry-After: 1\r\n"
    b"Content-Length: 0\r\n"
    b"Connection: close\r\n\r\n"
)


class _BoundedThreadingHTTPServer(ThreadingHTTPServer):
    """A listener with a hard cap on concurrent connection threads.

    ``ThreadingHTTPServer`` spawns one thread per accepted connection
    and never says no; with keep-alive clients that is an unbounded
    thread budget.  When the owning server sets ``connection_slots``,
    a connection that finds no free slot is answered with a canned 429
    and closed *before* a handler is constructed — the accept loop
    never blocks and thread count stays bounded.
    """

    daemon_threads = True
    request_queue_size = 128  # listen(2) backlog
    connection_slots: Optional[threading.BoundedSemaphore] = None

    def process_request_thread(self, request, client_address):
        slots = self.connection_slots
        if slots is None:
            super().process_request_thread(request, client_address)
            return
        if not slots.acquire(blocking=False):
            app = getattr(self, "app", None)
            if app is not None:
                app.metrics.counter("http.shed").inc()
                app.metrics.counter("http.shed.connection").inc()
            try:
                request.sendall(_CONNECTION_SHED)
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request_thread(request, client_address)
        finally:
            slots.release()


class QueueStateServer:
    """The serving front of the live queue-state subsystem.

    Args:
        store: the snapshot store to serve.
        metrics: registry instrumented with request counts, cache
            hits/misses and request latency; also exposed at
            ``/v1/metrics``.
        host, port: bind address (port 0 picks a free port).
        cache_ttl_s: per-endpoint TTL of serialized bodies (0 disables).
        watchdog: optional freshness watchdog; when set, its staleness
            reading is included in the ``/v1/healthz`` payload.
        history: optional
            :class:`~repro.history.HistoryQueryEngine`; enables the
            ``/v1/history/*`` and ``/v1/spots/{id}/history`` routes
            (404 without it).
        cache_max_entries: LRU bound on distinct cached bodies.
        max_inflight: global bound on concurrently handled requests;
            excess requests are shed with 429 (None = unbounded).
        rate_limit: sustained admitted requests/second through a token
            bucket (None = no rate limiting).
        rate_burst: token-bucket capacity override (defaults to one
            second's worth of tokens).
        route_caps: per-route concurrency bounds, keyed on route names
            (``spots``, ``citywide``, ``spot_slots``, ...).
        max_connections: bound on concurrent connection-handling
            threads; excess connections get a canned 429 and are
            closed unparsed (None = unbounded, stdlib behaviour).
        tracer: optional :class:`repro.obs.Tracer`; when set, each
            request runs under an ``http.request`` trace carrying the
            route, status and shed reason.
    """

    def __init__(
        self,
        store: SnapshotStore,
        metrics: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_ttl_s: float = 1.0,
        watchdog=None,
        history=None,
        cache_max_entries: int = DEFAULT_CACHE_ENTRIES,
        max_inflight: Optional[int] = None,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[int] = None,
        route_caps: Optional[Dict[str, int]] = None,
        max_connections: Optional[int] = None,
        tracer=None,
    ):
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The eviction counter is created lazily (first eviction) so a
        # server that never overflows its cache leaves the instrument
        # set — and the golden Prometheus exposition — untouched.
        self.cache = ResponseCache(
            cache_ttl_s,
            max_entries=cache_max_entries,
            on_evict=lambda n: self.metrics.counter(
                "http.cache_evictions"
            ).inc(n),
        )
        self.watchdog = watchdog
        self.history = history
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        self.admission: Optional[AdmissionController] = None
        if (
            max_inflight is not None
            or rate_limit is not None
            or route_caps
        ):
            self.admission = AdmissionController(
                max_inflight=max_inflight,
                rate_limit=rate_limit,
                burst=rate_burst,
                route_caps=route_caps,
                metrics=self.metrics,
            )
        # path -> (query the body answers, None for any query; body)
        self._last_good: Dict[str, Tuple[Optional[str], bytes]] = {}
        self._last_good_lock = threading.Lock()
        self._httpd = _BoundedThreadingHTTPServer((host, port), _Handler)
        if max_connections is not None:
            if max_connections < 1:
                raise ValueError("max_connections must be >= 1")
            self._httpd.connection_slots = threading.BoundedSemaphore(
                max_connections
            )
        self._httpd.app = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._started_at = time.monotonic()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve in a daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="queue-state-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- routing -----------------------------------------------------------------

    def respond(
        self, path: str, if_none_match: Optional[str] = None
    ) -> Response:
        """Materialize the response for one GET (socket-free, testable)."""
        path, _, query = path.partition("?")
        path = path.rstrip("/") or "/"
        route = self._route_name(path)
        with self.metrics.time("http.request_seconds"), self.tracer.trace(
            "http.request", route=route
        ) as span:
            response = self._admitted_route(path, route, if_none_match, query)
            span.set(status=response.status)
            if response.status == 429:
                span.set(shed=response.headers.get("X-Shed-Reason"))
        self.metrics.counter(f"http.requests.{route}").inc()
        self.metrics.counter(f"http.responses.{response.status}").inc()
        return response

    def _admitted_route(
        self, path: str, route: str, if_none_match: Optional[str], query: str
    ) -> Response:
        """Admission gate in front of the route handlers (429 on shed)."""
        admission = self.admission
        if admission is None or route in ADMISSION_EXEMPT_ROUTES:
            return self._guarded_route(path, if_none_match, query)
        decision = admission.admit(route)
        if not decision.admitted:
            return self._shed_response(decision)
        try:
            return self._guarded_route(path, if_none_match, query)
        finally:
            admission.release(route)

    def _guarded_route(
        self, path: str, if_none_match: Optional[str], query: str
    ) -> Response:
        try:
            return self._route(path, if_none_match, query)
        except Exception:
            # Reads must never 5xx; fall back to the freshest body
            # this path ever served (see "Degraded serving" above).
            return self._degraded_response(path, query)

    def _shed_response(self, decision) -> Response:
        """429 + Retry-After: the explicit backpressure answer."""
        body = _json_body(
            {
                "error": "server overloaded, retry later",
                "reason": decision.reason,
                "retry_after_s": round(decision.retry_after_s, 3),
            }
        )
        return Response(
            429,
            body,
            headers={
                "Retry-After": decision.retry_after_header,
                "X-Shed-Reason": decision.reason or "overload",
            },
        )

    def _route_name(self, path: str) -> str:
        parts = path.strip("/").split("/")
        if len(parts) == 4 and parts[:2] == ["v1", "spots"]:
            return "spot_history" if parts[3] == "history" else "spot_slots"
        if len(parts) == 3 and parts[:2] == ["v1", "history"]:
            return f"history_{parts[2]}"
        if len(parts) == 2 and parts[0] == "v1":
            return parts[1]
        return "unknown"

    def _route(
        self, path: str, if_none_match: Optional[str], query: str = ""
    ) -> Response:
        if path == "/v1/healthz":
            return Response(200, _json_body(self._health_payload()))
        if path == "/v1/metrics":
            return self._metrics_response(query)
        if path == "/v1/spots":
            return self._snapshot_response(
                path, if_none_match, self.store.spots_payload
            )
        if path == "/v1/citywide":
            return self._snapshot_response(
                path, if_none_match, self.store.citywide_payload
            )
        parts = path.strip("/").split("/")
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "spots"]
            and parts[3] == "slots"
        ):
            spot_id = parts[2]
            return self._snapshot_response(
                path,
                if_none_match,
                lambda: self.store.spot_slots_payload(spot_id),
            )
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "spots"]
            and parts[3] == "history"
        ):
            return self._spot_history_response(
                parts[2], path, query, if_none_match
            )
        if len(parts) == 3 and parts[:2] == ["v1", "history"]:
            if parts[2] == "citywide":
                return self._history_citywide_response(
                    path, query, if_none_match
                )
            if parts[2] == "patterns":
                return self._history_response(
                    path, query, if_none_match, lambda: self.history.patterns()
                )
        return Response(
            404, _json_body({"error": f"no such endpoint: {path}"})
        )

    # -- history routing ---------------------------------------------------------

    def _spot_history_response(
        self, spot_id: str, path: str, query: str, if_none_match: Optional[str]
    ) -> Response:
        params = parse_qs(query)
        view = params.get("view", ["records"])[-1]
        if view == "profile":
            return self._history_response(
                path,
                query,
                if_none_match,
                lambda: self.history.spot_profile(spot_id),
            )
        if view != "records":
            return Response(
                400, _json_body({"error": f"unknown view: {view!r}"})
            )

        def payload():
            from repro.history.query import DEFAULT_PER_PAGE

            return self.history.spot_history(
                spot_id,
                start_day=_query_int(params, "start_day"),
                end_day=_query_int(params, "end_day"),
                page=_query_int(params, "page", 1),
                per_page=_query_int(params, "per_page", DEFAULT_PER_PAGE),
                downsample=_query_int(params, "downsample", 1),
            )

        return self._history_response(path, query, if_none_match, payload)

    def _history_citywide_response(
        self, path: str, query: str, if_none_match: Optional[str]
    ) -> Response:
        params = parse_qs(query)
        return self._history_response(
            path,
            query,
            if_none_match,
            lambda: self.history.citywide(
                start_day=_query_int(params, "start_day"),
                end_day=_query_int(params, "end_day"),
            ),
        )

    def _history_response(
        self, path: str, query: str, if_none_match: Optional[str], payload_fn
    ) -> Response:
        """ETag + TTL-cache wrapper of the history routes.

        The ETag is the segment store's write version (prefixed ``h`` so
        it can never collide with a snapshot ETag) and the cache key
        includes the query string — same version, different pagination
        must not share a body.
        """
        if self.history is None:
            return Response(
                404,
                _json_body(
                    {"error": "history not enabled (serve --history-dir)"}
                ),
            )
        version = self.history.version
        etag = f'"h{version}"'
        if if_none_match is not None and etag in (
            tag.strip() for tag in if_none_match.split(",")
        ):
            self.metrics.counter("http.not_modified").inc()
            return Response(304, etag=etag)
        cache_key = f"{path}?{query}" if query else path
        body = self.cache.get(cache_key, version)
        if body is not None:
            self.metrics.counter("http.cache_hits").inc()
            return Response(200, body, etag=etag)
        self.metrics.counter("http.cache_misses").inc()
        try:
            payload = payload_fn()
        except _BadQuery as exc:
            return Response(400, _json_body({"error": str(exc)}))
        except ValueError as exc:
            # QueryError from the engine: invalid pagination/downsample.
            return Response(400, _json_body({"error": str(exc)}))
        if payload is None:
            return Response(
                404, _json_body({"error": "spot unknown to the history"})
            )
        body = _json_body(payload)
        self.cache.put(cache_key, version, body)
        with self._last_good_lock:
            self._last_good[path] = (query, body)
        return Response(200, body, etag=etag)

    def _metrics_response(self, query: str) -> Response:
        """``/v1/metrics``: JSON by default, ``?format=prometheus`` for
        text exposition format 0.0.4 (see :mod:`repro.obs.prometheus`)."""
        fmt = parse_qs(query).get("format", ["json"])[-1]
        if fmt == "prometheus":
            from repro.obs.prometheus import render_prometheus

            return Response(
                200,
                render_prometheus(self.metrics).encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if fmt != "json":
            return Response(
                400,
                _json_body(
                    {"error": f"unknown metrics format: {fmt!r}"}
                ),
            )
        return Response(200, _json_body(self.metrics.snapshot()))

    def _snapshot_response(
        self, path: str, if_none_match: Optional[str], payload_fn
    ) -> Response:
        """ETag + TTL-cache wrapper shared by snapshot-derived routes.

        The ETag of a 200 always equals the body's own ``snapshot``
        field: the version is re-read *from the built payload* (which
        the store assembles under its lock), so a publish racing the
        build can never pair a newer body with an older tag — the
        stress suite pins this.  A 304's tag was the store version at
        the moment it was read.
        """
        version = self.store.version
        etag = f'"{version}"'
        if if_none_match is not None and etag in (
            tag.strip() for tag in if_none_match.split(",")
        ):
            self.metrics.counter("http.not_modified").inc()
            return Response(304, etag=etag)
        body = self.cache.get(path, version)
        if body is not None:
            self.metrics.counter("http.cache_hits").inc()
            return Response(200, body, etag=etag)
        self.metrics.counter("http.cache_misses").inc()
        try:
            payload = payload_fn()
            if payload is None:
                return Response(404, _json_body({"error": "unknown spot id"}))
            body = _json_body(payload)
        except Exception:
            return self._degraded_response(path)
        built_version = payload.get("snapshot", version)
        self.cache.put(path, built_version, body)
        with self._last_good_lock:
            self._last_good[path] = (None, body)
        return Response(200, body, etag=f'"{built_version}"')

    def _degraded_response(self, path: str, query: str = "") -> Response:
        """Serve the last-good body for ``path`` and ``query`` (or an
        explicit empty degraded payload) instead of a 5xx."""
        self.metrics.counter("http.degraded").inc()
        with self._last_good_lock:
            good_query, body = self._last_good.get(path, (None, None))
        if body is None or good_query not in (None, query):
            body = _json_body({"snapshot": 0, "degraded": True})
        return Response(200, body, headers={"X-Degraded": "stale"})

    def _health_payload(self) -> dict:
        payload = {
            "status": "ok",
            "snapshot": self.store.version,
            "spots": len(self.store.spot_ids),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }
        if self.watchdog is not None:
            staleness = self.watchdog.check()
            payload["staleness_s"] = round(staleness, 3)
            payload["stale"] = staleness > self.watchdog.stale_after_s
        return payload
