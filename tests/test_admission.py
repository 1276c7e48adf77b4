"""Admission-control unit tests: token bucket, controller, shed
responses, the LRU response-cache bound, and the serve-knob CLI
validation.

The token bucket runs on an injected fake clock so every admit/deny
decision — and the ``Retry-After`` arithmetic — is exact, not timing
dependent.  The cache-growth test is the ISSUE satellite: 10k distinct
query strings must not grow the cache past its bound, and every
eviction must be visible in ``http.cache_evictions``.
"""

from __future__ import annotations

import pytest

from repro.core.types import QueueType, TimeSlotGrid
from repro.service import (
    AdmissionController,
    MetricsRegistry,
    QueueStateServer,
    ResponseCache,
    SnapshotStore,
    TokenBucket,
)
from repro.service.admission import SHED_INFLIGHT, SHED_RATE
from tests.test_service import make_result, make_spot


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_server(**kwargs) -> QueueStateServer:
    """A socket-free server over a tiny two-spot snapshot (respond()
    is called directly; start() is never invoked)."""
    store = SnapshotStore(
        [make_spot(), make_spot("QS002")], TimeSlotGrid(0.0, 86400.0, 1800.0)
    )
    store.apply(
        [
            make_result(slot=0, label=QueueType.C2),
            make_result(spot_id="QS002", slot=1, label=QueueType.C4),
        ]
    )
    server = QueueStateServer(store, MetricsRegistry(), **kwargs)
    return server


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        assert [bucket.try_acquire().admitted for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
        assert bucket.try_acquire().admitted
        assert not bucket.try_acquire().admitted
        clock.advance(0.5)  # exactly one token at 2 tokens/s
        assert bucket.try_acquire().admitted
        assert not bucket.try_acquire().admitted

    def test_retry_after_is_exact_refill_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1, clock=clock)
        bucket.try_acquire()
        decision = bucket.try_acquire()
        assert not decision.admitted
        assert decision.reason == SHED_RATE
        assert decision.retry_after_s == pytest.approx(0.25)
        # The HTTP header form is integral delta-seconds, at least 1.
        assert decision.retry_after_header == "1"

    def test_capacity_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(3600.0)
        admitted = sum(bucket.try_acquire().admitted for _ in range(10))
        assert admitted == 2

    def test_default_burst_is_one_second_of_rate(self):
        assert TokenBucket(rate=7.3).burst == 8
        assert TokenBucket(rate=0.5).burst == 1

    def test_rejects_nonpositive_rate_and_burst(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestAdmissionController:
    def test_inflight_budget_and_release(self):
        controller = AdmissionController(max_inflight=2)
        assert controller.admit().admitted
        assert controller.admit().admitted
        decision = controller.admit()
        assert not decision.admitted
        assert decision.reason == SHED_INFLIGHT
        controller.release()
        assert controller.admit().admitted
        assert controller.peak_inflight == 2

    def test_rate_check_runs_before_slots(self):
        clock = FakeClock()
        controller = AdmissionController(
            max_inflight=10, rate_limit=1.0, burst=1, clock=clock
        )
        assert controller.admit().admitted
        assert controller.admit().reason == SHED_RATE
        # The denied request took no slot.
        assert controller.inflight == 1

    def test_metrics_account_shed_and_inflight(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(max_inflight=1, metrics=metrics)
        controller.admit()
        controller.admit()
        assert metrics.counter("http.shed").value == 1
        assert metrics.counter("http.shed.inflight").value == 1
        assert metrics.gauge("http.inflight").value == 1
        assert metrics.gauge("http.inflight_peak").value == 1
        controller.release()
        assert metrics.gauge("http.inflight").value == 0
        assert metrics.counter("admission.admitted").value == 1

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)


class TestShedResponses:
    def test_over_rate_request_gets_429_with_retry_after(self):
        server = make_server(rate_limit=1000.0, rate_burst=1)
        assert server.respond("/v1/spots").status == 200
        response = server.respond("/v1/spots")
        assert response.status == 429
        assert int(response.headers["Retry-After"]) >= 1
        assert response.headers["X-Shed-Reason"] == SHED_RATE
        snapshot = server.metrics.snapshot()
        assert snapshot["counters"]["http.shed"] == 1
        assert snapshot["counters"]["http.responses.429"] == 1

    def test_healthz_is_exempt_from_admission(self):
        server = make_server(rate_limit=1000.0, rate_burst=1)
        server.respond("/v1/spots")  # drain the bucket
        for _ in range(5):
            assert server.respond("/v1/healthz").status == 200

    def test_shed_is_never_a_5xx(self):
        server = make_server(rate_limit=1000.0, rate_burst=1)
        statuses = {server.respond("/v1/spots").status for _ in range(50)}
        assert statuses <= {200, 429}

    def test_no_admission_configured_means_no_gate(self):
        server = make_server()
        assert server.admission is None
        assert all(
            server.respond("/v1/spots").status == 200 for _ in range(20)
        )


class FakeHistory:
    """Just enough of a HistoryQueryEngine for the cache-key tests."""

    version = 1

    def citywide(self, start_day=None, end_day=None):
        return {"start": start_day, "end": end_day}

    def patterns(self):
        return {"zones": []}


class TestResponseCacheBound:
    def test_lru_bound_and_eviction_accounting(self):
        evicted = []
        cache = ResponseCache(
            ttl_s=60.0, max_entries=8, on_evict=evicted.append
        )
        for i in range(100):
            cache.put(f"/p?q={i}", 1, b"x")
        assert len(cache) == 8
        assert cache.evictions == 92
        assert sum(evicted) == 92

    def test_recently_used_entries_survive(self):
        cache = ResponseCache(ttl_s=60.0, max_entries=2)
        cache.put("/a", 1, b"a")
        cache.put("/b", 1, b"b")
        assert cache.get("/a", 1) == b"a"  # refresh /a
        cache.put("/c", 1, b"c")  # evicts /b, the LRU entry
        assert cache.get("/a", 1) == b"a"
        assert cache.get("/b", 1) is None
        assert cache.get("/c", 1) == b"c"

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ResponseCache(ttl_s=1.0, max_entries=0)

    def test_10k_distinct_queries_stay_bounded(self):
        """The ISSUE satellite: history entries are keyed on
        ``path?query``, so distinct query strings used to accumulate
        forever; hammer 10k distinct queries and pin the bound."""
        server = make_server(cache_max_entries=64, cache_ttl_s=60.0)
        server.history = FakeHistory()
        for i in range(10_000):
            response = server.respond(f"/v1/history/citywide?start_day={i}")
            assert response.status == 200
        assert len(server.cache) <= 64
        snapshot = server.metrics.snapshot()
        assert snapshot["counters"]["http.cache_evictions"] == 10_000 - 64


class TestServeKnobValidation:
    """The new admission knobs fail fast — exit 2 before any pipeline
    work — like the rest of the serve knobs."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-inflight", "0"],
            ["--max-inflight", "-3"],
            ["--rate-limit", "0"],
            ["--rate-limit", "-1.5"],
            ["--rate-limit", "10", "--rate-burst", "0"],
            ["--rate-burst", "5"],  # burst without a rate limit
        ],
    )
    def test_bad_knob_exits_2(self, flags, capsys):
        from repro.cli import main

        code = main(["serve", "missing.csv", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        # Fail-fast: the input CSV was never even opened.
        assert "not found" not in captured.err

    def test_good_knobs_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "logs.csv",
                "--max-inflight", "64",
                "--rate-limit", "500",
                "--rate-burst", "100",
            ]
        )
        assert args.max_inflight == 64
        assert args.rate_limit == 500.0
        assert args.rate_burst == 100
