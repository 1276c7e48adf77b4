"""Service-level resilience: watchdog, degraded serving, chaos matrix.

The chaos matrix runs the socket-free serving stack against seeded
stall/reorder/duplicate/crash fault plans and asserts the headline
guarantees: read endpoints never answer 5xx, the staleness gauge rises
while ingest is down, and a checkpoint-resumed recovery clears it and
converges to the clean run's snapshot (same slots, same version).
"""

import json
import threading
import time

import pytest

from repro.core.types import TimeSlotGrid
from repro.resilience import (
    ChaosStream,
    CheckpointManager,
    FaultPlan,
    InjectedCrash,
    ReorderBuffer,
    ServiceCheckpointer,
    ServiceWatchdog,
)
from repro.service.http import QueueStateServer, ResponseCache
from repro.service.metrics import MetricsRegistry
from repro.service.replay import StreamReplayer
from repro.service.snapshot import SnapshotStore
from tests.test_resilience_chaos import make_monitor, pickup_stream
from tests.test_resilience_checkpoint import old_layout_payload

ENDPOINTS = [
    "/v1/spots",
    "/v1/citywide",
    "/v1/spots/QS001/slots",
    "/v1/healthz",
    "/v1/metrics",
]


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_store(metrics=None):
    monitor = make_monitor()
    store = SnapshotStore(
        monitor.spots, TimeSlotGrid(0.0, 7200.0, 1800.0), metrics=metrics
    )
    monitor.subscribe(store.apply)
    return monitor, store


def make_server(store, metrics, watchdog=None):
    """A QueueStateServer without a bound socket; tests drive
    :meth:`respond` directly."""
    from repro.obs.tracer import NULL_TRACER

    server = QueueStateServer.__new__(QueueStateServer)
    server.store = store
    server.metrics = metrics
    server.cache = ResponseCache(0.0)
    server.watchdog = watchdog
    server.history = None
    server.admission = None
    server.tracer = NULL_TRACER
    server._last_good = {}
    server._last_good_lock = threading.Lock()
    server._started_at = time.monotonic()
    return server


class TestServiceWatchdog:
    def test_staleness_tracks_quiet_store(self):
        clock = FakeClock()
        _, store = make_store()
        watchdog = ServiceWatchdog(store, stale_after_s=30.0, clock=clock)
        assert watchdog.check() == 0.0
        clock.advance(10.0)
        assert watchdog.check() == pytest.approx(10.0)
        assert not watchdog.is_stale
        clock.advance(25.0)
        assert watchdog.is_stale
        gauges = watchdog.metrics.snapshot()["gauges"]
        assert gauges["watchdog.stale"] == 1.0
        assert gauges["watchdog.staleness_seconds"] == pytest.approx(35.0)

    def test_version_advance_resets_staleness(self):
        clock = FakeClock()
        monitor, store = make_store()
        watchdog = ServiceWatchdog(store, stale_after_s=5.0, clock=clock)
        clock.advance(60.0)
        assert watchdog.is_stale
        for record in pickup_stream(0.0, 3):
            monitor.feed(record)
        monitor.finish()  # publishes slot results -> version bump
        assert store.version > 0
        assert watchdog.check() == 0.0
        assert not watchdog.is_stale

    def test_expect_idle_acknowledges_quiet(self):
        clock = FakeClock()
        _, store = make_store()
        watchdog = ServiceWatchdog(store, stale_after_s=5.0, clock=clock)
        clock.advance(60.0)
        assert watchdog.is_stale
        watchdog.expect_idle()
        assert watchdog.check() == 0.0
        assert not watchdog.is_stale

    def test_expect_idle_absorbs_unobserved_version_advance(self):
        # The serve loop calls expect_idle() right after the replay's
        # final flush bumped the version; no probe ran in between.  The
        # acknowledgement must absorb that advance, not read it as
        # fresh activity that clears the flag it was asked to set.
        clock = FakeClock()
        monitor, store = make_store()
        watchdog = ServiceWatchdog(store, stale_after_s=5.0, clock=clock)
        clock.advance(60.0)
        for record in pickup_stream(0.0, 3):
            monitor.feed(record)
        monitor.finish()
        assert store.version > 0  # advanced since the last probe
        watchdog.expect_idle()
        clock.advance(60.0)
        assert watchdog.check() == 0.0
        assert not watchdog.is_stale

    def test_ingest_recovery_clears_expect_idle(self):
        clock = FakeClock()
        monitor, store = make_store()
        watchdog = ServiceWatchdog(store, stale_after_s=5.0, clock=clock)
        watchdog.expect_idle()
        for record in pickup_stream(0.0, 3):
            monitor.feed(record)
        monitor.finish()
        watchdog.check()
        clock.advance(60.0)
        # Idle acknowledgement is cleared once updates resume.
        assert watchdog.is_stale

    def test_background_thread_lifecycle(self):
        _, store = make_store()
        watchdog = ServiceWatchdog(store, interval_s=0.01)
        watchdog.start()
        watchdog.start()  # idempotent
        watchdog.stop()
        watchdog.stop()

    def test_validation(self):
        _, store = make_store()
        with pytest.raises(ValueError):
            ServiceWatchdog(store, stale_after_s=0.0)
        with pytest.raises(ValueError):
            ServiceWatchdog(store, interval_s=0.0)


class TestDegradedServing:
    def test_payload_failure_serves_last_good(self):
        metrics = MetricsRegistry()
        monitor, store = make_store(metrics)
        for record in pickup_stream(0.0, 5):
            monitor.feed(record)
        monitor.finish()
        server = make_server(store, metrics)
        good = server.respond("/v1/spots")
        assert good.status == 200

        def boom():
            raise RuntimeError("poisoned snapshot")

        store.spots_payload = boom
        degraded = server.respond("/v1/spots")
        assert degraded.status == 200
        assert degraded.headers.get("X-Degraded") == "stale"
        assert degraded.body == good.body
        assert metrics.snapshot()["counters"]["http.degraded"] >= 1

    def test_failure_with_no_history_serves_degraded_stub(self):
        metrics = MetricsRegistry()
        _, store = make_store(metrics)
        server = make_server(store, metrics)

        def boom():
            raise RuntimeError("cold and broken")

        store.citywide_payload = boom
        response = server.respond("/v1/citywide")
        assert response.status == 200
        assert json.loads(response.body)["degraded"] is True

    def test_unknown_spot_still_404s(self):
        metrics = MetricsRegistry()
        _, store = make_store(metrics)
        server = make_server(store, metrics)
        assert server.respond("/v1/spots/NOPE/slots").status == 404

    def test_healthz_reports_staleness(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        _, store = make_store(metrics)
        watchdog = ServiceWatchdog(
            store, metrics=metrics, stale_after_s=5.0, clock=clock
        )
        server = make_server(store, metrics, watchdog=watchdog)
        clock.advance(42.0)
        payload = json.loads(server.respond("/v1/healthz").body)
        assert payload["staleness_s"] == pytest.approx(42.0)
        assert payload["stale"] is True


class TestChaosMatrix:
    """The fixed-seed chaos matrix CI runs (see .github/workflows)."""

    SEEDS = [101, 202, 303]

    def _assert_all_reads_ok(self, server):
        for path in ENDPOINTS:
            response = server.respond(path)
            assert response.status < 500, (path, response.status)
            assert response.status in (200, 304)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stall_crash_recover(self, seed, tmp_path):
        records = pickup_stream(0.0, 40)
        clock = FakeClock()
        naps = []
        metrics = MetricsRegistry()
        monitor, store = make_store(metrics)
        watchdog = ServiceWatchdog(
            store, metrics=metrics, stale_after_s=5.0, clock=clock
        )
        server = make_server(store, metrics, watchdog=watchdog)
        manager = CheckpointManager(tmp_path, metrics=metrics)
        plan = FaultPlan(
            seed=seed,
            reorder_rate=0.2,
            max_delay=4,
            duplicate_rate=0.1,
            stall_rate=0.3,
            stall_s=0.01,
            crash_after=len(records) // 2,
        )
        # max_delay-position displacement at <= ~60 s between adjacent
        # records: a 600 s window absorbs the whole fault plan.
        reorder = ReorderBuffer(window_s=600.0, metrics=metrics)
        replayer = StreamReplayer(
            monitor,
            ChaosStream(records, plan, sleep_fn=naps.append),
            speedup=None,
            metrics=metrics,
            reorder=reorder,
            checkpointer=ServiceCheckpointer(
                manager, monitor, store, reorder=reorder, every_records=10
            ),
        )
        replayer.run()

        # The injected kill was captured, not propagated.
        assert isinstance(replayer.error, InjectedCrash)
        assert metrics.snapshot()["counters"]["replay.crashes"] == 1
        assert naps, "stall faults should have fired"

        # Mid-outage: every read endpoint still answers, and the
        # watchdog surfaces the staleness.
        self._assert_all_reads_ok(server)
        clock.advance(30.0)
        assert watchdog.is_stale
        gauges = metrics.snapshot()["gauges"]
        assert gauges["watchdog.stale"] == 1.0
        assert gauges["watchdog.staleness_seconds"] > 5.0
        self._assert_all_reads_ok(server)

        # Recovery: restore the newest checkpoint into a fresh ingest
        # stack feeding the same store the server reads from, then
        # re-consume the *same* deterministic fault sequence (sans the
        # crash) from the checkpointed position — the operator feed
        # re-delivering from the kill point.
        monitor2 = make_monitor()
        monitor2.subscribe(store.apply)
        reorder2 = ReorderBuffer(window_s=600.0)
        checkpointer2 = ServiceCheckpointer(
            manager, monitor2, store, reorder=reorder2, every_records=10
        )
        resumed_from = checkpointer2.restore_latest()
        assert resumed_from is not None and resumed_from > 0
        resume_plan = FaultPlan(
            seed=seed,
            reorder_rate=plan.reorder_rate,
            max_delay=plan.max_delay,
            duplicate_rate=plan.duplicate_rate,
            stall_rate=plan.stall_rate,
            stall_s=plan.stall_s,
            crash_after=None,
        )
        replayer2 = StreamReplayer(
            monitor2,
            ChaosStream(records, resume_plan, sleep_fn=naps.append),
            speedup=None,
            metrics=metrics,
            reorder=reorder2,
            checkpointer=checkpointer2,
            skip_records=resumed_from,
        )
        replayer2.run()
        assert replayer2.error is None
        assert replayer2.finished.is_set()

        # New slot results landed -> staleness clears.
        assert watchdog.check() == 0.0
        assert metrics.snapshot()["gauges"]["watchdog.stale"] == 0.0
        self._assert_all_reads_ok(server)

        # The recovered snapshot converged to the clean run exactly:
        # same finalized slots, same snapshot version.
        clean_monitor, clean_store = make_store()
        clean = StreamReplayer(clean_monitor, records, speedup=None)
        clean.run()
        assert store.spot_slots_payload("QS001")["slots"] == (
            clean_store.spot_slots_payload("QS001")["slots"]
        )
        assert store.version == clean_store.version
        assert reorder2.late_dropped == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_5xx_even_with_every_payload_poisoned(self, seed):
        metrics = MetricsRegistry()
        monitor, store = make_store(metrics)
        for record in pickup_stream(0.0, 5):
            monitor.feed(record)
        monitor.finish()
        server = make_server(store, metrics)
        for path in ENDPOINTS:
            assert server.respond(path).status == 200

        def boom(*args, **kwargs):
            raise RuntimeError(f"chaos seed {seed}")

        store.spots_payload = boom
        store.citywide_payload = boom
        store.spot_slots_payload = boom
        for path in ENDPOINTS:
            response = server.respond(path)
            assert response.status < 500, path
        counters = metrics.snapshot()["counters"]
        assert counters["http.degraded"] >= 3
        assert all(
            not name.startswith("http.responses.5") for name in counters
        )


class TestQueueServiceResume:
    """End-to-end: from_day with checkpointing + disorder window."""

    def _config(self, tmp_path):
        from repro.service.app import ServiceConfig

        return ServiceConfig(
            speedup=None,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every_records=1000,
            disorder_window_s=120.0,
        )

    def test_restarted_service_resumes_and_converges(
        self, tmp_path, small_day, small_engine
    ):
        from repro.service.app import QueueService
        from repro.conformance.canonical import streaming_state

        config = self._config(tmp_path)
        grid = small_day.ground_truth.grid
        first = QueueService.from_day(
            small_day.store, small_engine, config, grid
        )
        assert first.resumed_from is None
        assert first.checkpointer is not None
        assert first.watchdog is not None
        first.warm()
        reference = streaming_state(first.store)
        assert reference["version"] > 0

        # "Restart": a second bootstrap over the same checkpoint dir
        # restores mid-stream state and fast-forwards the replay.
        second = QueueService.from_day(
            small_day.store, small_engine, config, grid
        )
        assert second.resumed_from is not None
        assert second.resumed_from > 0
        assert second.store.version > 0  # restored, not cold
        second.warm()
        assert streaming_state(second.store) == reference

    def test_checkpoint_in_the_old_monitor_layout_is_a_cold_start(
        self, tmp_path, small_day, small_engine
    ):
        from repro.service.app import QueueService

        config = self._config(tmp_path)
        monitor, store = make_store()
        for record in pickup_stream(0.0, 10)[:-1]:
            monitor.feed(record)
        CheckpointManager(config.checkpoint_dir).save(
            old_layout_payload(monitor, store, 39)
        )
        service = QueueService.from_day(
            small_day.store, small_engine, config, small_day.ground_truth.grid
        )
        assert service.resumed_from is None

    def test_without_checkpoint_dir_nothing_is_written(
        self, tmp_path, small_day, small_engine
    ):
        from repro.service.app import QueueService, ServiceConfig

        service = QueueService.from_day(
            small_day.store,
            small_engine,
            ServiceConfig(speedup=None),
            small_day.ground_truth.grid,
        )
        assert service.checkpointer is None
        assert service.resumed_from is None
        assert not list(tmp_path.iterdir())
