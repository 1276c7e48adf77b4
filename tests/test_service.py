"""Unit tests for the serving layer's components, plus the raw-socket
answers of the HTTP shim to requests the stdlib rejects itself."""

import socket
import threading

import pytest

from repro.core.features import AmplificationPolicy
from repro.core.thresholds import QcdThresholds
from repro.core.types import (
    QueueSpot,
    QueueType,
    SlotFeatures,
    SlotLabel,
    TimeSlotGrid,
)
from repro.geo.point import LocalProjection
from repro.service import (
    Counter,
    Histogram,
    MetricsRegistry,
    QueueStateServer,
    ResponseCache,
    SnapshotStore,
    StreamReplayer,
)
from repro.stream import SlotResult, StreamingQueueMonitor

LON, LAT = 103.8, 1.33


def make_result(spot_id="QS001", slot=0, label=QueueType.C2, n_arrivals=10.0):
    features = SlotFeatures(
        slot=slot,
        mean_wait_s=45.0,
        n_arrivals=n_arrivals,
        queue_length=0.5,
        mean_departure_interval_s=60.0,
        n_departures=9.0,
    )
    return SlotResult(
        spot_id=spot_id,
        slot=slot,
        features=features,
        label=SlotLabel(slot=slot, label=label, routine=1),
    )


def make_spot(spot_id="QS001", lon=LON, lat=LAT):
    return QueueSpot(spot_id, lon, lat, "Central", 120, 6.0)


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(7)
        gauge.inc(-2)
        assert gauge.value == 5

    def test_histogram_quantiles(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.sum == pytest.approx(5050.0)
        assert histogram.quantile(0.5) == pytest.approx(50.0, abs=1.0)
        assert histogram.quantile(0.99) == pytest.approx(99.0, abs=1.0)
        summary = histogram.summary()
        assert summary["max"] == 100.0
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_histogram_window_bounds_memory(self):
        histogram = Histogram("h", window=8)
        for value in range(1000):
            histogram.observe(float(value))
        assert histogram.count == 1000
        # Quantiles reflect the recent window only.
        assert histogram.quantile(0.0) >= 992.0

    def test_histogram_empty(self):
        histogram = Histogram("h")
        assert histogram.quantile(0.5) is None
        assert histogram.summary() == {"count": 0, "sum": 0.0}
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_registry_get_or_create_and_kind_clash(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_timer_records_seconds(self):
        registry = MetricsRegistry()
        with registry.time("op.seconds"):
            pass
        summary = registry.snapshot()["histograms"]["op.seconds"]
        assert summary["count"] == 1
        assert 0 <= summary["max"] < 1.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(2)
        registry.histogram("c").observe(0.1)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 1.0}
        assert snap["gauges"] == {"b": 2.0}
        assert snap["histograms"]["c"]["count"] == 1

    def test_concurrent_increments(self):
        counter = MetricsRegistry().counter("c")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestSnapshotStore:
    def grid(self):
        return TimeSlotGrid(0.0, 86400.0, 1800.0)

    def test_version_advances_per_batch(self):
        store = SnapshotStore([make_spot()], self.grid())
        assert store.version == 0
        store.apply([make_result(slot=0), make_result(slot=1)])
        assert store.version == 1
        store.apply([make_result(slot=2)])
        assert store.version == 2
        assert store.etag == '"2"'

    def test_empty_or_unknown_batch_keeps_version(self):
        store = SnapshotStore([make_spot()], self.grid())
        store.apply([])
        store.apply([make_result(spot_id="QS999")])
        assert store.version == 0

    def test_latest_and_spots_payload(self):
        store = SnapshotStore([make_spot(), make_spot("QS002")], self.grid())
        store.apply(
            [
                make_result(slot=3, label=QueueType.C1),
                make_result(slot=4, label=QueueType.C3),
            ]
        )
        assert store.latest("QS001").slot == 4
        assert store.latest("QS002") is None
        payload = store.spots_payload()
        assert payload["snapshot"] == 1
        assert payload["count"] == 2
        by_id = {
            f["properties"]["spot_id"]: f["properties"]
            for f in payload["collection"]["features"]
        }
        assert by_id["QS001"]["current"]["queue_type"] == "C3"
        assert by_id["QS001"]["current"]["slot"] == 4
        assert by_id["QS002"]["current"] is None

    def test_spot_slots_payload(self):
        store = SnapshotStore([make_spot()], self.grid())
        store.apply([make_result(slot=1), make_result(slot=0)])
        payload = store.spot_slots_payload("QS001")
        assert [s["slot"] for s in payload["slots"]] == [0, 1]
        assert payload["slots"][0]["time"] == "00:00-00:30"
        assert store.spot_slots_payload("QS404") is None

    def test_citywide_payload(self):
        store = SnapshotStore([make_spot()], self.grid())
        store.apply(
            [
                make_result(slot=0, label=QueueType.C2),
                make_result(slot=1, label=QueueType.C2),
                make_result(slot=2, label=QueueType.C4),
                make_result(slot=3, label=QueueType.C4),
            ]
        )
        payload = store.citywide_payload()
        assert payload["finalized_slot_results"] == 4
        assert payload["proportions"]["C2"] == pytest.approx(0.5)
        assert payload["proportions"]["C4"] == pytest.approx(0.5)
        assert payload["proportions"]["C1"] == 0.0

    def test_metrics_instrumented(self):
        metrics = MetricsRegistry()
        store = SnapshotStore([make_spot()], self.grid(), metrics=metrics)
        store.apply([make_result(slot=0), make_result(slot=1)])
        snap = metrics.snapshot()
        assert snap["gauges"]["snapshot.version"] == 1.0
        assert snap["counters"]["snapshot.slot_results"] == 2.0
        assert snap["gauges"]["snapshot.slots_held"] == 2.0


class TestResponseCache:
    def test_hit_within_ttl_and_version(self):
        cache = ResponseCache(ttl_s=60.0)
        cache.put("/v1/spots", 3, b"body")
        assert cache.get("/v1/spots", 3) == b"body"
        # A new snapshot version invalidates the entry.
        assert cache.get("/v1/spots", 4) is None
        assert len(cache) == 0

    def test_zero_ttl_disables(self):
        cache = ResponseCache(ttl_s=0.0)
        cache.put("/v1/spots", 1, b"body")
        assert cache.get("/v1/spots", 1) is None

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResponseCache(ttl_s=-1.0)


class TestStreamReplayer:
    def _monitor(self, store=None):
        grid = TimeSlotGrid(0.0, 3600.0, 1800.0)
        monitor = StreamingQueueMonitor(
            spots=[make_spot()],
            thresholds={
                "QS001": QcdThresholds(
                    eta_wait=120.0, eta_dep=90.0, tau_arr=15.0,
                    tau_dep=20.0, eta_dur=1620.0, tau_ratio=0.84,
                )
            },
            grid=grid,
            projection=LocalProjection(LON, LAT),
            amplification=AmplificationPolicy(),
        )
        if store is not None:
            monitor.subscribe(store.apply)
        return monitor, grid

    def test_unpaced_run_publishes_into_snapshot(self):
        from tests.test_stream import pickup_stream

        monitor, grid = self._monitor()
        snapshot = SnapshotStore([make_spot()], grid)
        monitor.subscribe(snapshot.apply)
        metrics = MetricsRegistry()
        replayer = StreamReplayer(
            monitor,
            pickup_stream(10.0, 20, spacing=60.0),
            speedup=None,
            metrics=metrics,
        )
        finalized = replayer.run()
        assert replayer.finished.is_set()
        assert finalized == grid.n_slots
        assert snapshot.version >= 1
        assert snapshot.latest("QS001") is not None
        snap = metrics.snapshot()
        assert snap["counters"]["replay.records"] == 80.0
        assert snap["counters"]["replay.slots_finalized"] == finalized

    def test_invalid_speedup(self):
        monitor, _ = self._monitor()
        with pytest.raises(ValueError):
            StreamReplayer(monitor, [], speedup=0.0)

    def test_replay_order_is_stable_by_timestamp(self):
        # Same-second records keep their input order (one taxi's rows
        # as tier 1 read them), across taxis and within one taxi.
        from repro.columnar import RecordBatch
        from repro.service.replay import replay_order
        from repro.states.states import TaxiState
        from repro.trace.record import MdtRecord

        def rec(ts, taxi, speed):
            return MdtRecord(ts, taxi, LON, LAT, speed, TaxiState.FREE)

        records = [
            rec(5.0, "B", 1.0), rec(10.0, "B", 2.0), rec(10.0, "B", 0.5),
            rec(10.0, "A", 3.0), rec(0.0, "A", 4.0),
        ]
        expected = [records[i] for i in (4, 0, 1, 2, 3)]
        assert list(replay_order(RecordBatch.from_rows(records))) == expected
        monitor, _ = self._monitor()
        assert list(StreamReplayer(monitor, records).records) == expected

    def test_background_stop(self):
        from repro.trace.record import MdtRecord
        from repro.states.states import TaxiState

        monitor, _ = self._monitor()
        records = [
            MdtRecord(float(i) * 300.0, "A", LON, LAT, 40.0, TaxiState.FREE)
            for i in range(100)
        ]
        replayer = StreamReplayer(monitor, records, speedup=1.0)
        thread = replayer.start()
        assert replayer.start() is thread  # idempotent
        replayer.stop()
        assert not thread.is_alive()
        # A stopped replay did not reach the end of the stream.
        assert not replayer.finished.is_set()
        # Stopping twice is harmless.
        replayer.stop()


class TestReplayerDisorder:
    """The replayer's ordering contract (see service/replay.py)."""

    def _monitor(self):
        grid = TimeSlotGrid(0.0, 3600.0, 1800.0)
        monitor = StreamingQueueMonitor(
            spots=[make_spot()],
            thresholds={
                "QS001": QcdThresholds(
                    eta_wait=120.0, eta_dep=90.0, tau_arr=15.0,
                    tau_dep=20.0, eta_dur=1620.0, tau_ratio=0.84,
                )
            },
            grid=grid,
            projection=LocalProjection(LON, LAT),
            amplification=AmplificationPolicy(),
        )
        return monitor

    def _records(self):
        from repro.states.states import TaxiState
        from repro.trace.record import MdtRecord

        return [
            MdtRecord(ts, "A", LON, LAT, 40.0, TaxiState.FREE)
            for ts in (0.0, 60.0, 30.0, 120.0)
        ]

    def test_unordered_iterator_counts_nonmonotonic(self):
        metrics = MetricsRegistry()
        monitor = self._monitor()
        replayer = StreamReplayer(
            monitor, iter(self._records()), speedup=None, metrics=metrics
        )
        replayer.run()
        snap = metrics.snapshot()
        assert snap["counters"]["replay.nonmonotonic_records"] == 1
        # The pacing clock never moves backwards.
        assert snap["gauges"]["replay.stream_clock"] == 120.0

    def test_sequence_input_is_sorted_up_front(self):
        metrics = MetricsRegistry()
        monitor = self._monitor()
        replayer = StreamReplayer(
            monitor, self._records(), speedup=None, metrics=metrics
        )
        replayer.run()
        counters = metrics.snapshot()["counters"]
        assert counters.get("replay.nonmonotonic_records", 0) == 0

    def test_reorder_buffer_absorbs_disorder(self):
        from repro.resilience import ReorderBuffer

        metrics = MetricsRegistry()
        monitor = self._monitor()
        replayer = StreamReplayer(
            monitor,
            iter(self._records()),
            speedup=None,
            metrics=metrics,
            reorder=ReorderBuffer(window_s=60.0),
        )
        replayer.run()
        assert replayer.finished.is_set()
        # The monitor only saw ordered releases; no violation counted.
        counters = metrics.snapshot()["counters"]
        assert counters.get("replay.nonmonotonic_records", 0) == 0

    def test_feed_crash_is_captured_not_raised(self):
        metrics = MetricsRegistry()
        monitor = self._monitor()

        def exploding():
            yield self._records()[0]
            raise RuntimeError("dead feed")

        replayer = StreamReplayer(
            monitor, exploding(), speedup=None, metrics=metrics
        )
        replayer.run()
        assert isinstance(replayer.error, RuntimeError)
        assert not replayer.finished.is_set()
        assert metrics.snapshot()["counters"]["replay.crashes"] == 1

    def test_skip_records_fast_forwards(self):
        metrics = MetricsRegistry()
        monitor = self._monitor()
        replayer = StreamReplayer(
            monitor,
            self._records(),
            speedup=None,
            metrics=metrics,
            skip_records=2,
        )
        replayer.run()
        assert metrics.snapshot()["counters"]["replay.records"] == 2.0

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            StreamReplayer(self._monitor(), [], skip_records=-1)


class TestFromDayCleansOnce:
    """``QueueService.from_day`` bootstraps on tier 1's one cleaning pass.

    The small day has the city bbox and water, so it carries GPS errors;
    a second cleaning pass over tier 1's output would drop the records a
    GPS-removed record bridged, and change spots and thresholds.
    """

    def test_bootstrap_matches_the_batch_tiers(
        self, small_day, small_engine, small_detection, small_analyses
    ):
        import copy

        from repro.obs import InMemorySink, Tracer
        from repro.service import QueueService, ServiceConfig

        store = small_day.store
        sink = InMemorySink()
        # A copy, so the traced bootstrap leaves the shared engine's
        # tracer alone.
        engine = copy.copy(small_engine)
        service = QueueService.from_day(
            store,
            engine,
            ServiceConfig(speedup=None),
            small_day.ground_truth.grid,
            tracer=Tracer(sink),
        )
        try:
            assert service.store.spot_ids == [
                spot.spot_id for spot in small_detection.spots
            ]
            assert service.monitor.spots == small_detection.spots
            assert service.monitor.thresholds == {
                spot_id: analysis.thresholds
                for spot_id, analysis in small_analyses.items()
                if analysis.thresholds is not None
            }
            cleaned = small_detection.cleaned_for(store)
            assert list(service.replayer.records) == sorted(
                cleaned.iter_rows(), key=lambda r: r.ts
            )
            (bootstrap,) = sink.traces
            names = [span["name"] for span in bootstrap]
            assert names.count("pipeline.bootstrap") == 1
            assert names.count("stage.clean") == 1
        finally:
            # The HTTP listener was bound but never started; release it.
            service.server._httpd.server_close()


class TestBootstrapEngineGuard:
    """``build_stack`` rebuilds the projection from the bootstrap's
    bbox, so an engine projecting around any other point must be
    refused, not served in a different metre plane."""

    def test_projection_off_the_bbox_centre_is_rejected(
        self, small_day, small_engine, small_detection, small_analyses
    ):
        import copy

        from repro.service import QueueService, ServiceConfig
        from repro.service.app import make_bootstrap

        engine = copy.copy(small_engine)
        lon, lat = engine.city_bbox.center
        engine.projection = LocalProjection(lon + 0.01, lat)
        grid = small_day.ground_truth.grid
        with pytest.raises(ValueError, match="centred on its city bbox"):
            make_bootstrap(engine, small_detection, small_analyses, grid)
        with pytest.raises(ValueError, match="centred on its city bbox"):
            QueueService.from_day(
                small_day.store, engine, ServiceConfig(speedup=None), grid
            )


class TestStdlibRejections:
    """Requests ``BaseHTTPRequestHandler`` rejects before ``respond``
    runs get a 4xx answer with a status line, never a 5xx."""

    @pytest.fixture(scope="class")
    def server(self):
        store = SnapshotStore([make_spot()], TimeSlotGrid(0.0, 86400.0, 1800.0))
        server = QueueStateServer(store, port=0)
        server.start()
        yield server
        server.stop()

    @staticmethod
    def exchange(server, request: bytes) -> list:
        """Send one raw request; the answer's status line and headers
        (the server closes the connection after a rejection)."""
        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as sock:
            sock.sendall(request)
            answer = b""
            while chunk := sock.recv(4096):
                answer += chunk
        return answer.split(b"\r\n\r\n")[0].split(b"\r\n")

    @pytest.mark.parametrize(
        "method", ["HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH", "FOO"]
    )
    def test_method_other_than_get_is_405(self, server, method):
        head = self.exchange(
            server,
            f"{method} /v1/spots HTTP/1.1\r\nHost: x\r\n"
            "Content-Length: 0\r\n\r\n".encode(),
        )
        assert head[0].startswith(b"HTTP/1.1 405 ")
        assert b"Allow: GET" in head[1:]

    def test_unsupported_version_is_400(self, server):
        head = self.exchange(
            server, b"GET /v1/spots HTTP/2.0\r\nHost: x\r\n\r\n"
        )
        assert head[0].startswith(b"HTTP/1.1 400 ")
