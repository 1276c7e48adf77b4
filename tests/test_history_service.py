"""History wired into the serving stack, end to end.

Covers the ISSUE acceptance criterion: replaying a multi-day stream,
killing the process at a seeded random point and restarting from the
checkpoint yields *byte-identical* segments and ``/v1/history/patterns``
output to an uninterrupted run — and those pattern aggregates equal the
offline Fig. 8 / Fig. 9 computation (``zone_counts_by_day`` /
``weekly_type_proportions``) on the same input.
"""

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.core.types import TimeSlotGrid
from repro.history import (
    DaySegment,
    HistoryQueryEngine,
    HistoryWriter,
    SegmentStore,
    SlotRecord,
)
from repro.resilience import (
    ChaosStream,
    CheckpointManager,
    FaultPlan,
    InjectedCrash,
    ServiceCheckpointer,
)
from repro.service.http import QueueStateServer
from repro.service.metrics import MetricsRegistry
from repro.service.replay import StreamReplayer
from repro.service.snapshot import SnapshotStore
from tests.test_resilience_chaos import make_monitor, pickup_stream

N_DAYS = 3


def multi_day_grid(days=N_DAYS):
    return TimeSlotGrid(0.0, days * 86400.0, 1800.0)


def multi_day_records(days=N_DAYS, per_day=30):
    records = []
    for day in range(days):
        records.extend(
            pickup_stream(
                day * 86400.0, per_day, spacing=1200.0,
                taxi_prefix=f"D{day}T",
            )
        )
    records.sort(key=lambda r: r.ts)
    return records


def build_stack(history_dir, grid=None, ckpt_dir=None, day_of_week=0):
    """Monitor + snapshot store + history writer (+ checkpointer)."""
    grid = grid if grid is not None else multi_day_grid()
    monitor = make_monitor(grid=grid)
    store = SnapshotStore(monitor.spots, grid)
    monitor.subscribe(store.apply)
    segments = SegmentStore(history_dir)
    writer = HistoryWriter(
        segments, monitor.spots, grid, day_of_week=day_of_week
    )
    monitor.subscribe(writer.absorb)
    checkpointer = None
    if ckpt_dir is not None:
        checkpointer = ServiceCheckpointer(
            CheckpointManager(ckpt_dir), monitor, store,
            history=writer, every_records=17,
        )
    return monitor, store, segments, writer, checkpointer


class TestHistoryWriter:
    def test_absorb_buckets_by_calendar_day(self, tmp_path):
        monitor, _, segments, writer, _ = build_stack(
            tmp_path, grid=multi_day_grid(2)
        )
        for record in multi_day_records(days=2, per_day=10):
            monitor.feed(record)
        monitor.finish()
        assert segments.days() == [0, 1]
        day0 = segments.read_day(0)
        day1 = segments.read_day(1)
        assert day0.records and day1.records
        # Slot indices are within-day, not global grid indices.
        assert all(r.slot < 48 for r in day0.records + day1.records)

    def test_declared_day_of_week_increments(self, tmp_path):
        _, _, segments, writer, _ = build_stack(
            tmp_path, day_of_week=5  # Saturday
        )
        assert writer.dow_of_day(0) == 5
        assert writer.dow_of_day(1) == 6
        assert writer.dow_of_day(2) == 0  # wraps to Monday

    def test_calendar_fallback(self, tmp_path):
        _, _, _, writer, _ = build_stack(tmp_path, day_of_week=None)
        assert writer.dow_of_day(0) == 3  # 1970-01-01 was a Thursday
        assert writer.dow_of_day(3) == 6

    def test_invalid_day_of_week_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            build_stack(tmp_path, day_of_week=7)

    def test_restore_reflushes_checkpointed_days(self, tmp_path):
        from tests.test_service import make_result

        monitor, _, segments, writer, _ = build_stack(tmp_path)
        for record in multi_day_records(days=1, per_day=8):
            monitor.feed(record)
        monitor.finish()
        state = writer.export_state()
        checkpoint_bytes = segments.path_of(0).read_bytes()

        # Post-checkpoint results land before the "kill", changing the
        # on-disk segment beyond what the checkpoint covers.
        writer.absorb([make_result(spot_id="QS001", slot=40)])
        assert segments.path_of(0).read_bytes() != checkpoint_bytes

        # Restoring the checkpoint rewinds the segment bytes exactly.
        writer.restore_state(state)
        assert segments.path_of(0).read_bytes() == checkpoint_bytes

    def test_append_metrics_and_span(self, tmp_path):
        metrics = MetricsRegistry()
        grid = multi_day_grid(1)
        monitor = make_monitor(grid=grid)
        segments = SegmentStore(tmp_path, metrics=metrics)
        writer = HistoryWriter(
            segments, monitor.spots, grid, day_of_week=0, metrics=metrics
        )
        monitor.subscribe(writer.absorb)
        for record in pickup_stream(0.0, 6):
            monitor.feed(record)
        monitor.finish()
        snap = metrics.snapshot()
        assert snap["histograms"]["history.append_seconds"]["count"] >= 1
        assert snap["counters"]["history.segments_written"] >= 1


class TestKillRestartByteIdentity:
    """The acceptance criterion, at three seeded kill offsets."""

    def _run_clean(self, history_dir):
        records = multi_day_records()
        monitor, _, segments, writer, _ = build_stack(history_dir)
        StreamReplayer(monitor, records, speedup=None).run()
        writer.flush_all()
        return segments

    @pytest.mark.parametrize("kill_seed", [0, 1, 2])
    def test_patterns_and_segments_identical(self, kill_seed, tmp_path):
        records = multi_day_records()
        offset = random.Random(kill_seed).randrange(1, len(records))

        clean_segments = self._run_clean(tmp_path / "clean")
        clean_bytes = {
            day: clean_segments.path_of(day).read_bytes()
            for day in clean_segments.days()
        }
        clean_patterns = json.dumps(
            HistoryQueryEngine(clean_segments).patterns(), sort_keys=True
        )

        # Run until the injected kill...
        crash_dir, ckpt_dir = tmp_path / "crash", tmp_path / "ckpt"
        monitor, _, _, _, checkpointer = build_stack(
            crash_dir, ckpt_dir=ckpt_dir
        )
        replayer = StreamReplayer(
            monitor,
            ChaosStream(
                records, FaultPlan(seed=kill_seed, crash_after=offset)
            ),
            speedup=None,
            checkpointer=checkpointer,
        )
        replayer.run()
        assert isinstance(replayer.error, InjectedCrash)

        # ... then "restart": fresh stack over the same directories.
        monitor2, _, segments2, writer2, checkpointer2 = build_stack(
            crash_dir, ckpt_dir=ckpt_dir
        )
        resumed_from = checkpointer2.restore_latest()
        assert resumed_from is not None
        replayer2 = StreamReplayer(
            monitor2, records, speedup=None,
            checkpointer=checkpointer2, skip_records=resumed_from,
        )
        replayer2.run()
        assert replayer2.error is None
        writer2.flush_all()

        assert {
            day: segments2.path_of(day).read_bytes()
            for day in segments2.days()
        } == clean_bytes
        assert json.dumps(
            HistoryQueryEngine(segments2).patterns(), sort_keys=True
        ) == clean_patterns


@pytest.fixture()
def history_server(tmp_path):
    monitor, store, segments, writer, _ = build_stack(
        tmp_path, grid=multi_day_grid(2), day_of_week=4
    )
    for record in multi_day_records(days=2, per_day=20):
        monitor.feed(record)
    monitor.finish()
    writer.flush_all()
    server = QueueStateServer(
        store,
        metrics=MetricsRegistry(),
        port=0,
        cache_ttl_s=30.0,
        history=HistoryQueryEngine(segments),
    )
    server.start()
    yield server
    server.stop()


def get_json(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read() or b"{}"),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestHistoryEndpoints:
    def test_patterns(self, history_server):
        status, headers, body = get_json(
            history_server.url + "/v1/history/patterns"
        )
        assert status == 200
        assert body["day_count"] == 2
        assert set(body["queue_type_mix"]) == {"Fri", "Sat"}
        assert headers["ETag"].startswith('"h')

    def test_citywide_with_range(self, history_server):
        status, _, body = get_json(
            history_server.url + "/v1/history/citywide?start_day=1"
        )
        assert status == 200
        assert [d["day"] for d in body["days"]] == [1]

    def test_spot_history_pagination(self, history_server):
        status, _, body = get_json(
            history_server.url
            + "/v1/spots/QS001/history?per_page=5&page=2"
        )
        assert status == 200
        assert body["page"] == 2
        assert len(body["items"]) == 5

    def test_spot_profile_view(self, history_server):
        status, _, body = get_json(
            history_server.url + "/v1/spots/QS001/history?view=profile"
        )
        assert status == 200
        assert set(body["profile"]) <= {"Fri", "Sat"}

    def test_unknown_spot_404(self, history_server):
        status, _, body = get_json(
            history_server.url + "/v1/spots/NOPE/history"
        )
        assert status == 404

    def test_bad_parameters_400(self, history_server):
        for query in ("page=0", "page=x", "downsample=0", "view=bogus"):
            status, _, body = get_json(
                history_server.url + f"/v1/spots/QS001/history?{query}"
            )
            assert status == 400, query
            assert "error" in body

    def test_304_on_matching_etag(self, history_server):
        url = history_server.url + "/v1/history/patterns"
        _, headers, _ = get_json(url)
        request = urllib.request.Request(
            url, headers={"If-None-Match": headers["ETag"]}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 304

    def test_cache_keyed_on_query_string(self, history_server):
        base = history_server.url + "/v1/spots/QS001/history"
        _, _, one = get_json(base + "?per_page=1&page=1")
        _, _, two = get_json(base + "?per_page=1&page=2")
        assert one["items"] != two["items"]

    def test_history_routes_404_without_history(self, tmp_path):
        grid = multi_day_grid(1)
        monitor = make_monitor(grid=grid)
        store = SnapshotStore(monitor.spots, grid)
        server = QueueStateServer(store, metrics=MetricsRegistry(), port=0)
        server.start()
        try:
            for path in (
                "/v1/history/patterns",
                "/v1/history/citywide",
                "/v1/spots/QS001/history",
            ):
                status, _, body = get_json(server.url + path)
                assert status == 404, path
                assert "history not enabled" in body["error"]
        finally:
            server.stop()

    def test_poisoned_history_payload_degrades_not_5xx(self, history_server):
        url = history_server.url + "/v1/history/patterns"
        status, _, _ = get_json(url)
        assert status == 200

        def boom():
            raise RuntimeError("poisoned history")

        history_server.history.patterns = boom
        history_server.cache.ttl_s = 0.0
        status, headers, _ = get_json(url)
        assert status == 200
        assert headers.get("X-Degraded") == "stale"

    def test_degraded_history_body_only_for_its_query(self, history_server):
        history_server.cache.ttl_s = 0.0
        base = history_server.url + "/v1/spots/QS001/history"
        status, _, profile = get_json(base + "?view=profile")
        assert status == 200

        def boom(*args, **kwargs):
            raise RuntimeError("poisoned history")

        history_server.history.spot_history = boom
        history_server.history.spot_profile = boom
        # Another query on the same path never gets the profile body...
        status, headers, body = get_json(base + "?per_page=5&page=2")
        assert status == 200
        assert headers.get("X-Degraded") == "stale"
        assert body == {"snapshot": 0, "degraded": True}
        # ... the query that built it still does.
        status, headers, body = get_json(base + "?view=profile")
        assert headers.get("X-Degraded") == "stale"
        assert body == profile


class TestQueueServiceHistory:
    def _config(self, tmp_path):
        from repro.service.app import ServiceConfig

        return ServiceConfig(
            speedup=None,
            history_dir=str(tmp_path / "hist"),
            history_day_of_week=0,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every_records=1000,
        )

    def test_serve_with_history_dir_end_to_end(
        self, tmp_path, small_day, small_engine
    ):
        from repro.service.app import QueueService

        config = self._config(tmp_path)
        grid = small_day.ground_truth.grid
        service = QueueService.from_day(
            small_day.store, small_engine, config, grid
        )
        assert service.history_writer is not None
        service.warm()
        service.history_writer.flush_all()

        segments = service.history_engine.store
        assert segments.days(), "warm replay produced no day segments"
        response = service.server.respond("/v1/history/patterns")
        assert response.status == 200
        patterns = json.loads(response.body)
        assert patterns["day_count"] == len(segments.days())
        assert patterns["spot_count"] > 0
        reference = json.dumps(
            service.history_engine.patterns(), sort_keys=True
        )

        # Restart over the same directories: the query answer and the
        # on-disk segments are unchanged.
        before = {
            day: segments.path_of(day).read_bytes()
            for day in segments.days()
        }
        second = QueueService.from_day(
            small_day.store, small_engine, config, grid
        )
        assert second.resumed_from is not None
        second.warm()
        second.history_writer.flush_all()
        after_store = second.history_engine.store
        assert {
            day: after_store.path_of(day).read_bytes()
            for day in after_store.days()
        } == before
        assert json.dumps(
            second.history_engine.patterns(), sort_keys=True
        ) == reference

    def test_without_history_dir_nothing_comes_up(
        self, tmp_path, small_day, small_engine
    ):
        from repro.service.app import QueueService, ServiceConfig

        service = QueueService.from_day(
            small_day.store, small_engine,
            ServiceConfig(speedup=None), small_day.ground_truth.grid,
        )
        assert service.history_writer is None
        assert service.history_engine is None
        response = service.server.respond("/v1/history/patterns")
        assert response.status == 404


class TestPatternsMatchOfflineBenchmarks:
    """patterns() reproduces the offline Fig. 8 / Fig. 9 computation."""

    @pytest.fixture(scope="class")
    def week_results(self, small_config):
        from repro.analysis.stability import run_week

        # Two contrasting days (a weekday and Sunday) keep this fast
        # while still exercising the day-of-week dimension.
        return run_week(small_config, disambiguate=True, days=(0, 6))

    @pytest.fixture(scope="class")
    def history_from_week(self, week_results, tmp_path_factory):
        """Day segments built from the offline pipeline's own output."""
        store = SegmentStore(tmp_path_factory.mktemp("week-history"))
        for index, result in enumerate(week_results):
            records = []
            for spot_id, analysis in result.analyses.items():
                for features, label in zip(
                    analysis.features, analysis.labels
                ):
                    records.append(
                        SlotRecord(
                            spot_id=spot_id,
                            slot=label.slot,
                            label=label.label,
                            routine=label.routine,
                            mean_wait_s=features.mean_wait_s,
                            n_arrivals=features.n_arrivals,
                            queue_length=features.queue_length,
                            mean_departure_interval_s=(
                                features.mean_departure_interval_s
                            ),
                            n_departures=features.n_departures,
                        )
                    )
            store.write_day(
                DaySegment(
                    day=1000 + index,
                    day_of_week=result.day_of_week,
                    slot_seconds=(
                        result.output.ground_truth.grid.slot_seconds
                    ),
                    spots=list(result.detection.spots),
                    records=records,
                )
            )
        return store

    def test_zone_spots_match_fig8(self, week_results, history_from_week):
        from repro.analysis.stability import zone_counts_by_day

        reference = zone_counts_by_day(week_results)
        patterns = HistoryQueryEngine(history_from_week).patterns()
        for zone, counts in reference.items():
            for result, count in zip(week_results, counts):
                if count == 0:
                    continue
                cell = patterns["zone_spots"][zone][result.day_name]
                assert cell["total_spots"] == count
                assert cell["days"] == 1
                assert cell["mean_spots"] == count

    def test_type_mix_matches_fig9(self, week_results, history_from_week):
        from repro.analysis.stability import weekly_type_proportions

        reference = weekly_type_proportions(week_results)
        patterns = HistoryQueryEngine(history_from_week).patterns()
        for result in week_results:
            mix = patterns["queue_type_mix"][result.day_name]["proportions"]
            for queue_type, fraction in reference[result.day_name].items():
                if fraction == 0.0:
                    assert queue_type.value not in mix
                else:
                    assert mix[queue_type.value] == pytest.approx(
                        fraction, abs=1e-6
                    )
