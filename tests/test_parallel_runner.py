"""Tests of the multiprocessing layer (``repro.parallel``).

The contract under test is the headline guarantee of the package:
``ParallelEngineRunner`` output is **bit-for-bit identical** to the
serial ``QueueAnalyticEngine`` — for any worker count, under injected
worker crashes and timeouts, and through the chunked-CSV ingest path.
Plus the scheduling behaviours around it: serial fallback for degenerate
plans, deterministic shard planning, and the metrics surface.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.parallel import ParallelEngineRunner
from repro.parallel.shards import (
    detach_event,
    plan_tier1_shards,
    stable_shard,
    taxi_home_zone,
)
from repro.parallel.worker import FAULT_ENV
from repro.trace.log_store import MdtLogStore


def fresh_engine(small_day) -> QueueAnalyticEngine:
    """A new engine for the small day (runners mutate cleaning state)."""
    city = small_day.city
    return QueueAnalyticEngine(
        zones=city.zones,
        projection=city.projection,
        config=EngineConfig(
            observed_fraction=small_day.config.observed_fraction
        ),
        city_bbox=city.bbox,
        inaccessible=city.water,
    )


def assert_detection_equal(actual, expected):
    assert [s for s in actual.spots] == [s for s in expected.spots]
    assert actual.noise_count == expected.noise_count
    assert actual.per_zone_counts == expected.per_zone_counts
    assert len(actual.pickup_events) == len(expected.pickup_events)
    assert (actual.centroids_lonlat == expected.centroids_lonlat).all()


def assert_analyses_equal(actual, expected):
    assert actual.keys() == expected.keys()
    for spot_id in expected:
        assert actual[spot_id] == expected[spot_id], spot_id


class TestSerialEquivalence:
    """workers=N must reproduce the serial engine bit-for-bit."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_full_pipeline_matches_serial(
        self, workers, small_day, small_detection, small_analyses
    ):
        runner = ParallelEngineRunner(fresh_engine(small_day), workers=workers)
        detection = runner.detect_spots(small_day.store)
        assert_detection_equal(detection, small_detection)
        analyses = runner.disambiguate(
            small_day.store, detection, small_day.ground_truth.grid
        )
        assert_analyses_equal(analyses, small_analyses)

    def test_cleaning_report_matches_serial(self, small_day):
        serial = fresh_engine(small_day)
        serial.detect_spots(small_day.store)
        runner = ParallelEngineRunner(fresh_engine(small_day), workers=2)
        runner.detect_spots(small_day.store)
        assert runner.last_cleaning_report is not None
        assert runner.last_cleaning_report == serial.last_cleaning_report

    def test_csv_path_matches_serial(self, small_day, tmp_path):
        # CSV serialisation rounds coordinates, so the serial baseline
        # must be computed from the very same file.
        csv_path = tmp_path / "day.csv"
        small_day.store.to_csv(csv_path)
        serial = fresh_engine(small_day)
        expected = serial.detect_spots(MdtLogStore.from_csv(csv_path))

        runner = ParallelEngineRunner(fresh_engine(small_day), workers=2)
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        detection = runner.detect_spots_csv(csv_path, shard_dir=shard_dir)
        assert_detection_equal(detection, expected)
        assert runner.last_cleaning_report == serial.last_cleaning_report


class TestSerialFallbacks:
    """Degenerate plans must never spawn a pool."""

    @staticmethod
    def _forbid_pool(monkeypatch):
        def boom(self, max_workers):
            raise AssertionError("a process pool was spawned")

        monkeypatch.setattr(ParallelEngineRunner, "_make_executor", boom)

    def test_workers_one_is_pure_serial(
        self, monkeypatch, small_day, small_detection
    ):
        self._forbid_pool(monkeypatch)
        runner = ParallelEngineRunner(fresh_engine(small_day), workers=1)
        detection = runner.detect_spots(small_day.store)
        assert_detection_equal(detection, small_detection)

    def test_single_zone_store_skips_pool(self, monkeypatch, small_day):
        # Keep only taxis homed in the busiest zone: the shard plan then
        # covers one zone, where sharding cannot help DBSCAN.
        zones = small_day.city.zones
        by_zone = {}
        for taxi_id in small_day.store.taxi_ids:
            records = small_day.store.records_of(taxi_id)
            by_zone.setdefault(
                taxi_home_zone(zones, records), []
            ).append(records)
        busiest = max(by_zone, key=lambda z: len(by_zone[z]))
        store = MdtLogStore(
            r for records in by_zone[busiest] for r in records
        )

        expected = fresh_engine(small_day).detect_spots(store)
        self._forbid_pool(monkeypatch)
        runner = ParallelEngineRunner(fresh_engine(small_day), workers=4)
        detection = runner.detect_spots(store)
        assert_detection_equal(detection, expected)
        assert (
            runner.metrics.counter("parallel.tier1.serial_shortcut").value
            == 1
        )

    def test_single_spot_disambiguate_skips_pool(
        self, monkeypatch, small_day, small_detection, small_analyses
    ):
        one_spot = small_detection.spots[0]
        trimmed = type(small_detection)(
            spots=[one_spot],
            pickup_events=small_detection.pickup_events,
            centroids_lonlat=small_detection.centroids_lonlat,
            noise_count=small_detection.noise_count,
            per_zone_counts=small_detection.per_zone_counts,
        )
        self._forbid_pool(monkeypatch)
        runner = ParallelEngineRunner(fresh_engine(small_day), workers=4)
        analyses = runner.disambiguate(
            small_day.store, trimmed, small_day.ground_truth.grid
        )
        assert set(analyses) == {one_spot.spot_id}
        assert analyses[one_spot.spot_id] == small_analyses[one_spot.spot_id]

    def test_negative_workers_rejected(self, small_day):
        with pytest.raises(ValueError):
            ParallelEngineRunner(fresh_engine(small_day), workers=-1)


class TestDegradation:
    """Worker crashes and timeouts degrade to serial, never to wrong."""

    def test_worker_crash_degrades_to_serial(
        self, monkeypatch, small_day, small_detection
    ):
        monkeypatch.setenv(FAULT_ENV, "crash:tier1")
        runner = ParallelEngineRunner(fresh_engine(small_day), workers=2)
        detection = runner.detect_spots(small_day.store)
        assert_detection_equal(detection, small_detection)
        assert (
            runner.metrics.counter("parallel.tier1.serial_fallback").value
            >= 1
        )
        assert runner.last_stats["tier1"]["failed"] >= 1

    def test_worker_timeout_degrades_to_serial(
        self, monkeypatch, small_day, small_detection
    ):
        monkeypatch.setenv(FAULT_ENV, "sleep:zones:5")
        runner = ParallelEngineRunner(
            fresh_engine(small_day), workers=2, shard_timeout_s=0.25
        )
        detection = runner.detect_spots(small_day.store)
        assert_detection_equal(detection, small_detection)
        assert (
            runner.metrics.counter("parallel.zones.serial_fallback").value
            >= 1
        )

    def test_tier2_crash_degrades_to_serial(
        self, monkeypatch, small_day, small_detection, small_analyses
    ):
        monkeypatch.setenv(FAULT_ENV, "crash:tier2")
        runner = ParallelEngineRunner(fresh_engine(small_day), workers=2)
        analyses = runner.disambiguate(
            small_day.store, small_detection, small_day.ground_truth.grid
        )
        assert_analyses_equal(analyses, small_analyses)
        assert (
            runner.metrics.counter("parallel.tier2.serial_fallback").value
            >= 1
        )


class TestObservability:
    def test_stage_metrics_and_stats_recorded(
        self, small_day, small_detection
    ):
        runner = ParallelEngineRunner(fresh_engine(small_day), workers=2)
        detection = runner.detect_spots(small_day.store)
        runner.disambiguate(
            small_day.store, detection, small_day.ground_truth.grid
        )
        snap = runner.metrics.snapshot()
        assert snap["gauges"]["parallel.workers"] == 2
        for stage in ("tier1", "zones", "tier2"):
            assert snap["counters"][f"parallel.{stage}.shards"] >= 1
            assert (
                snap["histograms"][f"parallel.{stage}.stage_seconds"]["count"]
                >= 1
            )
            assert (
                snap["histograms"][f"parallel.{stage}.shard_seconds"]["count"]
                >= 1
            )
            assert runner.last_stats[stage]["shards"] >= 1
            assert runner.last_stats[stage]["failed"] == 0
        assert snap["counters"]["parallel.tier1.records"] > 0
        assert snap["counters"]["parallel.tier1.events"] > 0
        assert runner.last_stats["tier1"]["pool"] is True

    def test_engine_compatible_surface(self, small_day):
        engine = fresh_engine(small_day)
        runner = ParallelEngineRunner(engine, workers=2)
        assert runner.config is engine.config
        assert runner.zones is engine.zones
        assert runner.projection is engine.projection
        assert runner.city_bbox is engine.city_bbox
        assert runner.amplification == engine.amplification
        cleaned = runner.preprocess(small_day.store)
        assert len(cleaned) <= len(small_day.store)


class TestShardPlanning:
    def test_plan_is_deterministic(self, small_day, small_engine):
        cfg = small_engine.config

        def plan():
            return plan_tier1_shards(
                small_day.store,
                small_engine.zones,
                target_shards=6,
                clean=cfg.clean_inputs,
                city_bbox=small_engine.city_bbox,
                inaccessible=small_engine.inaccessible,
                params=cfg.detection,
            )

        first, second = plan(), plan()
        shape = [
            (t.shard_id, t.zone, [taxi_id for taxi_id, _ in t.taxis])
            for t in first
        ]
        assert shape == [
            (t.shard_id, t.zone, [taxi_id for taxi_id, _ in t.taxis])
            for t in second
        ]
        assert len(first) > 1

    def test_no_taxi_splits_and_all_covered(self, small_day, small_engine):
        cfg = small_engine.config
        tasks = plan_tier1_shards(
            small_day.store,
            small_engine.zones,
            target_shards=6,
            clean=cfg.clean_inputs,
            city_bbox=small_engine.city_bbox,
            inaccessible=small_engine.inaccessible,
            params=cfg.detection,
        )
        seen = []
        for task in tasks:
            for taxi_id, records in task.taxis:
                seen.append(taxi_id)
                # Whole trajectory rides in exactly one shard.
                assert records == small_day.store.records_of(taxi_id)
                assert (
                    taxi_home_zone(small_engine.zones, records) == task.zone
                )
        assert sorted(seen) == list(small_day.store.taxi_ids)
        assert len(seen) == len(set(seen))

    def test_empty_store_plans_nothing(self, small_engine):
        cfg = small_engine.config
        assert (
            plan_tier1_shards(
                MdtLogStore(),
                small_engine.zones,
                target_shards=4,
                clean=cfg.clean_inputs,
                city_bbox=small_engine.city_bbox,
                inaccessible=small_engine.inaccessible,
                params=cfg.detection,
            )
            == []
        )

    def test_stable_shard(self):
        assert stable_shard("SH0001A", 7) == stable_shard("SH0001A", 7)
        assert all(
            0 <= stable_shard(f"T{i}", 5) < 5 for i in range(100)
        )
        with pytest.raises(ValueError):
            stable_shard("x", 0)

    def test_detach_event_is_self_contained(
        self, small_day, small_detection
    ):
        from repro.core.pea import extract_pickup_events

        # Row-path PEA events reference their taxi's whole day.
        event = next(
            sub
            for trajectory in small_day.store.iter_trajectories()
            for sub in extract_pickup_events(trajectory)
        )
        detached = detach_event(event)
        assert list(detached) == list(event)
        assert detached.taxi_id == event.taxi_id
        # The detached copy pickles without dragging the parent day.
        assert len(pickle.dumps(detached)) < len(pickle.dumps(event))
        # Engine (columnar) events already own their segment.
        engine_event = small_detection.pickup_events[0]
        assert detach_event(engine_event) is engine_event
