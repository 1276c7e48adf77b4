"""End-to-end tests of the two-tier engine on the shared small day."""

import pytest

from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.types import QueueType
from repro.geo.point import equirectangular_m


class TestTier1:
    def test_detects_spots(self, small_detection):
        assert len(small_detection.spots) >= 5
        for spot in small_detection.spots:
            assert spot.pickup_count >= 50  # min_pts default
            assert spot.zone in ("Central", "North", "West", "East")

    def test_detected_spots_match_ground_truth(self, small_detection, small_day):
        truths = [
            t for t in small_day.ground_truth.spots.values() if t.pickups >= 100
        ]
        matched = 0
        for truth in truths:
            best = min(
                equirectangular_m(truth.lon, truth.lat, s.lon, s.lat)
                for s in small_detection.spots
            )
            if best < 50.0:
                matched += 1
        assert matched / len(truths) >= 0.8

    def test_location_error_small(self, small_detection, small_day):
        errors = []
        for spot in small_detection.spots:
            best = min(
                equirectangular_m(t.lon, t.lat, spot.lon, spot.lat)
                for t in small_day.ground_truth.spots.values()
            )
            errors.append(best)
        # Paper: 7.6 m mean error against LTA stands.
        assert sum(errors) / len(errors) < 20.0

    def test_no_decoy_landmark_detected(self, small_detection, small_day):
        for decoy in small_day.city.decoy_landmarks:
            for spot in small_detection.spots:
                assert (
                    equirectangular_m(decoy.lon, decoy.lat, spot.lon, spot.lat)
                    > 50.0
                )

    def test_cleaning_ran(self, small_engine, small_detection):
        report = small_engine.last_cleaning_report
        assert report is not None
        assert 0.0 < report.removed_fraction < 0.06

    def test_pickup_events_carried(self, small_detection):
        assert len(small_detection.pickup_events) > 100
        assert small_detection.centroids_lonlat.shape[0] == len(
            small_detection.pickup_events
        )


class TestTier2:
    def test_analysis_per_spot(self, small_analyses, small_detection, small_day):
        assert set(small_analyses) == {s.spot_id for s in small_detection.spots}
        n_slots = small_day.ground_truth.grid.n_slots
        for analysis in small_analyses.values():
            assert len(analysis.features) == n_slots
            assert len(analysis.labels) == n_slots

    def test_labels_cover_multiple_contexts(self, small_analyses):
        seen = {
            label.label
            for analysis in small_analyses.values()
            for label in analysis.labels
        }
        assert QueueType.C4 in seen or QueueType.C3 in seen
        assert len(seen) >= 3

    def test_thresholds_derived_for_busy_spots(self, small_analyses):
        busy = [
            a for a in small_analyses.values() if len(a.wait_events) > 100
        ]
        assert busy
        for analysis in busy:
            assert analysis.thresholds is not None
            assert analysis.thresholds.eta_wait >= 1.0
            assert analysis.thresholds.tau_ratio > 0.5

    def test_wait_events_reasonable(self, small_analyses):
        for analysis in small_analyses.values():
            for event in analysis.wait_events[:50]:
                assert 0.0 <= event.wait_s < 7200.0

    def test_label_accuracy_beats_chance(self, small_analyses, small_day):
        from repro.analysis.accuracy import label_accuracy

        score = label_accuracy(
            small_analyses.values(), small_day.ground_truth
        )
        assert score.labeled > 50
        assert score.accuracy > 0.35  # 4-way chance is 0.25
        assert score.taxi_queue_agreement > 0.6

    def test_amplification_configured(self, small_engine):
        assert small_engine.amplification.factor == pytest.approx(1 / 0.6)


class TestEngineConfigPaths:
    def test_disambiguate_without_carried_events(self, small_day, small_detection):
        """Tier 2 re-extracts pickup events when detection carries none."""
        from dataclasses import replace as _  # noqa: F401
        import copy

        city = small_day.city
        engine = QueueAnalyticEngine(
            zones=city.zones,
            projection=city.projection,
            config=EngineConfig(
                observed_fraction=small_day.config.observed_fraction
            ),
            city_bbox=city.bbox,
            inaccessible=city.water,
        )
        detection = copy.copy(small_detection)
        detection.pickup_events = []
        analyses = engine.disambiguate(
            small_day.store, detection, small_day.ground_truth.grid
        )
        assert len(analyses) == len(small_detection.spots)
        assert any(a.wait_events for a in analyses.values())

    def test_another_days_detection_labels_by_this_days_events(self):
        """Tier 2 on day B with day A's detection labels B by B's own
        pickup events, exactly as B's own detection does: tier 1's
        events and centroids are reused only for tier 1's input."""
        from dataclasses import replace
        from pathlib import Path

        from repro.trace.log_store import MdtLogStore

        from tests._golden import golden_engine

        day_a = MdtLogStore.from_csv(
            Path(__file__).parent / "data" / "golden_day.csv"
        )
        day_b = MdtLogStore(
            replace(r, ts=r.ts + 86400.0) for r in day_a.iter_records()
        )
        engine = golden_engine(day_a)
        detection_a = engine.detect_spots(day_a)
        detection_b = engine.detect_spots(day_b)
        assert detection_a.spots == detection_b.spots
        assert detection_a.pickup_events != detection_b.pickup_events
        own = engine.disambiguate(day_b, detection_b)
        assert any(
            label.label is not QueueType.UNIDENTIFIED
            for analysis in own.values()
            for label in analysis.labels
        )
        assert engine.disambiguate(day_b, detection_a) == own
