"""Round-trip tests of the export layer against in-memory objects.

``test_export.py`` checks shapes on synthetic analyses; this module
re-parses what the exporters actually wrote — GeoJSON via ``json``,
CSV via ``csv`` — and compares field by field against the live
pipeline objects on the committed golden day, plus the empty-day and
single-spot edges.  Catches formatter drift (column order, precision,
None encoding) that shape tests cannot see.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from repro.conformance.canonical import day_grid
from repro.core.engine import SpotAnalysis
from repro.core.types import (
    QueueSpot,
    QueueType,
    SlotFeatures,
    SlotLabel,
    TimeSlotGrid,
)
from repro.export.csv_report import (
    write_features_csv,
    write_labels_csv,
    write_spots_csv,
)
from repro.export.geojson import (
    TYPE_COLORS,
    dump_geojson,
    labels_to_geojson,
    spots_to_geojson,
)
from repro.trace.log_store import MdtLogStore
from tests._golden import golden_engine

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden_pipeline():
    """Spots, analyses and grid from the committed golden day."""
    store = MdtLogStore.from_csv(DATA_DIR / "golden_day.csv")
    engine = golden_engine(store)
    detection = engine.detect_spots(store)
    lo, hi = detection.cleaned_for(store).time_span
    grid = day_grid(lo, hi, engine.config.slot_seconds)
    analyses = engine.disambiguate(store, detection, grid)
    return detection.spots, list(analyses.values()), grid


class TestGeojsonRoundTrip:
    def test_spots_survive_disk_round_trip(self, golden_pipeline,
                                           tmp_path):
        spots, _, _ = golden_pipeline
        path = tmp_path / "spots.geojson"
        dump_geojson(spots_to_geojson(spots), path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["type"] == "FeatureCollection"
        assert len(loaded["features"]) == len(spots)
        for feature, spot in zip(loaded["features"], spots):
            # JSON round-trips floats exactly (shortest-repr), so
            # coordinates must match bit for bit.
            assert feature["geometry"]["coordinates"] == [spot.lon,
                                                          spot.lat]
            props = feature["properties"]
            assert props["spot_id"] == spot.spot_id
            assert props["zone"] == spot.zone
            assert props["pickup_count"] == spot.pickup_count
            assert props["radius_m"] == round(spot.radius_m, 1)

    def test_label_report_view_matches_analyses(self, golden_pipeline,
                                                tmp_path):
        _, analyses, grid = golden_pipeline
        path = tmp_path / "labels.geojson"
        dump_geojson(labels_to_geojson(analyses, grid), path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert len(loaded["features"]) == len(analyses)
        for feature, analysis in zip(loaded["features"], analyses):
            assert (feature["properties"]["spot_id"]
                    == analysis.spot.spot_id)
            rows = feature["properties"]["labels"]
            assert len(rows) == len(analysis.labels)
            for row, label in zip(rows, analysis.labels):
                assert row["queue_type"] == label.label.value
                assert row["time"] == grid.label_of(label.slot)

    def test_label_hover_view_single_slot(self, golden_pipeline):
        _, analyses, grid = golden_pipeline
        collection = labels_to_geojson(analyses, grid, slot=0)
        for feature, analysis in zip(collection["features"], analyses):
            label = analysis.labels[0].label
            assert feature["properties"]["queue_type"] == label.value
            assert feature["properties"]["color"] == TYPE_COLORS[label]

    def test_empty_day(self, tmp_path):
        path = tmp_path / "empty.geojson"
        dump_geojson(spots_to_geojson([]), path)
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "type": "FeatureCollection", "features": []
        }
        grid = TimeSlotGrid(0.0, 3600.0, 1800.0)
        assert labels_to_geojson([], grid)["features"] == []


class TestCsvRoundTrip:
    def test_spots_csv(self, golden_pipeline, tmp_path):
        spots, _, _ = golden_pipeline
        path = tmp_path / "spots.csv"
        assert write_spots_csv(spots, path) == len(spots)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(spots)
        for row, spot in zip(rows, spots):
            assert row["spot_id"] == spot.spot_id
            assert row["zone"] == spot.zone
            assert int(row["pickup_count"]) == spot.pickup_count
            # Written at %.6f / %.1f: half a unit in the last place.
            assert float(row["longitude"]) == pytest.approx(
                spot.lon, abs=5e-7)
            assert float(row["latitude"]) == pytest.approx(
                spot.lat, abs=5e-7)
            assert float(row["radius_m"]) == pytest.approx(
                spot.radius_m, abs=0.05)

    def test_labels_csv(self, golden_pipeline, tmp_path):
        _, analyses, grid = golden_pipeline
        path = tmp_path / "labels.csv"
        expected_rows = sum(len(a.labels) for a in analyses)
        assert write_labels_csv(analyses, grid, path) == expected_rows
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        flat = [
            (a.spot.spot_id, label)
            for a in analyses for label in a.labels
        ]
        assert len(rows) == len(flat)
        for row, (spot_id, label) in zip(rows, flat):
            assert row["spot_id"] == spot_id
            assert int(row["slot"]) == label.slot
            assert row["time"] == grid.label_of(label.slot)
            assert row["queue_type"] == label.label.value
            assert int(row["routine"]) == label.routine

    def test_features_csv(self, golden_pipeline, tmp_path):
        _, analyses, grid = golden_pipeline
        path = tmp_path / "features.csv"
        expected_rows = sum(len(a.features) for a in analyses)
        assert write_features_csv(analyses, grid, path) == expected_rows
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        flat = [f for a in analyses for f in a.features]
        assert len(rows) == len(flat)
        saw_empty_wait = saw_wait = False
        for row, f in zip(rows, flat):
            if f.mean_wait_s is None:
                assert row["mean_wait_s"] == ""
                saw_empty_wait = True
            else:
                assert float(row["mean_wait_s"]) == pytest.approx(
                    f.mean_wait_s, abs=0.05)
                saw_wait = True
            assert float(row["n_arrivals"]) == pytest.approx(
                f.n_arrivals, abs=0.005)
            assert float(row["queue_length"]) == pytest.approx(
                f.queue_length, abs=0.0005)
            assert float(row["n_departures"]) == pytest.approx(
                f.n_departures, abs=0.005)
        # The golden day exercises both encodings of mean_wait_s.
        assert saw_empty_wait and saw_wait

    def test_empty_day(self, tmp_path):
        grid = TimeSlotGrid(0.0, 3600.0, 1800.0)
        spots_path = tmp_path / "spots.csv"
        labels_path = tmp_path / "labels.csv"
        assert write_spots_csv([], spots_path) == 0
        assert write_labels_csv([], grid, labels_path) == 0
        # Header-only files: one line each, parseable, zero data rows.
        with spots_path.open(newline="", encoding="utf-8") as fh:
            assert list(csv.DictReader(fh)) == []
        with labels_path.open(newline="", encoding="utf-8") as fh:
            assert list(csv.DictReader(fh)) == []


class TestSingleSpotEdge:
    def _analysis(self):
        spot = QueueSpot("QS001", 103.812345, 1.337654, "West", 42, 7.25)
        labels = [SlotLabel(0, QueueType.C3, 1)]
        features = [SlotFeatures(0, None, 0.0, 0.0, 0.0, 0.0)]
        return SpotAnalysis(spot=spot, wait_events=[], features=features,
                            labels=labels, thresholds=None)

    def test_round_trips_everywhere(self, tmp_path):
        analysis = self._analysis()
        grid = TimeSlotGrid(0.0, 1800.0, 1800.0)

        collection = spots_to_geojson([analysis.spot])
        assert collection["features"][0]["properties"]["radius_m"] == 7.2

        path = tmp_path / "one.csv"
        assert write_spots_csv([analysis.spot], path) == 1
        with path.open(newline="", encoding="utf-8") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["longitude"] == "103.812345"
        assert row["latitude"] == "1.337654"
        assert row["radius_m"] == "7.2"

        features_path = tmp_path / "features.csv"
        assert write_features_csv([analysis], grid, features_path) == 1
        with features_path.open(newline="", encoding="utf-8") as fh:
            frow = list(csv.DictReader(fh))[0]
        assert frow["mean_wait_s"] == ""  # None encodes as empty
        assert frow["queue_length"] == "0.000"
