"""Tests for tier-1 queue spot detection (section 4)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pea import PickupEvent
from repro.core.spots import (
    SpotDetectionParams,
    assign_events_to_spots,
    detect_from_centroids,
    nearest_spots,
    pickup_centroids,
)
from repro.core.types import QueueSpot
from repro.geo.point import LocalProjection, destination_point
from repro.geo.zones import four_zone_partition
from repro.sim.city import DEFAULT_CITY_BBOX
from repro.states.states import TaxiState
from repro.trace.record import MdtRecord

ZONES = four_zone_partition(DEFAULT_CITY_BBOX)
LON, LAT = DEFAULT_CITY_BBOX.center
PROJ = LocalProjection(LON, LAT)


def synthetic_cloud(centers, per_center=60, spread_m=5.0, noise=0, seed=0):
    """Pickup-centroid cloud: tight blobs at given lon/lat plus noise."""
    rng = np.random.default_rng(seed)
    points = []
    for clon, clat in centers:
        for _ in range(per_center):
            bearing = rng.uniform(0, 360)
            dist = abs(rng.normal(0, spread_m))
            points.append(destination_point(clon, clat, bearing, dist))
    for _ in range(noise):
        points.append(
            (
                rng.uniform(DEFAULT_CITY_BBOX.west, DEFAULT_CITY_BBOX.east),
                rng.uniform(DEFAULT_CITY_BBOX.south, DEFAULT_CITY_BBOX.north),
            )
        )
    return np.asarray(points)


class TestDetectFromCentroids:
    def test_detects_planted_spots(self):
        centers = [(LON, LAT), (LON + 0.05, LAT + 0.03)]
        cloud = synthetic_cloud(centers, per_center=80, noise=100)
        result = detect_from_centroids(cloud, ZONES, PROJ)
        assert len(result.spots) == 2
        # Centroids land within a few metres of the planted centres.
        for clon, clat in centers:
            dists = [
                PROJ.to_xy(s.lon, s.lat)
                for s in result.spots
            ]
            cx, cy = PROJ.to_xy(clon, clat)
            assert min(
                (x - cx) ** 2 + (y - cy) ** 2 for x, y in dists
            ) < 10.0**2

    def test_scattered_noise_not_clustered(self):
        cloud = synthetic_cloud([], noise=500)
        result = detect_from_centroids(cloud, ZONES, PROJ)
        assert result.spots == []
        assert result.noise_count == 500

    def test_min_pts_filters_small_spots(self):
        cloud = synthetic_cloud([(LON, LAT)], per_center=30)
        params = SpotDetectionParams(min_pts=50)
        assert detect_from_centroids(cloud, ZONES, PROJ, params).spots == []
        params = SpotDetectionParams(min_pts=20)
        assert len(detect_from_centroids(cloud, ZONES, PROJ, params).spots) == 1

    def test_spots_sorted_by_pickup_count(self):
        cloud = np.vstack(
            [
                synthetic_cloud([(LON, LAT)], per_center=60, seed=1),
                synthetic_cloud([(LON + 0.05, LAT)], per_center=120, seed=2),
            ]
        )
        result = detect_from_centroids(cloud, ZONES, PROJ)
        counts = [s.pickup_count for s in result.spots]
        assert counts == sorted(counts, reverse=True)
        assert result.spots[0].spot_id == "QS001"

    def test_per_zone_counts(self):
        box = DEFAULT_CITY_BBOX
        central_lon = box.west + 0.55 * (box.east - box.west)
        central_lat = box.south + 0.35 * (box.north - box.south)
        west_lon = box.west + 0.02
        cloud = np.vstack(
            [
                synthetic_cloud([(central_lon, central_lat)], per_center=60, seed=1),
                synthetic_cloud([(west_lon, central_lat)], per_center=60, seed=2),
            ]
        )
        result = detect_from_centroids(cloud, ZONES, PROJ)
        assert result.per_zone_counts["Central"] == 1
        assert result.per_zone_counts["West"] == 1

    def test_empty_input(self):
        result = detect_from_centroids(np.empty((0, 2)), ZONES, PROJ)
        assert result.spots == []

    def test_adjacent_spots_not_merged(self):
        # Two spots 400 m apart must stay distinct at eps = 15 m.
        b = destination_point(LON, LAT, 90.0, 400.0)
        cloud = synthetic_cloud([(LON, LAT), b], per_center=80)
        result = detect_from_centroids(cloud, ZONES, PROJ)
        assert len(result.spots) == 2


class TestPickupCentroids:
    def test_centroid_of_events(self):
        records = [
            MdtRecord(0.0, "A", 103.80, 1.30, 5.0, TaxiState.FREE),
            MdtRecord(30.0, "A", 103.82, 1.32, 5.0, TaxiState.POB),
        ]
        lonlat = pickup_centroids([PickupEvent("A", tuple(records))])
        assert lonlat.shape == (1, 2)
        assert lonlat[0, 0] == pytest.approx(103.81)

    def test_empty(self):
        assert pickup_centroids([]).shape == (0, 2)


class TestAssignEventsToSpots:
    def _event_at(self, lon, lat, taxi="A"):
        records = (
            MdtRecord(0.0, taxi, lon, lat, 5.0, TaxiState.FREE),
            MdtRecord(30.0, taxi, lon, lat, 5.0, TaxiState.POB),
        )
        return PickupEvent(taxi, records)

    def test_assignment_within_radius(self):
        spot = QueueSpot("QS001", LON, LAT, "Central", 100, 5.0)
        near = self._event_at(*destination_point(LON, LAT, 45.0, 10.0))
        far = self._event_at(*destination_point(LON, LAT, 45.0, 500.0))
        buckets = assign_events_to_spots([near, far], [spot], PROJ)
        assert len(buckets["QS001"]) == 1

    def test_nearest_spot_wins(self):
        a = QueueSpot("QS001", LON, LAT, "Central", 100, 5.0)
        b_lonlat = destination_point(LON, LAT, 90.0, 50.0)
        b = QueueSpot("QS002", b_lonlat[0], b_lonlat[1], "Central", 100, 5.0)
        event = self._event_at(*destination_point(LON, LAT, 90.0, 10.0))
        buckets = assign_events_to_spots([event], [a, b], PROJ)
        assert len(buckets["QS001"]) == 1
        assert len(buckets["QS002"]) == 0

    def test_no_spots(self):
        assert assign_events_to_spots([self._event_at(LON, LAT)], [], PROJ) == {}

    def test_every_spot_has_bucket(self):
        spot = QueueSpot("QS001", LON, LAT, "Central", 100, 5.0)
        buckets = assign_events_to_spots([], [spot], PROJ)
        assert buckets == {"QS001": []}


def loop_nearest(event_xy, spot_xy, radius):
    """W(r) one event at a time: the reference for ``nearest_spots``."""
    nearest = []
    for xy in event_xy:
        if len(spot_xy) == 0:
            nearest.append(-1)
            continue
        diff = spot_xy - xy
        d2 = np.einsum("ij,ij->i", diff, diff)
        j = int(np.argmin(d2))
        nearest.append(j if d2[j] <= radius * radius else -1)
    return nearest


#: Whole metres give exact ties and exact radius hits; any float the rest.
metres = st.one_of(
    st.integers(-40, 40).map(float),
    st.floats(-60.0, 60.0, allow_nan=False),
)
points = st.lists(st.tuples(metres, metres), max_size=30)


def _xy(pairs):
    return np.asarray(pairs, dtype=np.float64).reshape(-1, 2)


class TestNearestSpots:
    @given(points, st.lists(st.tuples(metres, metres), max_size=8),
           st.sampled_from([0.0, 5.0, 10.0, 30.0]))
    @example([(30.0, 0.0), (0.0, -30.0), (30.0, 1.0)], [(0.0, 0.0)], 30.0)
    @example([(5.0, 0.0), (0.0, 5.0)], [(0.0, 0.0), (10.0, 0.0)], 30.0)
    @example([(3.0, 4.0)], [(0.0, 0.0), (0.0, 0.0)], 5.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_event_loop(self, events, spots, radius):
        event_xy, spot_xy = _xy(events), _xy(spots)
        assert nearest_spots(event_xy, spot_xy, radius).tolist() == (
            loop_nearest(event_xy, spot_xy, radius)
        )

    def test_event_exactly_at_radius_joins(self):
        nearest = nearest_spots(
            _xy([(30.0, 0.0), (18.0, 24.0), (30.000000000000004, 0.0)]),
            _xy([(0.0, 0.0)]),
            30.0,
        )
        assert nearest.tolist() == [0, 0, -1]

    def test_equidistant_spots_go_to_lower_index(self):
        nearest = nearest_spots(
            _xy([(5.0, 0.0), (5.0, 7.0)]),
            _xy([(10.0, 0.0), (0.0, 0.0)]),
            30.0,
        )
        assert nearest.tolist() == [0, 0]

    def test_blocks_match_per_event_loop(self):
        rng = np.random.default_rng(5)
        event_xy = rng.uniform(-500.0, 500.0, size=(10_000, 2))
        spot_xy = rng.uniform(-500.0, 500.0, size=(30, 2))
        nearest = nearest_spots(event_xy, spot_xy, 30.0)
        assert (nearest >= 0).any()
        assert nearest.tolist() == loop_nearest(event_xy, spot_xy, 30.0)

    def test_no_spots(self):
        assert nearest_spots(_xy([(0.0, 0.0)]), _xy([]), 30.0).tolist() == [-1]
