"""Tests for the per-slot 5-tuple features and QCD threshold derivation."""

import pytest

from repro.core.features import AmplificationPolicy, compute_slot_features
from repro.columnar import RecordBatch
from repro.core.thresholds import (
    ThresholdPolicy,
    derive_thresholds,
    derive_thresholds_from_features,
    zone_street_job_ratios,
)
from repro.core.types import SlotFeatures, TimeSlotGrid
from repro.core.wte import WaitEvent
from repro.geo.bbox import BBox
from repro.geo.zones import Zone, ZonePartition
from repro.states.states import TaxiState
from repro.trace.record import MdtRecord

GRID = TimeSlotGrid(0.0, 7200.0, 1800.0)  # 4 half-hour slots


def ev(start, wait, state=TaxiState.FREE, taxi="A"):
    return WaitEvent(start_ts=start, end_ts=start + wait, start_state=state, taxi_id=taxi)


class TestAmplification:
    def test_identity_default(self):
        assert AmplificationPolicy().factor == 1.0

    def test_for_coverage(self):
        policy = AmplificationPolicy.for_coverage(0.6)
        assert policy.factor == pytest.approx(1.0 / 0.6)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            AmplificationPolicy(factor=0.5)
        with pytest.raises(ValueError):
            AmplificationPolicy.for_coverage(0.0)
        with pytest.raises(ValueError):
            AmplificationPolicy.for_coverage(1.5)


class TestSlotFeatures:
    def test_basic_slot(self):
        events = [ev(100.0, 300.0), ev(400.0, 300.0), ev(900.0, 100.0)]
        features = compute_slot_features(events, GRID)
        f = features[0]
        assert f.n_arrivals == 3
        assert f.mean_wait_s == pytest.approx((300 + 300 + 100) / 3)
        # L = mean_wait * (N/slot_len) by Little's law.
        assert f.queue_length == pytest.approx(f.mean_wait_s * 3 / 1800.0)

    def test_street_only_in_wait_mean(self):
        events = [
            ev(100.0, 100.0, TaxiState.FREE),
            ev(200.0, 999.0, TaxiState.ONCALL),
        ]
        f = compute_slot_features(events, GRID)[0]
        assert f.mean_wait_s == pytest.approx(100.0)
        assert f.n_arrivals == 1
        assert f.n_departures == 2  # booking departures count

    def test_departure_intervals(self):
        events = [ev(0.0, 100.0), ev(100.0, 100.0), ev(300.0, 100.0)]
        # Departures at 100, 200, 400 -> gaps 100, 200 -> mean 150.
        f = compute_slot_features(events, GRID)[0]
        assert f.mean_departure_interval_s == pytest.approx(150.0)

    def test_single_departure_uses_slot_length(self):
        f = compute_slot_features([ev(0.0, 50.0)], GRID)[0]
        assert f.mean_departure_interval_s == 1800.0

    def test_empty_slot(self):
        features = compute_slot_features([], GRID)
        assert len(features) == GRID.n_slots
        for f in features:
            assert f.mean_wait_s is None
            assert f.n_arrivals == 0
            assert f.queue_length == 0.0

    def test_events_outside_grid_ignored(self):
        features = compute_slot_features([ev(99_999.0, 10.0)], GRID)
        assert all(f.n_arrivals == 0 for f in features)

    def test_amplification_scales_counts(self):
        events = [ev(0.0, 100.0), ev(100.0, 100.0), ev(600.0, 100.0)]
        plain = compute_slot_features(events, GRID)[0]
        amp = compute_slot_features(
            events, GRID, AmplificationPolicy.for_coverage(0.5)
        )[0]
        assert amp.n_arrivals == pytest.approx(plain.n_arrivals * 2)
        assert amp.n_departures == pytest.approx(plain.n_departures * 2)
        assert amp.queue_length == pytest.approx(plain.queue_length * 2)
        assert amp.mean_departure_interval_s == pytest.approx(
            plain.mean_departure_interval_s / 2
        )
        # The mean wait itself is not amplified.
        assert amp.mean_wait_s == pytest.approx(plain.mean_wait_s)


class TestEventLevelThresholds:
    def test_shortest_quintile_mean(self):
        # Waits 10..100; shortest 20% = {10, 20} -> eta_wait = 15.
        events = [ev(float(i), 10.0 * (i + 1)) for i in range(10)]
        th = derive_thresholds(
            events, 1800.0, 0.84,
            ThresholdPolicy(eta_wait_multiplier=1.0, eta_dep_multiplier=1.0),
        )
        assert th.eta_wait == pytest.approx(15.0)
        assert th.tau_arr == pytest.approx(1800.0 / 15.0)
        assert th.eta_dur == pytest.approx(1620.0)
        assert th.tau_ratio == 0.84

    def test_no_street_waits_raises(self):
        with pytest.raises(ValueError):
            derive_thresholds(
                [ev(0.0, 10.0, TaxiState.ONCALL)], 1800.0, 0.84
            )

    def test_single_departure_raises(self):
        with pytest.raises(ValueError):
            derive_thresholds([ev(0.0, 10.0)], 1800.0, 0.84)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(shortest_fraction=0.0)
        with pytest.raises(ValueError):
            ThresholdPolicy(duration_fraction=1.5)
        with pytest.raises(ValueError):
            ThresholdPolicy(granularity="daily")


class TestSlotLevelThresholds:
    def _features(self, waits, deps):
        return [
            SlotFeatures(
                slot=i,
                mean_wait_s=w,
                n_arrivals=5.0,
                queue_length=1.0,
                mean_departure_interval_s=d,
                n_departures=5.0,
            )
            for i, (w, d) in enumerate(zip(waits, deps))
        ]

    def test_derives_from_slot_means(self):
        features = self._features([100.0, 200.0, 300.0, 400.0, 500.0],
                                  [60.0, 120.0, 180.0, 240.0, 300.0])
        th = derive_thresholds_from_features(
            features, 1800.0, 0.9,
            ThresholdPolicy(eta_wait_multiplier=1.0, eta_dep_multiplier=1.0),
        )
        assert th.eta_wait == pytest.approx(100.0)
        assert th.eta_dep == pytest.approx(60.0)

    def test_placeholder_departure_slots_excluded(self):
        features = self._features([100.0, 100.0], [1800.0, 90.0])
        th = derive_thresholds_from_features(
            features, 1800.0, 0.9,
            ThresholdPolicy(eta_wait_multiplier=1.0, eta_dep_multiplier=1.0),
        )
        assert th.eta_dep == pytest.approx(90.0)

    def test_multipliers_applied(self):
        features = self._features([100.0] * 5, [50.0] * 5)
        th = derive_thresholds_from_features(
            features, 1800.0, 0.9,
            ThresholdPolicy(eta_wait_multiplier=2.0, eta_dep_multiplier=3.0),
        )
        assert th.eta_wait == pytest.approx(200.0)
        assert th.eta_dep == pytest.approx(150.0)

    def test_no_waits_raises(self):
        features = [
            SlotFeatures(0, None, 0.0, 0.0, 1800.0, 0.0),
        ]
        with pytest.raises(ValueError):
            derive_thresholds_from_features(features, 1800.0, 0.9)


class TestZoneStreetJobRatio:
    """``zone_street_job_ratios`` over a one-zone batch."""

    ZONES = ZonePartition([Zone("Only", BBox(103.7, 1.2, 103.9, 1.4))])

    def test_empty_store_uses_paper_default(self):
        assert zone_street_job_ratios(RecordBatch(), self.ZONES) == {
            "Only": 0.84
        }

    def test_mixed_jobs(self):
        S = TaxiState
        seq = [S.FREE, S.POB, S.FREE,               # street
               S.ONCALL, S.ARRIVED, S.POB, S.FREE,  # booking
               S.FREE, S.POB, S.FREE]               # street
        batch = RecordBatch.from_rows(
            MdtRecord(float(i), "A", 103.8, 1.33, 0.0, state)
            for i, state in enumerate(seq)
        )
        ratios = zone_street_job_ratios(batch, self.ZONES)
        assert ratios == {"Only": pytest.approx(2 / 3)}
