"""Tests for MDT records (Table 2), trajectories (Definition 1) and
pickup events, the sub-trajectories of Definition 2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pea import PickupEvent
from repro.core.spots import pickup_centroids
from repro.states.states import TaxiState
from repro.trace.record import (
    MdtRecord,
    format_timestamp,
    parse_timestamp,
)
from repro.trace.trajectory import Trajectory


def rec(ts=0.0, taxi="SH0001A", lon=103.8, lat=1.33, speed=0.0, state=TaxiState.FREE):
    return MdtRecord(ts, taxi, lon, lat, speed, state)


class TestTimestamps:
    def test_paper_sample_roundtrip(self):
        text = "01/08/2008 19:04:51"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_timestamp("2008-08-01 19:04:51")

    @given(st.integers(min_value=0, max_value=2_000_000_000))
    @settings(max_examples=50)
    def test_roundtrip_any_second(self, ts):
        assert parse_timestamp(format_timestamp(float(ts))) == float(ts)


class TestMdtRecordCsv:
    def test_paper_sample_row(self):
        row = "01/08/2008 19:04:51,SH0001A,103.799900,1.337950,54.0,POB"
        record = MdtRecord.from_csv_row(row)
        assert record.taxi_id == "SH0001A"
        assert record.speed == 54.0
        assert record.state is TaxiState.POB
        assert record.to_csv_row() == row

    def test_roundtrip(self):
        record = rec(ts=1_217_548_800.0, speed=33.5, state=TaxiState.ONCALL)
        assert MdtRecord.from_csv_row(record.to_csv_row()) == record

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="6 fields"):
            MdtRecord.from_csv_row("a,b,c")

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            MdtRecord.from_csv_row(
                "01/08/2008 19:04:51,SH0001A,103.8,1.3,54,WARP"
            )

    def test_records_are_immutable(self):
        with pytest.raises(AttributeError):
            rec().speed = 99.0

    def test_replace_ts(self):
        record = rec(ts=10.0)
        copy = record.replace_ts(20.0)
        assert copy.ts == 20.0
        assert copy.taxi_id == record.taxi_id


class TestTrajectory:
    def test_orders_enforced(self):
        with pytest.raises(ValueError, match="time-ordered"):
            Trajectory("SH0001A", [rec(ts=10.0), rec(ts=5.0)])

    def test_foreign_record_rejected(self):
        with pytest.raises(ValueError):
            Trajectory("SH0001A", [rec(taxi="SH0002A")])

    def test_span_and_iteration(self):
        traj = Trajectory("SH0001A", [rec(ts=0.0), rec(ts=30.0), rec(ts=90.0)])
        assert len(traj) == 3
        assert [r.ts for r in traj] == [0.0, 30.0, 90.0]

    def test_states_and_timeline(self):
        traj = Trajectory(
            "SH0001A",
            [rec(ts=0.0, state=TaxiState.FREE), rec(ts=5.0, state=TaxiState.POB)],
        )
        assert traj.timeline() == [(0.0, TaxiState.FREE), (5.0, TaxiState.POB)]

    def test_empty_trajectory(self):
        traj = Trajectory("SH0001A", [])
        assert len(traj) == 0
        assert list(traj) == []


class TestPickupEvent:
    def test_centroid_is_mean(self):
        event = PickupEvent.from_records(
            "SH0001A",
            (
                rec(ts=0.0, lon=103.80, lat=1.30),
                rec(ts=30.0, lon=103.82, lat=1.32),
                rec(ts=60.0, lon=103.84, lat=1.34, state=TaxiState.POB),
            ),
        )
        lon, lat = pickup_centroids([event])[0].tolist()
        assert lon == pytest.approx(103.82)
        assert lat == pytest.approx(1.32)
