"""Coverage for remaining small public surfaces."""

import pytest

from repro.states.states import TaxiState
from repro.trace.record import MdtRecord


class TestFromFields:
    def test_builds_from_split_fields(self):
        record = MdtRecord.from_fields(
            ["01/08/2008 19:04:51", "SH0001A", "103.8", "1.33", "54", "POB"]
        )
        assert record.taxi_id == "SH0001A"
        assert record.state is TaxiState.POB

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            MdtRecord.from_fields(["a", "b"])


class TestCliDemo:
    def test_demo_runs_end_to_end(self, capsys):
        from repro.cli import main

        code = main(["demo", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "Queue Type" in out
        assert "Queue spot QS001" in out


def _row_zone_ratios(store, zones):
    """Row-path reference for ``zone_street_job_ratios``: each taxi's
    whole trajectory counts its jobs toward its majority zone."""
    from repro.core.thresholds import DEFAULT_STREET_JOB_RATIO
    from tests._row_jobs import job_counts

    zone_jobs = {zone.name: [0, 0] for zone in zones}
    for trajectory in store.iter_trajectories():
        counts = {}
        step = max(1, len(trajectory) // 25)
        for record in trajectory.records[::step]:
            name = zones.classify_or_nearest(record.lon, record.lat)
            counts[name] = counts.get(name, 0) + 1
        street, total = job_counts(trajectory.timeline())
        home = zone_jobs[max(counts, key=counts.get)]
        home[0] += street
        home[1] += total
    return {
        name: street / total if total else DEFAULT_STREET_JOB_RATIO
        for name, (street, total) in zone_jobs.items()
    }


class TestEngineZoneRatios:
    def test_ratios_per_zone(self, small_engine, small_day):
        from repro.core.thresholds import zone_street_job_ratios

        cleaned = small_engine.preprocess(small_day.store)
        ratios = zone_street_job_ratios(cleaned.to_batch(), small_engine.zones)
        assert ratios == _row_zone_ratios(cleaned, small_engine.zones)
        assert set(ratios) == {"Central", "North", "West", "East"}
        for value in ratios.values():
            assert 0.0 <= value <= 1.0
        # Most jobs are street jobs in the simulated city (bookings are
        # a small minority), matching the paper's ~0.84+ ratios.
        busiest = max(ratios.values())
        assert busiest > 0.6


class TestOpticsEmptyExtraction:
    def test_n_clusters_at_empty(self):
        import numpy as np

        from repro.cluster.optics import optics

        result = optics(np.empty((0, 2)), max_eps=5.0, min_pts=3)
        assert result.n_clusters_at(2.0) == 0


class TestDemandHourlyTable:
    def test_24_rows(self):
        from repro.sim.config import SimulationConfig
        from repro.sim.demand import DemandModel, hourly_table
        from repro.sim.landmarks import Landmark, LandmarkCategory

        lm = Landmark(
            "LM001", "x", LandmarkCategory.MRT_BUS, 103.8, 1.33, "Central"
        )
        table = hourly_table(DemandModel(SimulationConfig()), lm)
        assert len(table) == 24
