"""Tests for the named simulation scenarios."""

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.scenarios import (
    SCENARIOS,
    build_scenario,
    scenario_names,
)


class TestRegistry:
    def test_names_sorted_and_complete(self):
        assert scenario_names() == sorted(SCENARIOS)
        assert "default" in scenario_names()

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="default"):
            build_scenario("warp-speed")

    def test_all_scenarios_build_valid_configs(self):
        for name in scenario_names():
            config = build_scenario(name, seed=3)
            assert isinstance(config, SimulationConfig)
            assert config.seed == 3

    def test_seed_propagates(self):
        assert build_scenario("default", seed=99).seed == 99


class TestScenarioSemantics:
    def test_undersupplied_has_smaller_fleet(self):
        default = build_scenario("default")
        under = build_scenario("undersupplied")
        assert under.fleet_size < default.fleet_size

    def test_oversupplied_has_bigger_patient_fleet(self):
        default = build_scenario("default")
        over = build_scenario("oversupplied")
        assert over.fleet_size > default.fleet_size
        assert over.taxi_queue_patience_s > default.taxi_queue_patience_s

    def test_night_economy_is_saturday(self):
        assert build_scenario("night-economy").day_of_week == 5

    def test_sparse_observation_fraction(self):
        assert build_scenario("sparse-observation").observed_fraction == 0.3

    def test_pristine_disables_noise(self):
        assert not build_scenario("pristine").noise.enabled
        assert build_scenario("default").noise.enabled


class TestPristineEndToEnd:
    def test_pristine_logs_clean_to_nothing(self):
        from dataclasses import replace

        from repro.sim.fleet import simulate_day
        from repro.trace.cleaning import clean_batch

        config = replace(
            build_scenario("pristine", seed=5),
            fleet_size=60,
            n_queue_spots=5,
            n_decoy_landmarks=2,
        )
        output = simulate_day(config)
        _, report = clean_batch(
            output.store.to_batch(),
            city_bbox=output.city.bbox,
            inaccessible=output.city.water,
        )
        # No injected noise: no duplicates, no improper states.  A small
        # residue of GPS fixes in water remains (straight-line movement,
        # see the scenario docstring).
        assert report.duplicate == 0
        assert report.improper_state == 0
        assert report.removed_fraction < 0.02
