"""End-to-end golden regression (committed fixture).

``tests/data/golden_day.csv`` is a small fixed-seed simulated day;
``tests/data/golden_expected.json`` is the exact pipeline output the
serial engine produced for it when the fixture was generated.  These
tests re-run the full pipeline — CSV ingest, cleaning, PEA, per-zone
DBSCAN, W(r) assembly, WTE, features, thresholds, QCD — and demand
byte-for-byte identical spots and labels, so *any* semantic drift in
*any* stage fails loudly.

Regenerate after intentional semantic changes with::

    PYTHONPATH=src python scripts/make_golden_fixture.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.fleet import simulate_day
from repro.trace.log_store import MdtLogStore
from tests._golden import (
    GOLDEN_DECOYS,
    GOLDEN_FLEET,
    GOLDEN_SEED,
    GOLDEN_SPOTS,
    golden_engine,
    pipeline_snapshot,
)

DATA_DIR = Path(__file__).parent / "data"
CSV_PATH = DATA_DIR / "golden_day.csv"
EXPECTED_PATH = DATA_DIR / "golden_expected.json"


@pytest.fixture(scope="module")
def golden_store() -> MdtLogStore:
    # Strict parsing: the committed fixture must be pristine.
    return MdtLogStore.from_csv(CSV_PATH, on_error="raise")


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _assert_snapshot_equal(actual: dict, expected: dict) -> None:
    # Compare piecewise for a readable diff before the full-dict check.
    assert actual["per_zone_counts"] == expected["per_zone_counts"]
    assert actual["noise_count"] == expected["noise_count"]
    assert actual["spots"] == expected["spots"]
    assert actual["thresholds"] == expected["thresholds"]
    assert actual["labels"] == expected["labels"]
    assert actual == expected


def test_fixture_files_exist():
    assert CSV_PATH.is_file()
    assert EXPECTED_PATH.is_file()


def test_fixture_detects_spots(expected):
    # Guard against a degenerate regeneration: the day must exercise
    # clustering in more than one zone and produce real label variety.
    assert len(expected["spots"]) >= 3
    occupied = [z for z, n in expected["per_zone_counts"].items() if n]
    assert len(occupied) >= 2
    label_kinds = {
        entry["label"]
        for labels in expected["labels"].values()
        for entry in labels
    }
    assert len(label_kinds) >= 2


def test_golden_serial(golden_store, expected):
    engine = golden_engine(golden_store)
    _assert_snapshot_equal(pipeline_snapshot(engine, golden_store), expected)


def test_simulator_regenerates_the_fixture_csv(tmp_path):
    # The simulator -> store -> CSV path that makes the fixture (and
    # every benchmark day) must reproduce it byte for byte.
    output = simulate_day(
        SimulationConfig(
            seed=GOLDEN_SEED,
            fleet_size=GOLDEN_FLEET,
            n_queue_spots=GOLDEN_SPOTS,
            n_decoy_landmarks=GOLDEN_DECOYS,
        )
    )
    path = tmp_path / "golden_day.csv"
    output.store.to_csv(path)
    assert path.read_bytes() == CSV_PATH.read_bytes()
