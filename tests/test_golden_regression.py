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

from repro.trace.log_store import MdtLogStore
from tests._golden import golden_engine, pipeline_snapshot

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
