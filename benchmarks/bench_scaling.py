"""Throughput benchmarks of the analytic stages (not in the paper).

The paper processes 12.4 M records/day in a deployed backend; these
benches record what our implementation sustains per stage so regressions
are visible: PEA extraction, DBSCAN clustering (grid backend), WTE +
feature computation, and full-store cleaning.
"""

import pytest
from conftest import emit

from repro.core.features import compute_slot_features
from repro.core.pea import extract_pickup_events_batch
from repro.core.spots import detect_from_centroids, pickup_centroids
from repro.core.wte import extract_wait_times
from repro.trace.cleaning import clean_batch


@pytest.fixture(scope="module")
def batch(bench_day):
    return bench_day.store.to_batch()


@pytest.fixture(scope="module")
def cleaned(bench_day, batch):
    city = bench_day.city
    return clean_batch(batch, city_bbox=city.bbox, inaccessible=city.water)[0]


@pytest.fixture(scope="module")
def events(cleaned):
    return extract_pickup_events_batch(cleaned)


def test_scaling_cleaning(benchmark, bench_day, batch):
    city = bench_day.city
    result = benchmark.pedantic(
        lambda: clean_batch(
            batch, city_bbox=city.bbox, inaccessible=city.water
        ),
        rounds=3,
        iterations=1,
    )
    emit(
        "scaling_cleaning",
        [f"cleaning throughput over {len(bench_day.store):,} records"],
    )
    assert len(result[0]) > 0


def test_scaling_pea(benchmark, cleaned):
    events = benchmark.pedantic(
        lambda: extract_pickup_events_batch(cleaned), rounds=3, iterations=1
    )
    emit(
        "scaling_pea",
        [
            f"PEA over {len(cleaned):,} records -> "
            f"{len(events):,} pickup events"
        ],
    )
    assert len(events) > 1000


def test_scaling_dbscan(benchmark, bench_day, events):
    city = bench_day.city
    lonlat = pickup_centroids(events)

    result = benchmark.pedantic(
        lambda: detect_from_centroids(lonlat, city.zones, city.projection),
        rounds=3,
        iterations=1,
    )
    emit(
        "scaling_dbscan",
        [
            f"per-zone DBSCAN over {len(lonlat):,} centroids -> "
            f"{len(result.spots)} spots"
        ],
    )
    assert result.spots


def test_scaling_wte_features(benchmark, bench_day, events):
    grid = bench_day.ground_truth.grid

    def run():
        wait_events = extract_wait_times(events)
        return compute_slot_features(wait_events, grid)

    features = benchmark.pedantic(run, rounds=3, iterations=1)
    emit(
        "scaling_wte",
        [f"WTE + features over {len(events):,} events"],
    )
    assert len(features) == grid.n_slots
