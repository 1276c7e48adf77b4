"""Ablation — DBSCAN neighbour backends (section 4.3).

The paper warns the naive O(n^2) DBSCAN is "significantly slow" on the
daily location set and recommends grid or R-tree spatial indexes.  This
bench times the sequential DBSCAN walk over brute force and over the grid
index, and the array kernel the engine runs (``array``: a sorted
grid-cell index, without a per-point loop), on the same pickup-centroid
set, and checks they detect identical spots.
"""

import time

from conftest import emit

from repro.core.pea import extract_pickup_events_batch
from repro.core.spots import detect_from_centroids, pickup_centroids
from repro.cluster.neighbors import BruteForceNeighbors, GridNeighbors

#: ``None`` selects the array kernel; a backend, the walk over it.
BACKENDS = [
    ("brute", BruteForceNeighbors),
    ("grid", GridNeighbors),
    ("array", None),
]


def test_ablation_neighbor_backends(benchmark, bench_day, bench_engine):
    city = bench_day.city
    cleaned = bench_engine.preprocess(bench_day.store)
    events, _ = extract_pickup_events_batch(cleaned.to_batch())
    lonlat = pickup_centroids(events)

    timings = {}
    counts = {}
    spots = {}

    def run_all():
        for name, backend in BACKENDS:
            start = time.perf_counter()
            result = detect_from_centroids(
                lonlat, city.zones, city.projection,
                neighbors_factory=backend,
            )
            timings[name] = time.perf_counter() - start
            counts[name] = len(result.spots)
            spots[name] = result.spots
        return counts

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "== Ablation: DBSCAN neighbour backends (section 4.3) ==",
        f"({len(lonlat):,} pickup centroids, eps=15 m, minPts=50)",
        "",
        f"{'backend':<12}{'spots':>8}{'seconds':>10}{'speedup':>10}",
    ]
    base = timings["brute"]
    for name, _ in BACKENDS:
        lines.append(
            f"{name:<12}{counts[name]:>8d}{timings[name]:>10.3f}"
            f"{base / timings[name]:>10.1f}x"
        )
    emit("ablation_index", lines)

    # All backends agree on the outcome, the kernel spot for spot.
    assert counts["brute"] == counts["grid"] == counts["array"]
    assert spots["array"] == spots["brute"]
    # The indexes beat brute force (the paper's point), and the kernel
    # beats the walk over the same grid.
    assert timings["grid"] < timings["brute"]
    assert timings["array"] < timings["grid"]
