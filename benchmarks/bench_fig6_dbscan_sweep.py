"""Fig. 6 — detected queue-spot count vs DBSCAN parameters.

The paper sweeps eps in {5, 10, 15, 20} m and minPts in {25, 50, 100, 150}
over one day of pickup centroids.  Expected shape: spot count *increases*
with eps and *decreases* with minPts; small eps / large minPts miss real
spots; large eps / small minPts admit insignificant ones.  Bench-scale
spot volumes match the paper's per-spot numbers, so the paper's parameter
values are used unchanged.
"""

from conftest import emit

from repro.core.pea import extract_pickup_events_batch
from repro.core.spots import SpotDetectionParams, detect_from_centroids, pickup_centroids

EPS_VALUES = (5.0, 10.0, 15.0, 20.0)
MINPTS_VALUES = (25, 50, 100, 150)


def test_fig6_parameter_sweep(benchmark, bench_day, bench_engine):
    city = bench_day.city
    cleaned = bench_engine.preprocess(bench_day.store)
    events = extract_pickup_events_batch(cleaned.to_batch())
    lonlat = pickup_centroids(events)

    def sweep():
        table = {}
        for min_pts in MINPTS_VALUES:
            for eps in EPS_VALUES:
                params = SpotDetectionParams(eps_m=eps, min_pts=min_pts)
                result = detect_from_centroids(
                    lonlat, city.zones, city.projection, params
                )
                table[(min_pts, eps)] = len(result.spots)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        "== Fig. 6: detected spot count vs DBSCAN parameters ==",
        "(paper shape: count grows with eps, shrinks with minPts;",
        " the paper picks eps=15 m, minPts=50)",
        "",
        "minPts \\ eps " + "".join(f"{eps:>8.0f}" for eps in EPS_VALUES),
    ]
    for min_pts in MINPTS_VALUES:
        row = "".join(f"{table[(min_pts, eps)]:>8d}" for eps in EPS_VALUES)
        lines.append(f"{min_pts:>11d}  {row}")
    emit("fig6_dbscan_sweep", lines)

    # Shape assertions (paper Fig. 6): permissive settings admit many
    # insignificant spots; strict settings miss real ones.
    for min_pts in MINPTS_VALUES:
        counts = [table[(min_pts, eps)] for eps in EPS_VALUES]
        # Grows with eps, modulo small-eps fragmentation (+-2).
        assert counts[0] <= counts[-1] + 2
    for eps in EPS_VALUES:
        counts = [table[(min_pts, eps)] for min_pts in MINPTS_VALUES]
        assert counts[0] >= counts[-1]
    # Small minPts admits clearly more spots than large minPts.
    assert table[(25, 20.0)] >= table[(150, 20.0)] + 5
    # The paper's operating point detects a sane number of spots.
    assert table[(50, 15.0)] >= 10
