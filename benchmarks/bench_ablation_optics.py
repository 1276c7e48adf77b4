"""Ablation — OPTICS as the alternative clustering (section 4.3).

Section 4.3: "many other advanced density-based clustering methods can
also be considered and introduced [13]".  This bench swaps DBSCAN for
OPTICS on the same per-zone pickup centroids: one reachability ordering
per zone, then DBSCAN-equivalent extraction at the paper's eps.  It
checks (a) the extraction reproduces DBSCAN's spot count at the operating
point, and (b) the single ordering replays the Fig. 6 eps sweep without
re-clustering.
"""

from conftest import emit

from repro.cluster.dbscan import dbscan
from repro.cluster.optics import optics
from repro.core.pea import extract_pickup_events_batch
from repro.core.spots import pickup_centroids

EPS_SWEEP = (5.0, 10.0, 15.0, 20.0)
MIN_PTS = 50


def test_ablation_optics_vs_dbscan(benchmark, bench_day, bench_engine):
    city = bench_day.city
    cleaned = bench_engine.preprocess(bench_day.store)
    events, _ = extract_pickup_events_batch(cleaned.to_batch())
    lonlat = pickup_centroids(events)
    projection = city.projection

    zone_points = {}
    zone_of = city.zones.classify_or_nearest_array(lonlat[:, 0], lonlat[:, 1])
    for k, zone in enumerate(city.zones):
        pts = lonlat[zone_of == k]
        if len(pts):
            zone_points[zone.name] = projection.to_xy_array(
                pts[:, 0], pts[:, 1]
            )

    def run():
        orderings = {
            zone: optics(points, max_eps=25.0, min_pts=MIN_PTS)
            for zone, points in zone_points.items()
        }
        sweep = {
            eps: sum(o.n_clusters_at(eps) for o in orderings.values())
            for eps in EPS_SWEEP
        }
        return sweep

    sweep = benchmark.pedantic(run, rounds=1, iterations=1)

    dbscan_counts = {
        eps: sum(
            dbscan(points, eps=eps, min_pts=MIN_PTS).n_clusters
            for points in zone_points.values()
        )
        for eps in EPS_SWEEP
    }

    lines = [
        "== Ablation: OPTICS vs DBSCAN (section 4.3 alternative) ==",
        f"(minPts={MIN_PTS}; OPTICS ordering computed once per zone,",
        " then extracted at each eps)",
        "",
        f"{'eps (m)':<10}{'DBSCAN spots':>14}{'OPTICS spots':>14}",
    ]
    for eps in EPS_SWEEP:
        lines.append(
            f"{eps:<10.0f}{dbscan_counts[eps]:>14d}{sweep[eps]:>14d}"
        )
    emit("ablation_optics", lines)

    # At the operating point the two methods agree (border-point
    # differences can shift a count by one).
    assert abs(sweep[15.0] - dbscan_counts[15.0]) <= 1
    # And across the sweep they track each other.
    for eps in EPS_SWEEP:
        assert abs(sweep[eps] - dbscan_counts[eps]) <= 3
