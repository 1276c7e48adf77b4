"""Ablation — PEA's three state-transition constraints (section 4.2).

Section 4 argues naive clustering of stop events fails because alight
events, leave-for-booking events and traffic jams pollute the location
set.  This ablation runs spot detection with the constraints disabled and
measures the pollution: extra pickup events, extra detected spots, and
degraded precision against ground truth.
"""

from conftest import emit

from repro.analysis.accuracy import spot_detection_accuracy
from repro.core.pea import (
    extract_pickup_events_batch,
    extract_pickup_events_from_columns,
)
from repro.core.spots import (
    SpotDetectionParams,
    detect_from_centroids,
    pickup_centroids,
)
from repro.trace.partition import partition_batch_by_taxi


def test_ablation_pea_state_filters(benchmark, bench_day, bench_engine):
    city = bench_day.city
    cleaned = bench_engine.preprocess(bench_day.store).to_batch()

    def run(apply_filters):
        params = SpotDetectionParams(apply_state_filters=apply_filters)
        events = extract_pickup_events_batch(
            cleaned, apply_state_filters=apply_filters
        )
        return detect_from_centroids(
            pickup_centroids(events),
            city.zones,
            city.projection,
            params,
            events=events,
        )

    with_filters = benchmark.pedantic(
        lambda: run(True), rounds=1, iterations=1
    )
    without_filters = run(False)

    stats_sum = {"alight": 0, "oncall": 0, "jam": 0}
    for taxi_id, taxi_rows in partition_batch_by_taxi(cleaned):
        _, stats = extract_pickup_events_from_columns(taxi_id, taxi_rows)
        stats_sum["alight"] += stats.rejected_alight
        stats_sum["oncall"] += stats.rejected_oncall_leave
        stats_sum["jam"] += stats.rejected_no_transition

    acc_with = spot_detection_accuracy(
        with_filters.spots, bench_day.ground_truth, min_pickups=80
    )
    acc_without = spot_detection_accuracy(
        without_filters.spots, bench_day.ground_truth, min_pickups=80
    )
    lines = [
        "== Ablation: PEA state-transition constraints ==",
        f"{'metric':<30}{'with filters':>14}{'without':>14}",
        f"{'pickup events':<30}{len(with_filters.pickup_events):>14,}"
        f"{len(without_filters.pickup_events):>14,}",
        f"{'detected spots':<30}{len(with_filters.spots):>14d}"
        f"{len(without_filters.spots):>14d}",
        f"{'precision':<30}{acc_with.precision:>14.2f}"
        f"{acc_without.precision:>14.2f}",
        f"{'recall':<30}{acc_with.recall:>14.2f}{acc_without.recall:>14.2f}",
        "",
        "events the constraints reject daily:",
        f"  alight (occupied -> unoccupied): {stats_sum['alight']:>7,}",
        f"  leave for booking (FREE -> ONCALL): {stats_sum['oncall']:>4,}",
        f"  jams / red lights (no transition): {stats_sum['jam']:>5,}",
    ]
    emit("ablation_state_filters", lines)

    # The constraints reject a lot of non-pickup stop events ...
    rejected = sum(stats_sum.values())
    assert rejected > 0.2 * len(with_filters.pickup_events)
    # ... and without them the location set is visibly polluted.
    assert len(without_filters.pickup_events) > 1.2 * len(
        with_filters.pickup_events
    )
    assert acc_with.precision >= acc_without.precision
