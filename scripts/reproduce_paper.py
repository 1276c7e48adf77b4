#!/usr/bin/env python
"""Full reproduction driver: regenerate the paper's section 6 in one run.

Runs a complete simulated week (default scale: 1,500 taxis, 60 spots —
10x smaller than the paper's Singapore, per-spot volumes preserved),
executes every experiment of DESIGN.md's index, and writes a consolidated
report.  Expect ~10-15 minutes at full scale; ``--scale bench`` matches
the pytest benchmarks (~2 minutes).

Usage:
    python scripts/reproduce_paper.py [--scale full|bench] [--seed N]
                                      [--out report.txt]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.accuracy import label_accuracy, spot_detection_accuracy
from repro.analysis.insights import cherry_pick_report, find_busy_cherry_picks
from repro.analysis.landmark_match import (
    landmark_category_table,
    match_spots_to_landmarks,
)
from repro.analysis.stability import (
    hausdorff_matrix,
    pickup_counts_table,
    run_week,
    weekly_type_proportions,
    zone_counts_by_day,
)
from repro.analysis.validation import validate_against_monitor_and_bookings
from repro.core.qcd import label_proportions
from repro.core.types import QueueType
from repro.sim.config import DAY_NAMES, SimulationConfig
from repro.trace.cleaning import clean_batch

SCALES = {
    "full": dict(fleet_size=1500, n_queue_spots=60, n_decoy_landmarks=40),
    "bench": dict(fleet_size=500, n_queue_spots=30, n_decoy_landmarks=15),
    "quick": dict(fleet_size=200, n_queue_spots=12, n_decoy_landmarks=6),
}


class Report:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, *lines: str) -> None:
        for line in lines:
            self.lines.append(line)
            print(line)

    def section(self, title: str) -> None:
        self.add("", "=" * 70, title, "=" * 70)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="reproduction_report.txt")
    args = parser.parse_args()

    base = SimulationConfig(seed=args.seed, **SCALES[args.scale])
    report = Report()
    report.add(
        f"Reproduction run — scale={args.scale} "
        f"({base.fleet_size} taxis, {base.n_queue_spots} spots), "
        f"seed={args.seed}"
    )

    t0 = time.time()
    report.add("simulating + analysing 7 days ...")
    week = run_week(base, disambiguate=True)
    report.add(f"  done in {time.time() - t0:.0f}s")
    monday = week[0]
    sunday = week[6]

    # -- section 6.1.1 ------------------------------------------------------
    report.section("Section 6.1.1 — dataset and preprocessing")
    stats = monday.output.store.stats()
    _, cleaning = clean_batch(
        monday.output.store.to_batch(),
        city_bbox=monday.output.city.bbox,
        inaccessible=monday.output.city.water,
    )
    report.add(
        f"records/day: {int(stats['records']):,} (paper 12.38M at 10x scale)",
        f"records/taxi/day: {stats['records_per_taxi']:.0f} (paper 848)",
        f"error fraction: {cleaning.removed_fraction * 100:.2f}% (paper 2.8%)",
    )

    # -- Fig 7 / headline ---------------------------------------------------
    report.section("Fig. 7 — queue spot detection")
    accuracy = spot_detection_accuracy(
        monday.detection.spots, monday.output.ground_truth, min_pickups=80
    )
    report.add(
        f"spots detected: {len(monday.detection.spots)}",
        f"recall vs ground truth: {accuracy.recall:.2f} (paper 30/31 = 0.97)",
        f"mean location error: {accuracy.mean_error_m:.1f} m (paper 7.6 m)",
        f"false positives: {accuracy.false_positives}",
    )

    # -- Table 4 -------------------------------------------------------------
    report.section("Table 4 — landmarks near spots")
    matches = match_spots_to_landmarks(
        monday.detection.spots, monday.output.city.landmarks
    )
    for category, share in sorted(
        landmark_category_table(matches).items(), key=lambda kv: -kv[1]
    ):
        report.add(f"  {category.value:<36} {share * 100:5.1f}%")

    # -- Fig 8 ----------------------------------------------------------------
    report.section("Fig. 8 — spots per zone per day")
    table = zone_counts_by_day(week)
    report.add("  zone      " + "".join(f"{d:>6}" for d in DAY_NAMES))
    for zone, counts in table.items():
        report.add(f"  {zone:<10}" + "".join(f"{c:>6d}" for c in counts))

    # -- Table 5 ----------------------------------------------------------------
    report.section("Table 5 — modified Hausdorff distances (m)")
    matrix = hausdorff_matrix(week)
    report.add("        " + "".join(f"{d:>8}" for d in DAY_NAMES))
    for i, day in enumerate(DAY_NAMES):
        report.add(
            f"  {day:>4}  "
            + "".join(f"{matrix[i, j]:>8.1f}" for j in range(7))
        )

    # -- Table 6 -----------------------------------------------------------------
    report.section("Table 6 — pickup events per spot per zone")
    for kind, zones in pickup_counts_table(week).items():
        row = ", ".join(f"{z}={v:.0f}" for z, v in zones.items())
        report.add(f"  {kind}: {row}")

    # -- Table 7 + accuracy ---------------------------------------------------------
    report.section("Table 7 — queue type proportions (Monday)")
    labels = [
        label
        for analysis in monday.analyses.values()
        for label in analysis.labels
    ]
    paper7 = {"C1": 30.1, "C2": 11.7, "C3": 8.6, "C4": 33.1,
              "Unidentified": 16.5}
    for qt, share in label_proportions(labels).items():
        report.add(
            f"  {qt.value:<14} measured {share * 100:5.1f}%   "
            f"paper {paper7[qt.value]:5.1f}%"
        )
    score = label_accuracy(
        monday.analyses.values(), monday.output.ground_truth
    )
    report.add(
        f"  label accuracy vs ground truth: {score.accuracy:.2f} "
        f"(taxi-queue agreement {score.taxi_queue_agreement:.2f})"
    )

    # -- Fig 9 -------------------------------------------------------------------------
    report.section("Fig. 9 — proportions per day of week")
    series = weekly_type_proportions(week)
    report.add("  day   " + "".join(f"{qt.value:>14}" for qt in QueueType))
    for day in DAY_NAMES:
        report.add(
            f"  {day:<5}"
            + "".join(f"{series[day][qt] * 100:>13.1f}%" for qt in QueueType)
        )

    # -- Table 8 --------------------------------------------------------------------------
    report.section("Table 8 — external validation (Monday)")
    locations = {
        sid: (t.lon, t.lat)
        for sid, t in monday.output.ground_truth.spots.items()
    }
    validation = validate_against_monitor_and_bookings(
        monday.analyses.values(),
        monday.output.monitor_readings,
        monday.output.failed_bookings,
        monday.output.ground_truth.grid,
        locations,
    )
    for qt in QueueType:
        report.add(
            f"  {qt.value:<14} monitored taxis "
            f"{validation.avg_taxi_count[qt]:5.2f}   failed bookings "
            f"{validation.avg_failed_bookings[qt]:5.2f}"
        )

    # -- section 7.2 -----------------------------------------------------------------------
    report.section("Section 7.2 — findings")
    events = find_busy_cherry_picks(monday.output.store)
    cherry = cherry_pick_report(
        events, monday.analyses.values(), monday.output.ground_truth.grid
    )
    report.add(
        f"  BUSY cherry-picks: {cherry.events_total} "
        f"({cherry.events_at_spots} at spots); per-slot rate "
        f"C1={cherry.per_label_rate[QueueType.C1]:.3f} "
        f"C2={cherry.per_label_rate[QueueType.C2]:.3f} "
        f"C4={cherry.per_label_rate[QueueType.C4]:.3f}"
    )
    sunday_spots = len(sunday.detection.spots)
    report.add(
        f"  Sunday spot count {sunday_spots} vs Monday "
        f"{len(monday.detection.spots)} (weekend-only leisure park in play)"
    )

    report.add("", f"total wall time: {time.time() - t0:.0f}s")
    Path(args.out).write_text("\n".join(report.lines) + "\n")
    print(f"\nreport written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
