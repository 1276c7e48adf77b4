"""Section 6.1.1 — dataset statistics and preprocessing.

Paper reference values (15,000 taxis, full-size Singapore):
    * ~12.38 M records per day, ~848 records per taxi per day;
    * erroneous records removed: ~2.8% (improper states, duplicates,
      GPS errors).

The bench-scale fleet is 30x smaller, so the absolute record count scales
down while records-per-taxi and the error fraction must hold.
"""

from conftest import emit

from repro.trace.cleaning import clean_batch


def test_preprocessing_stats(benchmark, bench_day):
    city = bench_day.city
    batch = bench_day.store.to_batch()

    def run():
        return clean_batch(batch, city_bbox=city.bbox, inaccessible=city.water)

    cleaned, report = benchmark.pedantic(run, rounds=1, iterations=1)

    stats = bench_day.store.stats()
    lines = [
        "== Section 6.1.1: dataset and preprocessing ==",
        f"{'metric':<28}{'paper':>14}{'measured':>14}",
        f"{'records/day':<28}{'12,380,000':>14}{int(stats['records']):>14,}",
        f"{'records/taxi/day':<28}{'848':>14}"
        f"{stats['records_per_taxi']:>14.0f}",
        f"{'taxis observed':<28}{'~15,000':>14}{int(stats['taxis']):>14,}",
        f"{'error fraction':<28}{'2.8%':>14}"
        f"{report.removed_fraction * 100:>13.2f}%",
        "",
        "error breakdown (measured):",
        f"  improper states: {report.improper_state:>7,}",
        f"  duplicates:      {report.duplicate:>7,}",
        f"  GPS errors:      {report.gps_error:>7,}",
        f"  survivors:       {len(cleaned):>7,}",
    ]
    emit("preprocessing", lines)

    assert 0.015 < report.removed_fraction < 0.05
    assert 300 < stats["records_per_taxi"] < 1500
