"""Row vs columnar ingest+clean: throughput and peak RSS (not in the
paper).

The columnar data plane's acceptance gate: parsing a day's CSV into a
:class:`~repro.columnar.RecordBatch` and cleaning it as column masks
must beat the historical row path (one ``MdtRecord.from_csv_row`` per
line into per-taxi lists, each cleaned by ``clean_records``) by at
least :data:`MIN_SPEEDUP` while holding a lower peak RSS — and produce
byte-identical records and accounting while doing so.  The row side
stays in rows end to end: it builds no ``RecordBatch`` and no
``MdtLogStore`` (the store is a view over a batch).  The row parser is
pinned here as :func:`row_store_from_csv`; the row cleaner is the
reference in ``tests/_row_cleaning.py``.

Throughput is measured in-process (best of :data:`TIMING_RUNS` runs per
path, interleaved).  Peak RSS is measured in fresh subprocesses via
``VmHWM`` from ``/proc/self/status`` — unlike ``ru_maxrss``, which
survives ``exec`` and would report the pytest parent's high-water mark,
``VmHWM`` resets with the new address space, so each path's peak covers
only its own allocations on top of the same interpreter baseline.
"""

import inspect
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import emit

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from repro.columnar import RecordBatch  # noqa: E402
from repro.trace.cleaning import clean_batch  # noqa: E402

#: The tentpole acceptance floor for ingest+clean throughput.
MIN_SPEEDUP = 1.5

TIMING_RUNS = 3


def row_store_from_csv(path):
    """The historical row ingest: one record object per CSV line,
    grouped into per-taxi lists in sorted-id order, each stably sorted
    by timestamp (the store's canonical order)."""
    from repro.trace.record import MdtRecord

    by_taxi = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != MdtRecord.CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            try:
                record = MdtRecord.from_csv_row(line)
            except ValueError:
                continue
            by_taxi.setdefault(record.taxi_id, []).append(record)
    return {
        taxi_id: sorted(by_taxi[taxi_id], key=lambda r: r.ts)
        for taxi_id in sorted(by_taxi)
    }


def clean_row_store(by_taxi):
    """``(cleaned records, report)``: the row cleaner over each taxi."""
    from repro.trace.cleaning import CleaningReport
    from tests._row_cleaning import clean_records

    report = CleaningReport()
    cleaned = []
    for records in by_taxi.values():
        cleaned.extend(clean_records(records, report=report))
    return cleaned, report


_RSS_SCRIPT = """
import sys
""" + inspect.getsource(row_store_from_csv) + inspect.getsource(
    clean_row_store
) + """
path = sys.argv[2]
if sys.argv[1] == "row":
    store = row_store_from_csv(path)
    cleaned, _ = clean_row_store(store)
else:
    from repro.columnar import RecordBatch
    from repro.trace.cleaning import clean_batch
    batch = RecordBatch.from_csv(path, on_error="skip")
    cleaned, _ = clean_batch(batch)
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
print(len(cleaned), hwm.split()[1])
"""


def _peak_rss_kib(mode: str, csv_path: Path) -> tuple:
    """``(cleaned_records, ru_maxrss_kib)`` of one path, run standalone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, mode, str(csv_path)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    records, rss = out.stdout.split()
    return int(records), int(rss)


@pytest.fixture(scope="module")
def bench_csv(bench_day, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("columnar") / "bench_day.csv"
    bench_day.store.to_csv(path)
    return path


def test_ingest_clean_throughput_and_rss(bench_day, bench_csv):
    row_s = col_s = float("inf")
    for _ in range(TIMING_RUNS):
        start = time.perf_counter()
        store = row_store_from_csv(bench_csv)
        row_cleaned, row_report = clean_row_store(store)
        row_s = min(row_s, time.perf_counter() - start)

        start = time.perf_counter()
        batch = RecordBatch.from_csv(bench_csv, on_error="skip")
        col_cleaned, col_report = clean_batch(batch)
        col_s = min(col_s, time.perf_counter() - start)

    # Identical outputs first — a fast wrong answer is no answer.
    assert col_cleaned.to_rows() == row_cleaned
    assert col_report == row_report

    n = sum(len(records) for records in store.values())
    speedup = row_s / col_s
    row_records, row_rss = _peak_rss_kib("row", bench_csv)
    col_records, col_rss = _peak_rss_kib("columnar", bench_csv)
    assert row_records == col_records == len(row_cleaned)

    rows = [
        f"CSV ingest + clean, row vs columnar ({n:,} records)",
        "",
        f"{'path':>10}  {'seconds':>8}  {'records/s':>10}  "
        f"{'peak RSS KiB':>12}",
        f"{'rows':>10}  {row_s:>8.2f}  {n / row_s:>10,.0f}  "
        f"{row_rss:>12,}",
        f"{'columns':>10}  {col_s:>8.2f}  {n / col_s:>10,.0f}  "
        f"{col_rss:>12,}",
        "",
        f"throughput speedup: {speedup:.2f}x (floor {MIN_SPEEDUP:.1f}x)",
        f"peak RSS ratio: {col_rss / row_rss:.2f}x",
    ]
    emit("columnar", rows)

    assert speedup >= MIN_SPEEDUP, (
        f"columnar ingest+clean speedup {speedup:.2f}x "
        f"below the {MIN_SPEEDUP:.1f}x floor"
    )
    assert col_rss < row_rss, (
        f"columnar peak RSS {col_rss} KiB not below row {row_rss} KiB"
    )
