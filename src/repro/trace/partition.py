"""Calendar and per-taxi partitioning of logs.

The deployed system (section 7.1) works in daily units: detection pools
"the most recent 5 week days' dataset and 2 weekend days' dataset", and
context runs on single days.  :func:`split_by_day` splits a multi-day
store along midnight boundaries and tags each day with its day of week;
each :class:`DayPartition` becomes one
:class:`repro.core.deployment.DailyLog` for
:class:`repro.core.deployment.DeploymentScheduler` to ingest.

The canonical row order — taxis by sorted id, stable by timestamp
within each taxi — has its one implementation here:
:func:`canonical_order` sorts a :class:`~repro.columnar.RecordBatch`
into it, and :func:`grouped_runs` recognises a batch already in it
with one linear pass.  :class:`~repro.trace.log_store.MdtLogStore`
keeps its batch in this order, and :func:`partition_batch_by_taxi`
splits a batch into per-taxi sub-batches with the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Tuple

if TYPE_CHECKING:  # cycle-free: log_store imports this module
    from repro.columnar import RecordBatch
    from repro.trace.log_store import MdtLogStore


@dataclass(frozen=True)
class DayPartition:
    """One calendar day's slice of a store."""

    day_start_ts: float
    day_of_week: int
    store: MdtLogStore

    @property
    def day_end_ts(self) -> float:
        return self.day_start_ts + 86400.0


def day_of_week_of(ts: float) -> int:
    """Day of week (Monday=0) of a POSIX timestamp, in UTC.

    The POSIX epoch (1970-01-01) was a Thursday (=3).
    """
    days_since_epoch = int(ts // 86400.0)
    return (days_since_epoch + 3) % 7


def split_by_day(store: MdtLogStore) -> List[DayPartition]:
    """Split a store along UTC midnight boundaries.

    Returns:
        One partition per calendar day that contains records, in
        chronological order.  An empty store yields an empty list.
    """
    if len(store) == 0:
        return []
    lo, hi = store.time_span
    first_day = lo - (lo % 86400.0)
    partitions: List[DayPartition] = []
    day_start = first_day
    while day_start <= hi:
        day_store = store.filter_time(day_start, day_start + 86400.0)
        if len(day_store) > 0:
            partitions.append(
                DayPartition(
                    day_start_ts=day_start,
                    day_of_week=day_of_week_of(day_start),
                    store=day_store,
                )
            )
        day_start += 86400.0
    return partitions


# -- per-taxi partitioning of columnar batches ------------------------------


def grouped_runs(batch: RecordBatch) -> List[Tuple[int, int, int]] | None:
    """``(taxi_code, start, stop)`` runs when the batch is already in
    canonical grouped order (each taxi contiguous, sorted ids,
    nondecreasing ts within each run), else None.

    One linear pass; this is the fast path that lets cleaning output
    and a store's own batch skip the argsort entirely.
    """
    taxi, ts = batch.taxi, batch.ts
    if not taxi:
        return []
    table = batch.taxi_table
    runs: List[Tuple[int, int, int]] = []
    start = 0
    prev_code = taxi[0]
    seen = {prev_code}
    for i in range(1, len(taxi)):
        code = taxi[i]
        if code == prev_code:
            if ts[i] < ts[i - 1]:
                return None
            continue
        if code in seen:
            return None  # taxi split across runs
        runs.append((prev_code, start, i))
        if table[code] < table[prev_code]:
            return None  # runs not in sorted-id order
        seen.add(code)
        start = i
        prev_code = code
    runs.append((prev_code, start, len(taxi)))
    return runs


def canonical_order(batch: RecordBatch) -> List[int]:
    """Row indices of ``batch`` in canonical order: taxis by sorted id,
    stable by timestamp within each taxi (ts ties keep input order).

    One stable argsort over ``(taxi-id rank, ts)``.
    """
    ts, taxi = batch.ts, batch.taxi
    # Rank taxi codes by id so the tuple key sorts taxis lexically.
    by_id = sorted(range(len(batch.taxi_table)), key=batch.taxi_table.__getitem__)
    rank = [0] * len(by_id)
    for r, code in enumerate(by_id):
        rank[code] = r
    return sorted(range(len(ts)), key=lambda i: (rank[taxi[i]], ts[i]))


def partition_batch_by_taxi(
    batch: RecordBatch,
) -> Iterator[Tuple[str, RecordBatch]]:
    """Yield a batch's per-taxi sub-batches, one at a time, sorted by
    taxi id.

    Rows within each taxi come out in stable timestamp order — the
    canonical order, so the columnar pipeline and the row view of
    :meth:`MdtLogStore.records_of` scan identical per-taxi sequences.
    Only the sub-batch in hand is alive, so a caller that keeps less
    than the whole input holds less than a second copy of it.

    Already-grouped batches (cleaning output, a store's own batch)
    split in one linear pass; arbitrary row orders (a raw CSV day
    interleaves taxis) fall back to :func:`canonical_order`.
    """
    runs = grouped_runs(batch)
    if runs is not None:
        for code, start, stop in runs:
            yield batch.taxi_table[code], batch.slice(start, stop)
        return
    taxi = batch.taxi
    order = canonical_order(batch)
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or taxi[order[i]] != taxi[order[start]]:
            taxi_id = batch.taxi_table[taxi[order[start]]]
            yield taxi_id, batch.take(order[start:i])
            start = i
