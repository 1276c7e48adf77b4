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
:func:`canonical_order` returns the permutation that sorts a
:class:`~repro.columnar.RecordBatch` into it, or None when the batch is
already in it.  :class:`~repro.trace.log_store.MdtLogStore` keeps its
batch in this order, and the whole-day kernels (cleaning, PEA, the job
counts) read their columns through it.  :func:`grouped_order` groups
the taxis the same way but keeps each taxi's rows in arrival order: the
live monitor scans its buffered rows in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

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


# -- the canonical order of columnar batches --------------------------------


def _taxi_ranks(batch: RecordBatch) -> np.ndarray:
    """Each row's taxi-id rank: where its id falls in sorted order."""
    # Python ``sorted`` ranks the ids: a NumPy ``U`` array would drop
    # trailing NULs and tie ids such as "A" and "A\0".
    table = batch.taxi_table
    rank_of = np.empty(len(table), dtype=np.int32)
    rank_of[sorted(range(len(table)), key=table.__getitem__)] = np.arange(
        len(table), dtype=np.int32
    )
    return rank_of[batch.taxi]


def canonical_order(batch: RecordBatch) -> Optional[np.ndarray]:
    """The row permutation that puts ``batch`` in canonical order:
    taxis by sorted id, stable by timestamp within each taxi (ts ties
    keep input order).

    Returns None when the batch is already in that order, which one
    vectorized check of (taxi-id rank, ts) confirms; otherwise the
    stable ``np.lexsort`` over that pair.
    """
    ts = batch.ts
    rank = _taxi_ranks(batch)
    step = np.diff(rank)
    if (step >= 0).all() and ((step > 0) | (ts[1:] >= ts[:-1])).all():
        return None
    return np.lexsort((ts, rank))


def grouped_order(batch: RecordBatch) -> np.ndarray:
    """The row permutation that groups ``batch`` by taxi, taxis by
    sorted id, and keeps each taxi's rows in input order: the order a
    live feed's rows are scanned in, which need not be time order."""
    return np.argsort(_taxi_ranks(batch), kind="stable")


def ordered_column(
    column: np.ndarray, order: Optional[np.ndarray]
) -> np.ndarray:
    """A column in canonical order: the column itself when ``order``
    (from :func:`canonical_order`) is None, else a gathered copy."""
    return column if order is None else column[order]
