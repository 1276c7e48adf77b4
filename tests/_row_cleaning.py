"""Row reference of the section-6.1.1 cleaner.

The production cleaner is :func:`repro.trace.cleaning.clean_batch`
(per taxi, :func:`~repro.trace.cleaning.clean_taxi_batch`), a cursor
over :class:`~repro.columnar.RecordBatch` columns.  This module keeps
the historical row-at-a-time implementation over ``MdtRecord`` objects
as an independent reference: the row/column parity tests compare the
two, and ``benchmarks/bench_columnar.py`` times the columnar ingest and
clean against it.  No production path calls it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.geo.bbox import BBox
from repro.states.machine import is_valid_transition
from repro.trace.cleaning import CleaningReport
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord


def _is_duplicate(a: MdtRecord, b: MdtRecord) -> bool:
    """True when ``b`` is a GPRS re-transmission of ``a``.

    Re-transmissions repeat the full payload: same timestamp, state,
    coordinates and speed.
    """
    return (
        a.ts == b.ts
        and a.state is b.state
        and a.lon == b.lon
        and a.lat == b.lat
        and a.speed == b.speed
    )


def clean_records(
    records: Sequence[MdtRecord],
    city_bbox: Optional[BBox] = None,
    inaccessible: Iterable[BBox] = (),
    report: Optional[CleaningReport] = None,
) -> List[MdtRecord]:
    """Clean one taxi's time-ordered records.

    The filters run in the order duplicates -> state validity -> GPS,
    and state validity is checked against the *state chain*, exactly as
    in :func:`~repro.trace.cleaning.clean_taxi_batch`.

    Args:
        records: one taxi's records, time-ordered.
        city_bbox: if given, records outside it are GPS errors.
        inaccessible: bboxes (e.g. water bodies) whose interior points are
            GPS errors.
        report: optional report to accumulate counts into.

    Returns:
        The surviving records, still time-ordered.
    """
    if report is None:
        report = CleaningReport()
    report.total_in += len(records)
    inaccessible = list(inaccessible)

    kept: List[MdtRecord] = []
    prev_raw: Optional[MdtRecord] = None
    chain_state = None  # last state not removed as improper
    for record in records:
        if prev_raw is not None and _is_duplicate(prev_raw, record):
            report.duplicate += 1
            continue
        prev_raw = record

        if chain_state is not None and not is_valid_transition(
            chain_state, record.state
        ):
            report.improper_state += 1
            continue
        chain_state = record.state

        if city_bbox is not None and not city_bbox.contains(
            record.lon, record.lat
        ):
            report.gps_error += 1
            continue
        if any(zone.contains(record.lon, record.lat) for zone in inaccessible):
            report.gps_error += 1
            continue
        kept.append(record)
    return kept


def clean_store(
    store: MdtLogStore,
    city_bbox: Optional[BBox] = None,
    inaccessible: Iterable[BBox] = (),
) -> Tuple[MdtLogStore, CleaningReport]:
    """Clean every taxi's records in a store.

    Returns:
        ``(cleaned_store, report)`` where the report aggregates counts over
        all taxis.
    """
    report = CleaningReport()
    survivors: List[MdtRecord] = []
    inaccessible = list(inaccessible)
    for taxi_id in store.taxi_ids:
        survivors.extend(
            clean_records(
                store.records_of(taxi_id),
                city_bbox=city_bbox,
                inaccessible=inaccessible,
                report=report,
            )
        )
    return MdtLogStore(survivors), report
