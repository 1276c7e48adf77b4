"""Process-side execution of shard tasks.

Every function here is module-level (picklable by reference) and maps
one task dataclass to one result dataclass:

* :func:`run_tier1_shard` — cleaning + PEA over a shard's taxis, from
  inline records or a shard CSV file;
* :func:`run_zone_cluster` — per-zone DBSCAN via
  :func:`repro.core.spots.cluster_zone`;
* :func:`run_spot_task` — tier-2 per-spot analysis via
  :func:`repro.core.engine.analyze_spot`.

Each worker delegates to the same functions the serial engine runs, so
equal inputs give bit-identical outputs — the parallel layer only
decides *where* the code runs.

Fault injection: the ``REPRO_PARALLEL_INJECT_FAULT`` environment
variable (``crash:<stage>`` or ``sleep:<stage>:<seconds>``) makes a
worker raise or stall, letting tests exercise the runner's degrade-to-
serial path without real crashes.  The runner's in-parent fallback
bypasses the hook via the ``allow_fault`` flag.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Tuple, Union

from repro.columnar import RecordBatch
from repro.core.engine import analyze_spot
from repro.core.pea import (
    extract_pickup_events,
    extract_pickup_events_from_columns,
)
from repro.core.spots import cluster_zone
from repro.obs.tracer import worker_span
from repro.parallel.shards import (
    SpotResult,
    SpotTask,
    Tier1BatchShardTask,
    Tier1FileShardTask,
    Tier1ShardResult,
    Tier1ShardTask,
    ZoneClusterResult,
    ZoneClusterTask,
    detach_event,
)
from repro.trace.cleaning import CleaningReport, clean_records, clean_taxi_batch
from repro.trace.partition import partition_batch_by_taxi
from repro.trace.record import MdtRecord
from repro.trace.trajectory import SubTrajectory, Trajectory

#: Environment variable consumed by :func:`_maybe_inject_fault`.
FAULT_ENV = "REPRO_PARALLEL_INJECT_FAULT"


def _maybe_inject_fault(stage: str) -> None:
    """Honour a ``crash:<stage>`` / ``sleep:<stage>:<s>`` test directive."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    parts = spec.split(":")
    if len(parts) >= 2 and parts[0] == "crash" and parts[1] == stage:
        raise RuntimeError(f"injected fault in stage {stage!r}")
    if len(parts) == 3 and parts[0] == "sleep" and parts[1] == stage:
        time.sleep(float(parts[2]))


def _clean_pea_taxis(
    taxis: List[Tuple[str, List[MdtRecord]]],
    task: Union[Tier1ShardTask, Tier1FileShardTask],
    report: CleaningReport,
) -> Tuple[List[Tuple[str, List[SubTrajectory]]], float, float]:
    """Cleaning + PEA for each taxi; events are detached for pickling.

    Returns ``(events_by_taxi, clean_s, pea_s)``; the per-stage seconds
    are only measured when ``task.trace`` asks for worker spans (zeros
    otherwise, so the untraced hot path pays nothing).
    """
    out: List[Tuple[str, List[SubTrajectory]]] = []
    clean_s = 0.0
    pea_s = 0.0
    trace = task.trace
    for taxi_id, records in taxis:
        if task.clean:
            t0 = time.perf_counter() if trace else 0.0
            records = clean_records(
                records,
                city_bbox=task.city_bbox,
                inaccessible=task.inaccessible,
                report=report,
            )
            if trace:
                clean_s += time.perf_counter() - t0
        trajectory = Trajectory(taxi_id, records)
        t0 = time.perf_counter() if trace else 0.0
        events = extract_pickup_events(
            trajectory,
            speed_threshold_kmh=task.params.speed_threshold_kmh,
            apply_state_filters=task.params.apply_state_filters,
        )
        if trace:
            pea_s += time.perf_counter() - t0
        out.append((taxi_id, [detach_event(event) for event in events]))
    return out, clean_s, pea_s


def _clean_pea_taxi_batches(
    groups: List[Tuple[str, RecordBatch]],
    task: Union[Tier1BatchShardTask, Tier1FileShardTask],
    report: CleaningReport,
) -> Tuple[
    List[Tuple[str, List[SubTrajectory]]], List[RecordBatch], float, float
]:
    """Columnar :func:`_clean_pea_taxis`: mask cleaning + cursor PEA.

    Identical events and accounting for identical rows; record objects
    exist only inside the events, which PEA already builds detached.
    Returns ``(events_by_taxi, cleaned, clean_s, pea_s)``, ``cleaned``
    holding each taxi's cleaned rows in ``groups`` order.
    """
    out: List[Tuple[str, List[SubTrajectory]]] = []
    cleaned: List[RecordBatch] = []
    clean_s = 0.0
    pea_s = 0.0
    trace = task.trace
    for taxi_id, sub in groups:
        if task.clean:
            t0 = time.perf_counter() if trace else 0.0
            sub = clean_taxi_batch(
                sub,
                city_bbox=task.city_bbox,
                inaccessible=task.inaccessible,
                report=report,
            )
            if trace:
                clean_s += time.perf_counter() - t0
        cleaned.append(sub)
        t0 = time.perf_counter() if trace else 0.0
        events, _ = extract_pickup_events_from_columns(
            taxi_id,
            sub,
            speed_threshold_kmh=task.params.speed_threshold_kmh,
            apply_state_filters=task.params.apply_state_filters,
        )
        if trace:
            pea_s += time.perf_counter() - t0
        out.append((taxi_id, events))
    return out, cleaned, clean_s, pea_s


def run_tier1_shard(
    task: Union[Tier1ShardTask, Tier1BatchShardTask, Tier1FileShardTask],
    allow_fault: bool = True,
) -> Tier1ShardResult:
    """Cleaning + PEA over one shard (columns, inline records or a CSV).

    :class:`Tier1BatchShardTask` and :class:`Tier1FileShardTask` run the
    columnar plane (a file shard is parsed straight into columns);
    :class:`Tier1ShardTask` keeps the historical row path for callers
    that still plan record-list shards.
    """
    start = time.perf_counter()
    start_wall = time.time()
    if allow_fault:
        _maybe_inject_fault("tier1")
    report = CleaningReport()
    groups: Optional[List[Tuple[str, RecordBatch]]] = None
    cleaned: Optional[RecordBatch] = None
    if isinstance(task, Tier1FileShardTask):
        batch = RecordBatch.from_csv(task.path, on_error="skip")
        report.malformed_line += batch.skipped_lines
        groups = partition_batch_by_taxi(batch)
        records_in = len(batch)
    elif isinstance(task, Tier1BatchShardTask):
        groups = partition_batch_by_taxi(task.batch)
        records_in = len(task.batch)
    else:
        taxis = task.taxis
        records_in = sum(len(records) for _, records in taxis)
    if groups is not None:
        events_by_taxi, shard_rows, clean_s, pea_s = _clean_pea_taxi_batches(
            groups, task, report
        )
        if isinstance(task, Tier1BatchShardTask):
            # An in-memory tier 1 precedes a tier 2 over the same rows;
            # shipping them back saves the parent a second cleaning.
            cleaned = RecordBatch.concat(shard_rows)
    else:
        events_by_taxi, clean_s, pea_s = _clean_pea_taxis(taxis, task, report)
    spans: List[dict] = []
    if task.trace:
        attrs = {
            "shard": task.shard_id,
            "zone": task.zone,
            "records": records_in,
        }
        spans = [
            worker_span(
                f"clean.shard:{task.shard_id}", start_wall, clean_s, attrs
            ),
            worker_span(
                f"pea.shard:{task.shard_id}",
                start_wall + clean_s,
                pea_s,
                attrs,
            ),
        ]
    return Tier1ShardResult(
        shard_id=task.shard_id,
        events_by_taxi=events_by_taxi,
        report=report if task.clean else None,
        records_in=records_in,
        elapsed_s=time.perf_counter() - start,
        spans=spans,
        cleaned=cleaned,
    )


def run_zone_cluster(
    task: ZoneClusterTask, allow_fault: bool = True
) -> ZoneClusterResult:
    """Per-zone DBSCAN over one zone's pickup centroids."""
    start = time.perf_counter()
    start_wall = time.time()
    if allow_fault:
        _maybe_inject_fault("zones")
    clusters, noise = cluster_zone(task.lonlat, task.projection, task.params)
    elapsed = time.perf_counter() - start
    spans: List[dict] = []
    if task.trace:
        spans = [
            worker_span(
                f"cluster.zone:{task.zone}",
                start_wall,
                elapsed,
                {
                    "zone": task.zone,
                    "points": int(len(task.lonlat)),
                    "clusters": len(clusters),
                    "noise": noise,
                },
            )
        ]
    return ZoneClusterResult(
        zone=task.zone,
        clusters=clusters,
        noise=noise,
        points=int(len(task.lonlat)),
        elapsed_s=elapsed,
        spans=spans,
    )


def run_spot_task(task: SpotTask, allow_fault: bool = True) -> SpotResult:
    """Tier-2 analysis of one spot."""
    start = time.perf_counter()
    start_wall = time.time()
    if allow_fault:
        _maybe_inject_fault("tier2")
    analysis = analyze_spot(
        task.spot,
        task.events,
        task.grid,
        task.amplification,
        task.policy,
        task.slot_seconds,
        task.street_job_ratio,
    )
    elapsed = time.perf_counter() - start
    spans: List[dict] = []
    if task.trace:
        spans = [
            worker_span(
                f"tier2.spot:{task.spot.spot_id}",
                start_wall,
                elapsed,
                {
                    "spot": task.spot.spot_id,
                    "events": len(task.events),
                },
            )
        ]
    return SpotResult(
        spot_id=task.spot.spot_id,
        analysis=analysis,
        elapsed_s=elapsed,
        spans=spans,
    )
