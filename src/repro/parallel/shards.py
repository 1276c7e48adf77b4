"""Picklable shard tasks/results and deterministic shard planning.

The parallel execution layer moves work between processes as plain
dataclasses so every task and result survives pickling under both the
``fork`` and ``spawn`` start methods:

* tier 1 is sharded **by zone**: every taxi is assigned a *home zone*
  (the zone of its first record) and each shard carries the whole
  trajectories of one zone's taxis — cleaning and PEA are per-taxi
  computations, so a shard is self-contained.  Zones with many records
  are sub-chunked for load balance; a taxi never splits across shards.
* the per-zone DBSCAN stage exchanges pickup centroids between shards:
  each :class:`ZoneClusterTask` carries exactly one zone's centroid
  array, mirroring the serial per-zone loop.
* tier 2 is sharded **by spot**: each :class:`SpotTask` carries one
  spot's W(r) bucket plus everything WTE/feature/QCD need.

Determinism: shard *assignment* never influences results — the runner
re-sorts merged pickup events by taxi id (the serial scan order) and
re-assembles zone clusters in partition order, so the merged output is
bit-for-bit the serial output regardless of how work was split.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.columnar import RecordBatch
from repro.core.engine import SpotAnalysis
from repro.core.features import AmplificationPolicy
from repro.core.spots import SpotDetectionParams
from repro.core.thresholds import ThresholdPolicy
from repro.core.types import QueueSpot, TimeSlotGrid
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import ZonePartition
from repro.trace.cleaning import CleaningReport
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord
from repro.trace.trajectory import SubTrajectory, Trajectory


def stable_shard(key: str, n_shards: int) -> int:
    """A process-stable shard index for ``key`` (crc32, not ``hash``).

    Python's built-in string hash is salted per process, so it cannot be
    used to agree on shard membership across workers.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return zlib.crc32(key.encode("utf-8")) % n_shards


def detach_event(sub: SubTrajectory) -> SubTrajectory:
    """Copy a sub-trajectory out of its parent trajectory.

    A :class:`SubTrajectory` normally references its full parent
    trajectory; pickling one would ship the taxi's entire day to the
    other process.  The detached copy owns just the segment's records;
    an event that already spans its whole trajectory (columnar PEA
    builds them so) is returned as is.
    """
    if sub.start == 0 and sub.end == len(sub.trajectory) - 1:
        return sub
    segment = Trajectory(sub.taxi_id, list(sub))
    return segment.sub(0, len(segment) - 1)


@dataclass
class Tier1ShardTask:
    """Cleaning + PEA over one zone-chunk of taxis (records inline)."""

    shard_id: int
    zone: str
    taxis: List[Tuple[str, List[MdtRecord]]]
    clean: bool
    city_bbox: Optional[BBox]
    inaccessible: List[BBox]
    params: SpotDetectionParams
    trace: bool = False
    """Measure per-stage worker spans into the result (see
    :mod:`repro.obs`); purely observational, never changes output."""


@dataclass
class Tier1BatchShardTask:
    """Cleaning + PEA over one zone-chunk of taxis (columnar records).

    The columnar sibling of :class:`Tier1ShardTask` and the default
    in-memory handoff: ``batch`` pickles as six raw column buffers plus
    the interned id table (see ``RecordBatch.__reduce__``), so shipping
    a shard to a worker costs O(columns) buffer copies instead of
    O(records) object pickling.  Rows are grouped per taxi in sorted-id
    order, time-ordered within each taxi.
    """

    shard_id: int
    zone: str
    batch: RecordBatch
    clean: bool
    city_bbox: Optional[BBox]
    inaccessible: List[BBox]
    params: SpotDetectionParams
    trace: bool = False
    """See :attr:`Tier1ShardTask.trace`."""


@dataclass
class Tier1FileShardTask:
    """Cleaning + PEA over one CSV shard file (chunked ingest).

    The worker loads its own shard from disk, so no process ever holds
    the full day in memory.
    """

    shard_id: int
    zone: str
    path: str
    clean: bool
    city_bbox: Optional[BBox]
    inaccessible: List[BBox]
    params: SpotDetectionParams
    trace: bool = False
    """See :attr:`Tier1ShardTask.trace`."""


@dataclass
class Tier1ShardResult:
    """Pickup events (detached) per taxi, plus cleaning accounting."""

    shard_id: int
    events_by_taxi: List[Tuple[str, List[SubTrajectory]]]
    report: Optional[CleaningReport]
    records_in: int
    elapsed_s: float
    spans: List[dict] = field(default_factory=list)
    """Worker-measured span dicts (only when the task asked to trace),
    re-parented into the live trace at the result-merge boundary."""

    cleaned: Optional[RecordBatch] = None
    """The shard's cleaned rows, taxis in sorted-id order (batch shards
    only), so a tier 2 over the same input can skip its cleaning."""


@dataclass
class ZoneClusterTask:
    """Per-zone DBSCAN over one zone's pickup centroids."""

    zone: str
    lonlat: np.ndarray
    projection: LocalProjection
    params: SpotDetectionParams
    trace: bool = False
    """See :attr:`Tier1ShardTask.trace`."""


@dataclass
class ZoneClusterResult:
    """One zone's clusters in DBSCAN discovery order."""

    zone: str
    clusters: List[Tuple[float, float, int, float]]
    noise: int
    points: int
    elapsed_s: float
    spans: List[dict] = field(default_factory=list)
    """See :attr:`Tier1ShardResult.spans`."""


@dataclass
class SpotTask:
    """Tier-2 analysis of one spot (WTE -> features -> thresholds -> QCD)."""

    spot: QueueSpot
    events: List[SubTrajectory]
    grid: TimeSlotGrid
    amplification: AmplificationPolicy
    policy: ThresholdPolicy
    slot_seconds: float
    street_job_ratio: float
    trace: bool = False
    """See :attr:`Tier1ShardTask.trace`."""


@dataclass
class SpotResult:
    """The finished :class:`~repro.core.engine.SpotAnalysis` of one spot."""

    spot_id: str
    analysis: SpotAnalysis
    elapsed_s: float
    spans: List[dict] = field(default_factory=list)
    """See :attr:`Tier1ShardResult.spans`."""


def taxi_home_zone(zones: ZonePartition, records: List[MdtRecord]) -> str:
    """The shard-planning zone of a taxi: the zone of its first record.

    Only shard *assignment* depends on this, never results, so the
    cheapest deterministic rule wins over the engine's majority vote.
    """
    first = records[0]
    return zones.classify_or_nearest(first.lon, first.lat)


def plan_tier1_batch_shards(
    source: Union[MdtLogStore, RecordBatch],
    zones: ZonePartition,
    target_shards: int,
    clean: bool,
    city_bbox: Optional[BBox],
    inaccessible: List[BBox],
    params: SpotDetectionParams,
) -> List[Tier1BatchShardTask]:
    """The columnar :func:`plan_tier1_shards`: batch-carrying shards.

    Same plan as the row planner — taxis visited in sorted-id order,
    grouped by home zone, chunks filled greedily against a
    ``total_records / target_shards`` budget — so a chunk holds exactly
    the taxis its row-path twin would; only the payload differs (one
    packed sub-batch per shard instead of a list of record lists).
    """
    from repro.trace.partition import partition_batch_by_taxi

    if target_shards < 1:
        raise ValueError("target_shards must be >= 1")
    batch = (
        source
        if isinstance(source, RecordBatch)
        else RecordBatch.from_store(source)
    )
    by_zone: Dict[str, List[Tuple[str, RecordBatch]]] = {
        zone.name: [] for zone in zones
    }
    total_records = 0
    for taxi_id, sub in partition_batch_by_taxi(batch):
        if len(sub) == 0:
            continue
        zone_name = zones.classify_or_nearest(sub.lon[0], sub.lat[0])
        by_zone[zone_name].append((taxi_id, sub))
        total_records += len(sub)
    if total_records == 0:
        return []

    budget = max(1, total_records // target_shards)
    tasks: List[Tier1BatchShardTask] = []

    def flush(zone_name: str, chunk: List[Tuple[str, RecordBatch]]) -> None:
        tasks.append(
            Tier1BatchShardTask(
                shard_id=len(tasks),
                zone=zone_name,
                batch=RecordBatch.concat([sub for _, sub in chunk]),
                clean=clean,
                city_bbox=city_bbox,
                inaccessible=list(inaccessible),
                params=params,
            )
        )

    for zone in zones:
        group = by_zone[zone.name]
        if not group:
            continue
        chunk: List[Tuple[str, RecordBatch]] = []
        chunk_records = 0
        for taxi_id, sub in group:
            if chunk and chunk_records + len(sub) > budget:
                flush(zone.name, chunk)
                chunk = []
                chunk_records = 0
            chunk.append((taxi_id, sub))
            chunk_records += len(sub)
        if chunk:
            flush(zone.name, chunk)
    return tasks


def plan_tier1_shards(
    store: MdtLogStore,
    zones: ZonePartition,
    target_shards: int,
    clean: bool,
    city_bbox: Optional[BBox],
    inaccessible: List[BBox],
    params: SpotDetectionParams,
) -> List[Tier1ShardTask]:
    """Split a store into zone-grouped, size-balanced tier-1 shards.

    Taxis are grouped by home zone, then each zone's group is chunked so
    no chunk greatly exceeds ``total_records / target_shards`` — zones
    with most of the data (Central, typically) get several chunks while
    sparse zones stay whole.  The plan is deterministic: taxis are
    visited in sorted id order and chunks filled greedily.
    """
    if target_shards < 1:
        raise ValueError("target_shards must be >= 1")
    by_zone: Dict[str, List[Tuple[str, List[MdtRecord]]]] = {
        zone.name: [] for zone in zones
    }
    total_records = 0
    for taxi_id in store.taxi_ids:
        records = store.records_of(taxi_id)
        if not records:
            continue
        by_zone[taxi_home_zone(zones, records)].append((taxi_id, records))
        total_records += len(records)
    if total_records == 0:
        return []

    budget = max(1, total_records // target_shards)
    tasks: List[Tier1ShardTask] = []
    for zone in zones:
        group = by_zone[zone.name]
        if not group:
            continue
        chunk: List[Tuple[str, List[MdtRecord]]] = []
        chunk_records = 0
        for taxi_id, records in group:
            if chunk and chunk_records + len(records) > budget:
                tasks.append(
                    Tier1ShardTask(
                        shard_id=len(tasks),
                        zone=zone.name,
                        taxis=chunk,
                        clean=clean,
                        city_bbox=city_bbox,
                        inaccessible=list(inaccessible),
                        params=params,
                    )
                )
                chunk = []
                chunk_records = 0
            chunk.append((taxi_id, records))
            chunk_records += len(records)
        if chunk:
            tasks.append(
                Tier1ShardTask(
                    shard_id=len(tasks),
                    zone=zone.name,
                    taxis=chunk,
                    clean=clean,
                    city_bbox=city_bbox,
                    inaccessible=list(inaccessible),
                    params=params,
                )
            )
    return tasks
