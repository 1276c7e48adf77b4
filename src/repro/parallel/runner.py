"""A multiprocessing execution layer for the two-tier engine.

:class:`ParallelEngineRunner` wraps a configured
:class:`~repro.core.engine.QueueAnalyticEngine` behind the same API and
fans its work out to worker processes:

* **tier 1** (:meth:`detect_spots` / :meth:`detect_spots_csv`) shards by
  zone — cleaning + PEA per zone-chunk of taxis, then per-zone DBSCAN —
  and merges deterministically (events re-sorted into the serial taxi
  scan order, zone clusters re-assembled in partition order);
* **tier 2** (:meth:`disambiguate`) fans out per spot — WTE, features,
  threshold derivation and QCD for each spot run independently.

Guarantees and behaviour:

* **bit-for-bit serial equivalence**: workers call the very functions
  the serial engine calls (:func:`repro.core.spots.cluster_zone`,
  :func:`repro.core.engine.analyze_spot`, per-taxi cleaning/PEA) and the
  merge reproduces the serial iteration order exactly, so spots and
  labels are identical to ``QueueAnalyticEngine``'s, not just close;
* **serial fallback**: ``workers <= 1``, a single-shard plan, or a
  single occupied zone run inline — no pool is spawned when spawn
  overhead would exceed the work;
* **degradation**: a shard whose worker crashes (or exceeds
  ``shard_timeout_s``) is recomputed serially in the parent, so one bad
  worker degrades throughput, never correctness;
* **observability**: per-stage wall time, per-shard worker time and
  throughput counters are recorded in a
  :class:`~repro.service.metrics.MetricsRegistry` (pass the service's
  registry to surface them at ``/v1/metrics``);
* **durability**: with a :class:`~repro.resilience.CheckpointManager`
  attached, the merged output of each stage is checkpointed at the
  shard-merge boundary (tier-1 spot assembly, tier-2 fan-in), keyed by
  a fingerprint of the input and the engine configuration; a rerun
  over the same input resumes from the newest matching checkpoint
  instead of recomputing the stage.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import QueueAnalyticEngine, SpotAnalysis
from repro.core.spots import (
    SpotDetectionResult,
    assemble_spots,
    pickup_centroids,
)
from repro.core.types import TimeSlotGrid
from repro.parallel import worker as worker_mod
from repro.parallel.ingest import split_csv_by_zone
from repro.columnar import RecordBatch
from repro.parallel.shards import (
    SpotTask,
    Tier1FileShardTask,
    Tier1ShardResult,
    ZoneClusterResult,
    ZoneClusterTask,
    detach_event,
    plan_tier1_batch_shards,
)
from repro.service.metrics import MetricsRegistry
from repro.trace.cleaning import CleaningReport
from repro.trace.log_store import MdtLogStore
from repro.trace.trajectory import SubTrajectory


class ParallelEngineRunner:
    """Run a :class:`QueueAnalyticEngine` across worker processes.

    Drop-in engine replacement: exposes ``detect_spots`` /
    ``disambiguate`` / ``preprocess`` plus the attributes the service
    bootstrap reads (``config``, ``zones``, ``projection``,
    ``amplification``), so anything accepting an engine accepts a
    runner.

    Args:
        engine: the configured serial engine to parallelise.
        workers: worker process count; ``<= 1`` means pure serial.
        shard_timeout_s: per-shard timeout; an overdue shard is
            recomputed serially in the parent (None disables).
        metrics: registry for stage/shard stats (one is created when
            omitted — pass the service registry to share).
        mp_context: a ``multiprocessing`` context or start-method name
            (defaults to the platform default, ``fork`` on Linux).
        checkpointer: optional
            :class:`~repro.resilience.CheckpointManager`; merged stage
            outputs are checkpointed at shard-merge boundaries and
            reused on fingerprint-matching reruns.
        tracer: optional :class:`repro.obs.Tracer`.  Workers measure
            their own stage spans (plain dicts riding back on the
            result dataclasses) and the runner re-parents them into the
            live trace at each merge boundary, so a parallel run yields
            the same logical span tree as a serial one.  Defaults to
            the wrapped engine's tracer.
    """

    def __init__(
        self,
        engine: QueueAnalyticEngine,
        workers: int = 2,
        *,
        shard_timeout_s: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        mp_context=None,
        checkpointer=None,
        tracer=None,
    ):
        from repro.obs.tracer import NULL_TRACER

        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.engine = engine
        self.workers = int(workers)
        self.shard_timeout_s = shard_timeout_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        self.checkpointer = checkpointer
        if tracer is not None:
            engine.tracer = tracer
        elif getattr(engine, "tracer", None) is None:
            engine.tracer = NULL_TRACER
        self.last_stats: Dict[str, dict] = {}
        self.metrics.gauge("parallel.workers").set(self.workers)

    # -- engine-compatible surface ------------------------------------------

    @property
    def config(self):
        return self.engine.config

    @property
    def zones(self):
        return self.engine.zones

    @property
    def projection(self):
        return self.engine.projection

    @property
    def city_bbox(self):
        return self.engine.city_bbox

    @property
    def inaccessible(self):
        return self.engine.inaccessible

    @property
    def amplification(self):
        return self.engine.amplification

    @property
    def tracer(self):
        """The shared tracer (delegated to the wrapped engine, so serial
        shortcuts and degraded shards land in the same trace)."""
        return self.engine.tracer

    @tracer.setter
    def tracer(self, value):
        self.engine.tracer = value

    @property
    def last_cleaning_report(self) -> Optional[CleaningReport]:
        return self.engine.last_cleaning_report

    def preprocess(self, store: MdtLogStore) -> MdtLogStore:
        """Section-6.1.1 cleaning (serial; per-store, not per-shard)."""
        return self.engine.preprocess(store)

    # -- stage checkpoints ---------------------------------------------------

    def _fingerprint(self, *parts) -> str:
        """A stable digest of the inputs deciding a stage's output."""
        import hashlib

        text = repr((parts, repr(self.engine.config)))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _store_parts(self, store: MdtLogStore):
        if len(store) == 0:
            return (0, None)
        return (len(store), store.time_span)

    def _load_stage(self, stage: str, fingerprint: str):
        """The newest checkpoint of ``stage`` matching ``fingerprint``."""
        if self.checkpointer is None:
            return None
        payload = self.checkpointer.find(
            lambda p: p.get("kind") == "parallel-stage"
            and p.get("stage") == stage
            and p.get("fingerprint") == fingerprint
        )
        if payload is None:
            return None
        self.metrics.counter(f"parallel.{stage}.checkpoint_reused").inc()
        return payload["result"]

    def _save_stage(self, stage: str, fingerprint: str, result) -> None:
        """Checkpoint a merged stage output at its shard-merge boundary."""
        if self.checkpointer is None:
            return
        self.checkpointer.save(
            {
                "kind": "parallel-stage",
                "stage": stage,
                "fingerprint": fingerprint,
                "result": result,
            }
        )
        self.metrics.counter(f"parallel.{stage}.checkpoint_saved").inc()

    @staticmethod
    def _detach_detection(
        detection: SpotDetectionResult,
    ) -> SpotDetectionResult:
        """A checkpoint-sized copy: drop the pickup events (they
        reference whole parent trajectories; ``disambiguate`` re-derives
        them identically from the store when absent)."""
        return SpotDetectionResult(
            spots=detection.spots,
            pickup_events=[],
            centroids_lonlat=detection.centroids_lonlat,
            noise_count=detection.noise_count,
            per_zone_counts=detection.per_zone_counts,
        )

    # -- internals ----------------------------------------------------------

    def _make_executor(self, max_workers: int) -> ProcessPoolExecutor:
        """Build the process pool (overridable seam for tests)."""
        return ProcessPoolExecutor(
            max_workers=max_workers, mp_context=self._mp_context
        )

    def _target_shards(self) -> int:
        # Twice the worker count: enough slack that one slow shard does
        # not serialise the stage's tail.
        return self.workers * 2

    def _run_stage(self, stage: str, tasks: Sequence, fn: Callable) -> List:
        """Run one stage's tasks, degrading failed shards to serial.

        Tasks run in the pool when both the worker count and the task
        count exceed one; results come back in task order.  A task whose
        future raises (worker crash, broken pool) or exceeds
        ``shard_timeout_s`` is recomputed in the parent process.
        """
        results: List = [None] * len(tasks)
        failed: List[int] = []
        start = time.perf_counter()
        use_pool = self.workers > 1 and len(tasks) > 1
        if use_pool:
            executor = self._make_executor(min(self.workers, len(tasks)))
            timed_out = False
            try:
                futures = [executor.submit(fn, task) for task in tasks]
                for i, future in enumerate(futures):
                    try:
                        results[i] = future.result(
                            timeout=self.shard_timeout_s
                        )
                    except FuturesTimeoutError:
                        timed_out = True
                        failed.append(i)
                    except Exception:
                        failed.append(i)
            finally:
                # A timed-out worker may be stuck; don't wait on it.
                executor.shutdown(wait=not timed_out, cancel_futures=True)
            for i in failed:
                results[i] = fn(tasks[i], allow_fault=False)
                self.metrics.counter(
                    f"parallel.{stage}.serial_fallback"
                ).inc()
        else:
            for i, task in enumerate(tasks):
                results[i] = fn(task, allow_fault=False)
        wall = time.perf_counter() - start
        self.metrics.histogram(f"parallel.{stage}.stage_seconds").observe(wall)
        self.metrics.counter(f"parallel.{stage}.shards").inc(len(tasks))
        for result in results:
            self.metrics.histogram(f"parallel.{stage}.shard_seconds").observe(
                result.elapsed_s
            )
        self.last_stats[stage] = {
            "shards": len(tasks),
            "failed": len(failed),
            "seconds": wall,
            "pool": use_pool,
        }
        return results

    # -- tier 1 -------------------------------------------------------------

    def detect_spots(self, store: MdtLogStore) -> SpotDetectionResult:
        """Tier 1 over an in-memory store, sharded by zone."""
        fingerprint = self._fingerprint("tier1", self._store_parts(store))
        cached = self._load_stage("tier1", fingerprint)
        if cached is not None:
            return cached
        detection = self._detect_spots_uncached(store)
        self._save_stage(
            "tier1", fingerprint, self._detach_detection(detection)
        )
        return detection

    def _detect_spots_uncached(self, store: MdtLogStore) -> SpotDetectionResult:
        if self.workers <= 1:
            return self.engine.detect_spots(store)
        cfg = self.engine.config
        tasks = plan_tier1_batch_shards(
            store,
            self.engine.zones,
            target_shards=self._target_shards(),
            clean=cfg.clean_inputs,
            city_bbox=self.engine.city_bbox,
            inaccessible=self.engine.inaccessible,
            params=cfg.detection,
        )
        if len(tasks) <= 1 or len({task.zone for task in tasks}) <= 1:
            # Single shard or single occupied zone: spawn overhead
            # exceeds the parallelisable work, so stay serial.
            self.metrics.counter("parallel.tier1.serial_shortcut").inc()
            return self.engine.detect_spots(store)
        for task in tasks:
            task.trace = self.tracer.enabled
        results = self._run_stage("tier1", tasks, worker_mod.run_tier1_shard)
        detection = self._finish_tier1(results, extra_malformed=0)
        detection.keep_cleaned(store, _merge_cleaned(results))
        return detection

    def detect_spots_csv(self, path, shard_dir=None) -> SpotDetectionResult:
        """Tier 1 from a log CSV with chunked ingest.

        The CSV is streamed into per-zone shard files (see
        :mod:`repro.parallel.ingest`); workers load only their own
        shard, so no process holds the full day.  Malformed lines are
        counted in the cleaning report, never raised.

        Args:
            path: the log CSV.
            shard_dir: where to write shard files (a temporary
                directory, removed afterwards, when omitted).
        """
        import os

        fingerprint = self._fingerprint(
            "tier1csv", str(path), os.path.getsize(path)
        )
        cached = self._load_stage("tier1", fingerprint)
        if cached is not None:
            return cached
        detection = self._detect_spots_csv_uncached(path, shard_dir)
        self._save_stage(
            "tier1", fingerprint, self._detach_detection(detection)
        )
        return detection

    def _detect_spots_csv_uncached(
        self, path, shard_dir=None
    ) -> SpotDetectionResult:
        if self.workers <= 1:
            # Columnar serial path: parse straight into columns, no
            # intermediate record objects.
            batch = RecordBatch.from_csv(path, on_error="skip")
            detection = self.engine.detect_spots(batch)
            if self.engine.last_cleaning_report is not None:
                self.engine.last_cleaning_report.malformed_line += (
                    batch.skipped_lines
                )
            return detection
        cfg = self.engine.config
        with tempfile.TemporaryDirectory(
            prefix="taxiqueue-shards-"
        ) if shard_dir is None else _keep_dir(shard_dir) as out_dir:
            with self.tracer.span("stage.ingest", mode="split-csv") as span:
                split = split_csv_by_zone(
                    path,
                    self.engine.zones,
                    target_shards=self._target_shards(),
                    out_dir=out_dir,
                )
                span.set(
                    records=split.rows,
                    malformed=split.malformed_lines,
                    shards=len(split.shards),
                )
            self.metrics.counter("parallel.ingest.rows").inc(split.rows)
            self.metrics.counter("parallel.ingest.malformed_lines").inc(
                split.malformed_lines
            )
            occupied_zones = {shard.zone for shard in split.shards}
            if len(split.shards) <= 1 or len(occupied_zones) <= 1:
                self.metrics.counter("parallel.tier1.serial_shortcut").inc()
                batch = RecordBatch.from_csv(path, on_error="skip")
                detection = self.engine.detect_spots(batch)
                # Both scans read the same file: count its bad lines once.
                if self.engine.last_cleaning_report is not None:
                    self.engine.last_cleaning_report.malformed_line += (
                        batch.skipped_lines
                    )
                return detection
            tasks = [
                Tier1FileShardTask(
                    shard_id=i,
                    zone=shard.zone,
                    path=str(shard.path),
                    clean=cfg.clean_inputs,
                    city_bbox=self.engine.city_bbox,
                    inaccessible=self.engine.inaccessible,
                    params=cfg.detection,
                    trace=self.tracer.enabled,
                )
                for i, shard in enumerate(split.shards)
            ]
            results = self._run_stage(
                "tier1", tasks, worker_mod.run_tier1_shard
            )
        return self._finish_tier1(
            results, extra_malformed=split.malformed_lines
        )

    def _attach_worker_stage_spans(
        self, results: List[Tier1ShardResult]
    ) -> None:
        """Aggregate the shards' clean/pea spans into one logical
        ``stage.clean`` + ``stage.pea`` pair (the serial trace shape),
        keeping the per-shard worker spans as their children."""
        from repro.obs.tracer import worker_span

        groups = {"clean": [], "pea": []}
        for result in results:
            for span in result.spans:
                stage = span["name"].split(".", 1)[0]
                if stage in groups:
                    groups[stage].append(span)
        stage_spans = []
        for stage in ("clean", "pea"):
            children = groups[stage]
            if not children:
                continue
            stage_spans.append(
                worker_span(
                    f"stage.{stage}",
                    min(child["start_ts"] for child in children),
                    sum(child["duration_s"] for child in children),
                    {
                        "aggregated": True,
                        "shards": len(children),
                        "records": sum(
                            child["attrs"].get("records", 0)
                            for child in children
                        ),
                    },
                    children=children,
                )
            )
        self.tracer.attach(stage_spans)

    def _finish_tier1(
        self, results: List[Tier1ShardResult], extra_malformed: int
    ) -> SpotDetectionResult:
        """Merge shard results and run the per-zone clustering stage."""
        cfg = self.engine.config
        if self.tracer.enabled:
            self._attach_worker_stage_spans(results)
        pairs: List[Tuple[str, List[SubTrajectory]]] = []
        report = CleaningReport() if cfg.clean_inputs else None
        records_in = 0
        for result in results:
            pairs.extend(result.events_by_taxi)
            records_in += result.records_in
            if report is not None and result.report is not None:
                report.merge(result.report)
        # The serial engine scans taxis in sorted-id order; restoring
        # that order here is what makes the merge deterministic.
        pairs.sort(key=lambda pair: pair[0])
        events = [event for _, subs in pairs for event in subs]
        if report is not None:
            report.malformed_line += extra_malformed
            self.engine.last_cleaning_report = report
        self.metrics.counter("parallel.tier1.records").inc(records_in)
        self.metrics.counter("parallel.tier1.events").inc(len(events))

        zones = self.engine.zones
        projection = self.engine.projection
        lonlat = pickup_centroids(events)
        zone_tasks: List[ZoneClusterTask] = []
        if len(lonlat) > 0:
            zone_names = np.asarray(
                [zones.classify_or_nearest(lon, lat) for lon, lat in lonlat]
            )
            for zone in zones:
                mask = zone_names == zone.name
                if not mask.any():
                    continue
                zone_tasks.append(
                    ZoneClusterTask(
                        zone=zone.name,
                        lonlat=lonlat[mask],
                        projection=projection,
                        params=cfg.detection,
                        trace=self.tracer.enabled,
                    )
                )
        with self.tracer.span(
            "stage.cluster", points=int(len(lonlat)), zones=len(zone_tasks)
        ) as cluster_span:
            zone_results = self._run_stage(
                "zones", zone_tasks, worker_mod.run_zone_cluster
            )
            for result in zone_results:
                self.tracer.attach(result.spans, parent=cluster_span)

        by_zone: Dict[str, ZoneClusterResult] = {
            result.zone: result for result in zone_results
        }
        raw_spots: List[Tuple[str, float, float, int, float]] = []
        noise = 0
        per_zone: Dict[str, int] = {zone.name: 0 for zone in zones}
        for zone in zones:
            result = by_zone.get(zone.name)
            if result is None:
                continue
            noise += result.noise
            for lon, lat, size, radius in result.clusters:
                raw_spots.append((zone.name, lon, lat, size, radius))
                per_zone[zone.name] += 1
        return SpotDetectionResult(
            spots=assemble_spots(raw_spots),
            pickup_events=events,
            centroids_lonlat=lonlat,
            noise_count=noise,
            per_zone_counts=per_zone,
        )

    # -- tier 2 -------------------------------------------------------------

    def disambiguate(
        self,
        store: MdtLogStore,
        detection: SpotDetectionResult,
        grid: Optional[TimeSlotGrid] = None,
    ) -> Dict[str, SpotAnalysis]:
        """Tier 2 with a per-spot fan-out (WTE + features + QCD)."""
        fingerprint = self._fingerprint(
            "tier2",
            self._store_parts(store),
            tuple(spot.spot_id for spot in detection.spots),
            None
            if grid is None
            else (grid.start_ts, grid.end_ts, grid.slot_seconds),
        )
        cached = self._load_stage("tier2", fingerprint)
        if cached is not None:
            return cached
        analyses = self._disambiguate_uncached(store, detection, grid)
        self._save_stage("tier2", fingerprint, analyses)
        return analyses

    def _disambiguate_uncached(
        self,
        store: MdtLogStore,
        detection: SpotDetectionResult,
        grid: Optional[TimeSlotGrid] = None,
    ) -> Dict[str, SpotAnalysis]:
        if self.workers <= 1 or len(detection.spots) <= 1:
            return self.engine.disambiguate(store, detection, grid)
        cfg = self.engine.config
        setup = self.engine.tier2_setup(store, detection, grid)
        amplification = self.engine.amplification
        tasks = [
            SpotTask(
                spot=spot,
                events=[
                    detach_event(e) for e in setup.buckets[spot.spot_id]
                ],
                grid=setup.grid,
                amplification=amplification,
                policy=cfg.thresholds,
                slot_seconds=cfg.slot_seconds,
                street_job_ratio=setup.street_job_ratio(spot),
                trace=self.tracer.enabled,
            )
            for spot in detection.spots
        ]
        with self.tracer.span("stage.tier2", spots=len(tasks)) as stage:
            results = self._run_stage(
                "tier2", tasks, worker_mod.run_spot_task
            )
            for result in results:
                self.tracer.attach(result.spans, parent=stage)
            stage.set(labeled=len(results))
        self.metrics.counter("parallel.tier2.spots").inc(len(tasks))
        return {result.spot_id: result.analysis for result in results}


def _merge_cleaned(results: List[Tier1ShardResult]) -> RecordBatch:
    """The shards' cleaned rows in serial order: taxis by sorted id."""
    from repro.trace.partition import partition_batch_by_taxi

    parts = [
        part
        for result in results
        for part in partition_batch_by_taxi(result.cleaned)
    ]
    parts.sort(key=lambda part: part[0])
    return RecordBatch.concat([sub for _, sub in parts])


class _keep_dir:
    """Context manager yielding a caller-owned shard directory as-is."""

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        return self.path

    def __exit__(self, *exc):
        return False
