"""Assembly of the live queue-state service.

One call — :meth:`QueueService.from_day` — turns a day of MDT logs plus
a configured batch engine into the full serving stack the deployed
system runs (paper section 7.1):

1. **batch bootstrap**: tier 1 cleans the day and detects the spot
   set, tier 2 derives the per-spot QCD thresholds (the monitor needs
   both up front, exactly as the production deployment bootstraps from
   historical days); :func:`make_bootstrap` freezes them into a
   :class:`DayBootstrap`;
2. **live path**: :meth:`DayBootstrap.build_stack` wires a
   :class:`StreamingQueueMonitor` that re-labels tier 1's cleaned rows
   record by record, in :func:`~repro.service.replay.replay_order` (a
   feed over the cleaned columns that builds each row as the replay
   pulls it), publishing finalized slots into a
   :class:`SnapshotStore` through a subscription callback;
3. **serving path**: a :class:`QueueStateServer` exposes the snapshot
   over HTTP with ETag revalidation and TTL response caching, while a
   :class:`StreamReplayer` paces ingestion at a configurable speedup.

The conformance harness and the golden fixtures build their streaming
stacks from the same :class:`DayBootstrap`, so they check the stack
``serve`` runs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple, Union

from repro.columnar import RecordBatch
from repro.core.engine import EngineConfig, QueueAnalyticEngine, SpotAnalysis
from repro.core.features import AmplificationPolicy
from repro.core.spots import SpotDetectionParams, SpotDetectionResult
from repro.core.thresholds import QcdThresholds
from repro.core.types import QueueSpot, TimeSlotGrid
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import four_zone_partition
from repro.service.http import QueueStateServer
from repro.service.metrics import MetricsRegistry
from repro.service.replay import StreamReplayer, replay_order
from repro.service.snapshot import SnapshotStore
from repro.stream.monitor import StreamingQueueMonitor
from repro.trace.log_store import MdtLogStore

#: Format version stamped into every bootstrap JSON.
BOOTSTRAP_VERSION = 1


@dataclass(frozen=True)
class DayBootstrap:
    """The frozen tier-1/tier-2 context a streaming stack runs under.

    Everything needed to rebuild the engine and the streaming stack
    *without* the original full day.  ``serve`` freezes one from its
    batch run; the conformance harness holds one fixed while shrinking
    and serializes it next to the minimal CSV, so the repro script
    reconstructs the exact same run.
    """

    bbox: BBox
    min_pts: int
    coverage: float
    slot_seconds: float
    assign_radius_m: float
    grace_s: float
    grid: TimeSlotGrid
    spots: Tuple[QueueSpot, ...]
    thresholds: Dict[str, Optional[QcdThresholds]]

    # -- construction ------------------------------------------------------

    def build_engine(self) -> QueueAnalyticEngine:
        """The batch engine this bootstrap's day was analyzed with."""
        return QueueAnalyticEngine(
            zones=four_zone_partition(self.bbox),
            projection=LocalProjection(*self.bbox.center),
            config=EngineConfig(
                detection=SpotDetectionParams(min_pts=self.min_pts),
                slot_seconds=self.slot_seconds,
                assign_radius_m=self.assign_radius_m,
                observed_fraction=self.coverage,
            ),
            city_bbox=self.bbox,
        )

    def stream_thresholds(self) -> Dict[str, QcdThresholds]:
        """Per-spot thresholds with undecidable (None) spots dropped —
        the monitor labels those UNIDENTIFIED."""
        return {
            spot_id: th
            for spot_id, th in self.thresholds.items()
            if th is not None
        }

    def build_stack(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> Tuple[StreamingQueueMonitor, SnapshotStore]:
        """A fresh monitor and a snapshot store subscribed to it.

        ``metrics`` is the registry the snapshot store records into.
        """
        monitor = StreamingQueueMonitor(
            spots=self.spots,
            thresholds=self.stream_thresholds(),
            grid=self.grid,
            projection=LocalProjection(*self.bbox.center),
            amplification=AmplificationPolicy.for_coverage(self.coverage),
            assign_radius_m=self.assign_radius_m,
            grace_s=self.grace_s,
        )
        snapshot = SnapshotStore(self.spots, self.grid, metrics=metrics)
        monitor.subscribe(snapshot.apply)
        return monitor, snapshot

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> Dict:
        return {
            "version": BOOTSTRAP_VERSION,
            "bbox": asdict(self.bbox),
            "min_pts": self.min_pts,
            "coverage": self.coverage,
            "slot_seconds": self.slot_seconds,
            "assign_radius_m": self.assign_radius_m,
            "grace_s": self.grace_s,
            "grid": {
                "start_ts": self.grid.start_ts,
                "end_ts": self.grid.end_ts,
                "slot_seconds": self.grid.slot_seconds,
            },
            "spots": [asdict(spot) for spot in self.spots],
            "thresholds": {
                spot_id: None if th is None else asdict(th)
                for spot_id, th in self.thresholds.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data: Dict) -> "DayBootstrap":
        """Inverse of :meth:`to_json_dict`.

        Raises:
            ValueError: on an unknown format version or missing keys.
        """
        try:
            version = data["version"]
            if version != BOOTSTRAP_VERSION:
                raise ValueError(
                    f"unsupported bootstrap version {version!r}"
                )
            return cls(
                bbox=BBox(**data["bbox"]),
                min_pts=int(data["min_pts"]),
                coverage=float(data["coverage"]),
                slot_seconds=float(data["slot_seconds"]),
                assign_radius_m=float(data["assign_radius_m"]),
                grace_s=float(data["grace_s"]),
                grid=TimeSlotGrid(**data["grid"]),
                spots=tuple(
                    QueueSpot(**spot) for spot in data["spots"]
                ),
                thresholds={
                    spot_id: None if th is None else QcdThresholds(**th)
                    for spot_id, th in data["thresholds"].items()
                },
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed bootstrap JSON: {exc}")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "DayBootstrap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def make_bootstrap(
    engine: QueueAnalyticEngine,
    detection: SpotDetectionResult,
    analyses: Dict[str, SpotAnalysis],
    grid: TimeSlotGrid,
    grace_s: float = 900.0,
) -> DayBootstrap:
    """Freeze one batch run's tier-1/tier-2 context into a bootstrap.

    Raises:
        ValueError: when the engine has no city bbox, or its projection
            is not centred on that bbox — :meth:`DayBootstrap.build_stack`
            rebuilds the projection from the bbox, so any other one
            would label the stream in a different metre plane.
    """
    if engine.city_bbox is None:
        raise ValueError("a bootstrap engine must carry a city bbox")
    if engine.projection != LocalProjection(*engine.city_bbox.center):
        raise ValueError(
            "a bootstrap engine's projection must be centred on its "
            "city bbox"
        )
    return DayBootstrap(
        bbox=engine.city_bbox,
        min_pts=engine.config.detection.min_pts,
        coverage=engine.config.observed_fraction,
        slot_seconds=engine.config.slot_seconds,
        assign_radius_m=engine.config.assign_radius_m,
        grace_s=grace_s,
        grid=grid,
        spots=tuple(detection.spots),
        thresholds={
            spot_id: analysis.thresholds
            for spot_id, analysis in analyses.items()
        },
    )


@dataclass
class ServiceConfig:
    """Knobs of the serving stack (not of the analytics).

    The resilience knobs (see ``docs/resilience.md``):

    * ``disorder_window_s`` — when positive, a
      :class:`~repro.resilience.ReorderBuffer` with this lateness bound
      fronts the monitor, absorbing out-of-order, duplicated and late
      records;
    * ``checkpoint_dir`` — when set, monitor + snapshot (+ buffer)
      state is checkpointed atomically every
      ``checkpoint_every_records`` consumed records, and an existing
      checkpoint in the directory is restored on startup so the replay
      resumes bit-identically after a kill;
    * ``stale_after_s`` — staleness threshold of the service watchdog
      (surfaced at ``/v1/healthz`` and ``/v1/metrics``).

    The history knobs (see ``docs/history.md``):

    * ``history_dir`` — when set, finalized slot results are persisted
      as durable day segments (:mod:`repro.history`) and the
      ``/v1/history/*`` endpoints come up; the history writer rides in
      the service checkpoint so a kill/restart never loses or
      double-writes a record;
    * ``history_day_of_week`` — 0=Mon..6=Sun of the stream's first
      day; None derives the calendar weekday from the epoch day.

    The admission knobs (see ``docs/load.md``):

    * ``max_inflight`` — bound on concurrently handled requests;
      excess requests are shed with ``429 + Retry-After``;
    * ``rate_limit_rps`` / ``rate_burst`` — token-bucket sustained
      rate and burst capacity (None = no rate limiting).
    """

    host: str = "127.0.0.1"
    port: int = 0
    speedup: Optional[float] = 600.0
    cache_ttl_s: float = 1.0
    max_inflight: Optional[int] = None
    rate_limit_rps: Optional[float] = None
    rate_burst: Optional[int] = None
    grace_s: float = 900.0
    disorder_window_s: float = 0.0
    checkpoint_dir: Optional[str] = None
    checkpoint_every_records: int = 5000
    stale_after_s: float = 30.0
    history_dir: Optional[str] = None
    history_day_of_week: Optional[int] = None


class EmptyDayError(ValueError):
    """The day has no records left to replay after cleaning."""


class QueueService:
    """The assembled live service: snapshot store + replay + HTTP."""

    def __init__(
        self,
        store: SnapshotStore,
        monitor: StreamingQueueMonitor,
        replayer: StreamReplayer,
        server: QueueStateServer,
        metrics: MetricsRegistry,
        watchdog=None,
        checkpointer=None,
        history_writer=None,
        history_engine=None,
    ):
        self.store = store
        self.monitor = monitor
        self.replayer = replayer
        self.server = server
        self.metrics = metrics
        self.watchdog = watchdog
        self.checkpointer = checkpointer
        self.history_writer = history_writer
        self.history_engine = history_engine
        self.resumed_from: Optional[int] = None
        """Stream position restored from a checkpoint, None on cold
        start (set by :meth:`from_day` when a checkpoint was loaded)."""

    @classmethod
    def from_day(
        cls,
        data: Union[RecordBatch, MdtLogStore],
        engine: QueueAnalyticEngine,
        config: Optional[ServiceConfig] = None,
        grid: Optional[TimeSlotGrid] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> "QueueService":
        """Bootstrap the full stack from one day of logs.

        Args:
            data: the day's raw MDT logs, as a
                :class:`~repro.columnar.RecordBatch` (parsed from CSV)
                or an :class:`MdtLogStore` (simulated).  Pass them
                uncleaned: tier 1 cleans the day once, and the replay
                feeds tier 1's cleaned rows in :func:`replay_order`.
            engine: a configured batch engine; runs tiers 1 and 2 once
                to obtain the spot set and per-spot thresholds.
            config: serving knobs.
            grid: slot grid; defaults to :meth:`TimeSlotGrid.covering`
                tier 1's cleaned rows, the grid tier 2 derives itself.
            metrics: registry to record into (one is created when
                omitted).
            tracer: optional :class:`repro.obs.Tracer`; the bootstrap
                runs under one ``pipeline.bootstrap`` trace and the
                replayer emits per-window ``stream.window`` traces.
                Defaults to the engine's tracer.

        Raises:
            EmptyDayError: when cleaning leaves no record to replay.
            ValueError: when the engine cannot be frozen into a
                :class:`DayBootstrap` (see :func:`make_bootstrap`).
        """
        config = config or ServiceConfig()
        metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None:
            tracer = engine.tracer
        else:
            # Share one tracer so the engine's stage spans nest under
            # the bootstrap root opened here.
            engine.tracer = tracer

        with metrics.time("bootstrap.seconds"), tracer.trace(
            "pipeline.bootstrap"
        ) as root:
            with tracer.span("stage.ingest", mode="store") as span:
                span.set(records=len(data))
            day = engine.clean(data)
            detection = engine.detect_spots(day)
            cleaned = day.rows
            if len(cleaned) == 0:
                raise EmptyDayError("no records left to replay after cleaning")
            if grid is None:
                lo, hi = cleaned.time_span
                grid = TimeSlotGrid.covering(
                    lo, hi, engine.config.slot_seconds
                )
            analyses = engine.disambiguate(day, detection, grid)
            boot = make_bootstrap(
                engine, detection, analyses, grid, grace_s=config.grace_s
            )
            records = replay_order(cleaned)
            root.set(spots=len(detection.spots), records=len(records))

        metrics.gauge("bootstrap.spots").set(len(detection.spots))
        metrics.gauge("bootstrap.records").set(len(records))

        monitor, snapshot = boot.build_stack(metrics)

        history_writer = None
        history_engine = None
        if config.history_dir is not None:
            from repro.history import (
                HistoryQueryEngine,
                HistoryWriter,
                SegmentStore,
            )

            segment_store = SegmentStore(config.history_dir, metrics=metrics)
            history_writer = HistoryWriter(
                segment_store,
                detection.spots,
                grid,
                day_of_week=config.history_day_of_week,
                metrics=metrics,
                tracer=tracer,
            )
            monitor.subscribe(history_writer.absorb)
            history_engine = HistoryQueryEngine(
                segment_store, metrics=metrics, tracer=tracer
            )

        reorder = None
        if config.disorder_window_s > 0:
            from repro.resilience import ReorderBuffer

            reorder = ReorderBuffer(
                config.disorder_window_s, metrics=metrics
            )
        checkpointer = None
        resumed_from = None
        if config.checkpoint_dir is not None:
            from repro.resilience import CheckpointManager, ServiceCheckpointer

            checkpointer = ServiceCheckpointer(
                CheckpointManager(config.checkpoint_dir, metrics=metrics),
                monitor,
                snapshot,
                reorder=reorder,
                history=history_writer,
                every_records=config.checkpoint_every_records,
            )
            resumed_from = checkpointer.restore_latest()

        replayer = StreamReplayer(
            monitor,
            records,
            speedup=config.speedup,
            metrics=metrics,
            reorder=reorder,
            checkpointer=checkpointer,
            skip_records=resumed_from or 0,
            tracer=tracer,
        )
        from repro.resilience import ServiceWatchdog

        watchdog = ServiceWatchdog(
            snapshot,
            metrics=metrics,
            stale_after_s=config.stale_after_s,
        )
        server = QueueStateServer(
            snapshot,
            metrics=metrics,
            host=config.host,
            port=config.port,
            cache_ttl_s=config.cache_ttl_s,
            max_inflight=config.max_inflight,
            rate_limit=config.rate_limit_rps,
            rate_burst=config.rate_burst,
            watchdog=watchdog,
            history=history_engine,
            tracer=tracer,
        )
        service = cls(
            snapshot,
            monitor,
            replayer,
            server,
            metrics,
            watchdog=watchdog,
            checkpointer=checkpointer,
            history_writer=history_writer,
            history_engine=history_engine,
        )
        service.resumed_from = resumed_from
        return service

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start serving and begin the paced replay in the background."""
        self.server.start()
        if self.watchdog is not None:
            self.watchdog.start()
        self.replayer.start()

    def stop(self) -> None:
        self.replayer.stop()
        if self.history_writer is not None:
            # One last flush so segments cover everything finalized
            # before shutdown.
            self.history_writer.flush_all()
        if self.watchdog is not None:
            self.watchdog.stop()
        self.server.stop()

    def warm(self) -> int:
        """Replay the whole day synchronously (no pacing, no server).

        Used by benchmarks and tests that need a converged snapshot;
        returns the number of finalized spot-slots.
        """
        pacing, self.replayer.speedup = self.replayer.speedup, None
        try:
            return self.replayer.run()
        finally:
            self.replayer.speedup = pacing
