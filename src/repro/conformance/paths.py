"""Drive one day through every execution path.

Each function here runs one path end to end; the streaming paths
reduce their output to the canonical form of
:mod:`repro.conformance.canonical`:

* :func:`run_serial` — the batch class (raw outputs, for the oracles);
* :func:`run_streaming` — ordered replay, optionally through a
  :class:`~repro.resilience.reorder.ReorderBuffer` and/or against a
  disordered copy of the stream;
* :func:`run_kill_restart` — streaming with a mid-stream
  :class:`~repro.resilience.chaos.InjectedCrash`, then a fresh stack
  restored from the latest checkpoint and resumed.

Streaming paths always consume records in the canonical
:func:`~repro.resilience.reorder.record_key` order, the same total
order the reorder buffer releases in — a ts-only sort would leave
equal-timestamp ties ambiguous between paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.columnar import RecordBatch
from repro.conformance.canonical import DayBootstrap, day_grid, streaming_state
from repro.core.engine import QueueAnalyticEngine, SpotAnalysis
from repro.core.spots import SpotDetectionResult
from repro.core.types import TimeSlotGrid
from repro.history.segments import SegmentStore
from repro.history.writer import HistoryWriter
from repro.resilience.chaos import ChaosStream, FaultPlan, InjectedCrash
from repro.resilience.checkpoint import CheckpointManager, ServiceCheckpointer
from repro.resilience.reorder import ReorderBuffer, record_key
from repro.service.replay import StreamReplayer
from repro.stream.monitor import SlotResult
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord


def canonical_records(store_or_records) -> List[MdtRecord]:
    """All records in the canonical total order every stream path uses."""
    if isinstance(store_or_records, MdtLogStore):
        records = store_or_records.iter_records()
    else:
        records = store_or_records
    return sorted(records, key=record_key)


# -- batch class ------------------------------------------------------------


@dataclass
class BatchRun:
    """One batch-class run's raw outputs."""

    detection: SpotDetectionResult
    analyses: Dict[str, SpotAnalysis]
    cleaned: RecordBatch
    """Tier 1's cleaned rows: the day's one cleaning pass."""
    grid: Optional[TimeSlotGrid]
    """The grid tier 2 ran on (None when no row survived cleaning)."""


def run_serial(
    engine: QueueAnalyticEngine,
    store: MdtLogStore,
    grid: Optional[TimeSlotGrid] = None,
) -> BatchRun:
    """Both tiers on the in-process serial engine.

    ``store`` is the raw day: tier 1 cleans it, and tier 2 reuses tier
    1's cleaned rows.  Without a ``grid``, tier 2 runs on the day grid
    of those rows.
    """
    detection = engine.detect_spots(store)
    cleaned = detection.cleaned_for(store)
    if grid is None and len(cleaned):
        lo, hi = cleaned.time_span
        grid = day_grid(lo, hi, engine.config.slot_seconds)
    analyses = engine.disambiguate(store, detection, grid)
    return BatchRun(detection, analyses, cleaned, grid)


# -- streaming class --------------------------------------------------------


@dataclass
class StreamingRun:
    """One streaming-class run reduced to comparable state."""

    state: Dict
    results: List[SlotResult] = field(default_factory=list)
    versions: List[int] = field(default_factory=list)
    history_digests: Optional[Dict[str, str]] = None
    resumed_from: Optional[int] = None


def _collecting_stack(boot: DayBootstrap, history_dir=None):
    """Monitor + snapshot + collectors (+ optional history writer)."""
    monitor, snapshot = boot.build_stack()
    results: List[SlotResult] = []
    versions: List[int] = []

    def _collect(batch):
        if batch:
            results.extend(batch)
            versions.append(snapshot.version)

    # build_stack already subscribed snapshot.apply; this callback runs
    # after it, so snapshot.version is the post-publish version.
    monitor.subscribe(_collect)
    writer = None
    if history_dir is not None:
        writer = HistoryWriter(
            SegmentStore(history_dir), list(boot.spots), boot.grid
        )
        monitor.subscribe(writer.absorb)
    return monitor, snapshot, writer, results, versions


def run_streaming(
    boot: DayBootstrap,
    records: Sequence[MdtRecord],
    *,
    disorder_seed: Optional[int] = None,
    disorder_window_s: float = 0.0,
    duplicate_rate: float = 0.0,
    buffer_window_s: float = 0.0,
    history_dir=None,
) -> StreamingRun:
    """One full streaming replay.

    With ``disorder_seed`` set, the stream is first run through
    :func:`~repro.resilience.chaos.disordered_copy` (bounded-lateness
    permutation plus duplicates); ``buffer_window_s`` > 0 inserts a
    :class:`ReorderBuffer` in front of the monitor, the way
    ``taxiqueue serve --disorder-window`` does.  Disordered runs are
    only comparable against an *equally buffered* ordered run — the
    buffer deduplicates, an unbuffered monitor does not.
    """
    feed = list(records)
    if disorder_seed is not None:
        from repro.resilience.chaos import disordered_copy

        feed = disordered_copy(
            feed,
            seed=disorder_seed,
            window_s=disorder_window_s,
            duplicate_rate=duplicate_rate,
        )
    monitor, snapshot, writer, results, versions = _collecting_stack(
        boot, history_dir
    )
    buffer = (
        ReorderBuffer(window_s=buffer_window_s)
        if buffer_window_s > 0
        else None
    )
    for record in feed:
        if buffer is None:
            monitor.feed(record)
        else:
            for released in buffer.feed(record):
                monitor.feed(released)
    if buffer is not None:
        for released in buffer.flush():
            monitor.feed(released)
    monitor.finish()
    if writer is not None:
        writer.flush_all()
    return StreamingRun(
        state=streaming_state(snapshot),
        results=results,
        versions=versions,
        history_digests=(
            None if history_dir is None else history_digests(history_dir)
        ),
    )


def run_kill_restart(
    boot: DayBootstrap,
    records: Sequence[MdtRecord],
    *,
    crash_after: int,
    checkpoint_every: int,
    checkpoint_dir,
    history_dir=None,
) -> StreamingRun:
    """Streaming killed mid-day, then restored and resumed.

    Phase 1 replays through a :class:`ChaosStream` that raises
    :class:`InjectedCrash` after ``crash_after`` records, checkpointing
    every ``checkpoint_every`` records.  Phase 2 builds a *fresh* stack,
    restores the latest checkpoint and replays from the recorded stream
    position.  The history writer's cursor rides inside the checkpoint,
    so segment files must come out byte-identical to a straight run.

    Raises:
        RuntimeError: when the crash did not fire (``crash_after`` past
            the end of the stream would silently degrade to a plain run).
    """
    feed = list(records)
    monitor, snapshot, writer, _, _ = _collecting_stack(boot, history_dir)
    checkpointer = ServiceCheckpointer(
        CheckpointManager(checkpoint_dir),
        monitor,
        snapshot,
        history=writer,
        every_records=checkpoint_every,
    )
    crashing = StreamReplayer(
        monitor,
        ChaosStream(iter(feed), FaultPlan(crash_after=crash_after)),
        speedup=None,
        checkpointer=checkpointer,
    )
    crashing.run()
    if not isinstance(crashing.error, InjectedCrash):
        raise RuntimeError(
            f"injected crash after {crash_after} records did not fire "
            f"(stream has {len(feed)})"
        )

    monitor2, snapshot2, writer2, results, versions = _collecting_stack(
        boot, history_dir
    )
    checkpointer2 = ServiceCheckpointer(
        CheckpointManager(checkpoint_dir),
        monitor2,
        snapshot2,
        history=writer2,
        every_records=checkpoint_every,
    )
    resumed_from = checkpointer2.restore_latest()
    StreamReplayer(
        monitor2,
        feed,
        speedup=None,
        checkpointer=checkpointer2,
        skip_records=resumed_from or 0,
    ).run()
    monitor2.finish()
    if writer2 is not None:
        writer2.flush_all()
    return StreamingRun(
        state=streaming_state(snapshot2),
        results=results,
        versions=versions,
        history_digests=(
            None if history_dir is None else history_digests(history_dir)
        ),
        resumed_from=resumed_from,
    )


def history_digests(history_dir) -> Dict[str, str]:
    """SHA-256 per history segment file in a directory (byte identity)."""
    return SegmentStore(history_dir).digests()
