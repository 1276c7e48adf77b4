"""Drive one day through every execution path.

Each function here runs one path end to end; the streaming paths
reduce their output to the canonical form of
:mod:`repro.conformance.canonical`:

* :func:`run_serial` — the batch class (raw outputs, for the oracles);
* :func:`run_streaming` — the replay ``serve`` runs, optionally through
  a :class:`~repro.resilience.reorder.ReorderBuffer` and/or against a
  disordered copy of the stream;
* :func:`run_kill_restart` — streaming with a mid-stream
  :class:`~repro.resilience.chaos.InjectedCrash`, then a fresh stack
  restored from the latest checkpoint and resumed.

Every streaming path runs ``serve``'s stack
(:meth:`~repro.service.app.DayBootstrap.build_stack`) and ``serve``'s
loop (:class:`~repro.service.replay.StreamReplayer`, flat out), feeds
the records in the order it is given them — callers pass
:func:`~repro.service.replay.replay_order`, the order ``serve`` replays
in — and raises the exception its replay captured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.columnar import RecordBatch
from repro.conformance.canonical import DayBootstrap, day_grid, streaming_state
from repro.core.engine import QueueAnalyticEngine, SpotAnalysis
from repro.core.spots import SpotDetectionResult
from repro.core.types import TimeSlotGrid
from repro.history.segments import SegmentStore
from repro.history.writer import HistoryWriter
from repro.resilience.chaos import (
    ChaosStream,
    FaultPlan,
    InjectedCrash,
    disordered_copy,
)
from repro.resilience.checkpoint import CheckpointManager, ServiceCheckpointer
from repro.resilience.reorder import ReorderBuffer
from repro.service.replay import StreamReplayer
from repro.stream.monitor import SlotResult
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord


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


def _replay(
    boot: DayBootstrap,
    records: Iterable[MdtRecord],
    *,
    history_dir=None,
    reorder: Optional[ReorderBuffer] = None,
    checkpoint_dir=None,
    checkpoint_every: int = 1,
    crash_after: Optional[int] = None,
) -> StreamingRun:
    """One replay of ``records``, in the order given, through a fresh
    copy of ``serve``'s stack and loop (flat out).

    With a ``checkpoint_dir`` the run starts the way ``serve
    --checkpoint-dir`` does: it restores the latest checkpoint there, if
    any, and resumes from its stream position.  ``crash_after`` kills
    the feed with :class:`InjectedCrash` after that many records.

    Raises:
        Exception: the error the replay captured in
            :attr:`StreamReplayer.error`.
    """
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
            SegmentStore(history_dir), boot.spots, boot.grid
        )
        monitor.subscribe(writer.absorb)
    checkpointer = None
    resumed_from = None
    if checkpoint_dir is not None:
        checkpointer = ServiceCheckpointer(
            CheckpointManager(checkpoint_dir),
            monitor,
            snapshot,
            history=writer,
            every_records=checkpoint_every,
        )
        resumed_from = checkpointer.restore_latest()
    # An iterator: the replayer would put a sequence back in order.
    feed = iter(records)
    if crash_after is not None:
        feed = ChaosStream(feed, FaultPlan(crash_after=crash_after))
    replayer = StreamReplayer(
        monitor,
        feed,
        speedup=None,
        reorder=reorder,
        checkpointer=checkpointer,
        skip_records=resumed_from or 0,
    )
    replayer.run()
    if replayer.error is not None:
        raise replayer.error
    digests = None
    if writer is not None:
        writer.flush_all()
        digests = writer.store.digests()
    return StreamingRun(
        state=streaming_state(snapshot),
        results=results,
        versions=versions,
        history_digests=digests,
        resumed_from=resumed_from,
    )


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
    if disorder_seed is not None:
        records = disordered_copy(
            records,
            seed=disorder_seed,
            window_s=disorder_window_s,
            duplicate_rate=duplicate_rate,
        )
    return _replay(
        boot,
        records,
        history_dir=history_dir,
        reorder=(
            ReorderBuffer(window_s=buffer_window_s)
            if buffer_window_s > 0
            else None
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
    Both phases start the way ``serve --checkpoint-dir`` starts, from
    the latest checkpoint in ``checkpoint_dir``, so it must start empty.

    Raises:
        RuntimeError: when the crash did not fire (``crash_after`` past
            the end of the stream would silently degrade to a plain run).
    """
    phase = dict(
        history_dir=history_dir,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    try:
        _replay(boot, records, crash_after=crash_after, **phase)
    except InjectedCrash:
        pass
    else:
        raise RuntimeError(
            f"injected crash after {crash_after} records did not fire "
            f"(stream has {len(records)})"
        )
    return _replay(boot, records, **phase)
