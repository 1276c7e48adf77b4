"""Accelerated replay of a day's records into the streaming monitor.

The live system consumes an operator feed in real time; offline we have
a recorded (or simulated) day.  :class:`StreamReplayer` bridges the two:
it feeds records into a :class:`~repro.stream.StreamingQueueMonitor`,
pacing wall-clock sleeps so one stream-second takes ``1/speedup`` real
seconds.  With ``speedup=None`` the replay runs flat out (warm-up,
benchmarks, tests).

**Ordering contract.**  Pacing and the monitor's slot clock assume a
monotonically non-decreasing timestamp sequence.  A list input is put
in :func:`replay_order` up front, the one order every replay of a day
uses (``serve``, the conformance paths, the golden fixtures); a *live*
iterator cannot be sorted, so a disordered feed must be fronted by a
:class:`~repro.resilience.ReorderBuffer` (the ``reorder`` argument):
raw records then pass through the buffer and the monitor — and the
pacer — only ever see the buffer's ordered releases.  Without a buffer,
an out-of-order record is fed as-is but the pacing clock refuses to
move backwards (otherwise one stale timestamp would first burst, then
over-sleep the gap back to the present — the silent mis-pacing this
contract exists to prevent) and the ``replay.nonmonotonic_records``
counter records the violation.

**Durability.**  A :class:`~repro.resilience.ServiceCheckpointer` can
be attached; the replayer calls it at record boundaries and, after a
restore, fast-forwards ``skip_records`` source records so the resumed
run continues bit-identically.  An exception escaping the feed loop
(e.g. an injected crash from :class:`~repro.resilience.ChaosStream`)
is captured in :attr:`error` and counted in ``replay.crashes`` instead
of killing the thread silently; the serving layer keeps answering from
the last-good snapshot.

The monitor's subscribers (the snapshot store) receive finalized slots
as a side effect of ``feed``; the replayer itself only paces, counts and
exposes progress through the metrics registry.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.service.metrics import MetricsRegistry
from repro.stream.monitor import StreamingQueueMonitor
from repro.trace.record import MdtRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.checkpoint import ServiceCheckpointer
    from repro.resilience.reorder import ReorderBuffer

#: Never sleep longer than this per gap, whatever the speedup — a dead
#: stretch in the feed should not freeze the serving layer's progress
#: reporting for minutes.
MAX_SLEEP_S = 5.0


def replay_order(records: Iterable[MdtRecord]) -> List[MdtRecord]:
    """A day's records in the order a replay feeds them.

    Stable by timestamp: one taxi's same-second records keep the order
    the batch engine read them in (tier 1's cleaned rows are grouped
    by taxi and time-ordered within each taxi).
    """
    return sorted(records, key=lambda r: r.ts)


class _WindowAccounting:
    """Per-window stage-second accumulator for the replay trace.

    A streaming "window" runs from one slot-finalization event to the
    next; there is no open-span interval to bracket with ``with``
    blocks, so the replayer accumulates stage seconds here and emits
    the finished window as one pre-measured trace
    (:meth:`~repro.obs.Tracer.emit_window`).  Sleep time spent pacing
    is deliberately *not* accounted — the trace shows work, not waits.
    """

    __slots__ = (
        "tracer",
        "has_reorder",
        "has_checkpointer",
        "index",
        "start_wall",
        "records",
        "slots",
        "ingest_s",
        "reorder_s",
        "publish_s",
        "checkpoint_s",
    )

    def __init__(self, tracer, has_reorder: bool, has_checkpointer: bool):
        self.tracer = tracer
        self.has_reorder = has_reorder
        self.has_checkpointer = has_checkpointer
        self.index = 0
        self._reset()

    def _reset(self) -> None:
        self.start_wall = time.time()
        self.records = 0
        self.slots = 0
        self.ingest_s = 0.0
        self.reorder_s = 0.0
        self.publish_s = 0.0
        self.checkpoint_s = 0.0

    def emit(self) -> None:
        """Flush the window as one ``stream.window`` trace."""
        from repro.obs.tracer import worker_span

        at = self.start_wall
        children = []
        if self.has_reorder:
            children.append(
                worker_span("stage.reorder", at, self.reorder_s, {})
            )
        children.append(
            worker_span(
                "stage.ingest", at, self.ingest_s, {"records": self.records}
            )
        )
        children.append(
            worker_span(
                "stage.publish", at, self.publish_s, {"slots": self.slots}
            )
        )
        if self.has_checkpointer:
            children.append(
                worker_span("stage.checkpoint", at, self.checkpoint_s, {})
            )
        total = (
            self.ingest_s + self.reorder_s + self.publish_s
            + self.checkpoint_s
        )
        self.tracer.emit_window(
            "stream.window",
            at,
            total,
            {
                "window": self.index,
                "records": self.records,
                "slots": self.slots,
            },
            children,
        )
        self.index += 1
        self._reset()


class StreamReplayer:
    """Drive a monitor from recorded history at a configurable speedup.

    Args:
        monitor: the streaming monitor to feed (subscribers attached).
        records: the day's records.  A sequence is put in
            :func:`replay_order`; any other iterable is consumed lazily
            and must either be time-ordered or fronted by ``reorder``.
        speedup: stream-seconds per wall-second (e.g. 600 replays a day
            in ~2.4 minutes); None disables pacing entirely.
        metrics: optional registry; maintains ``replay.records`` /
            ``replay.slots_finalized`` / ``replay.nonmonotonic_records``
            / ``replay.crashes`` counters and the
            ``replay.stream_clock`` gauge.
        reorder: optional disorder-tolerant ingest buffer; raw records
            pass through it and only its ordered releases reach the
            monitor and the pacer.
        checkpointer: optional service checkpointer, invoked at record
            boundaries (see its ``every_records`` cadence).
        skip_records: source records to fast-forward without feeding,
            used to resume from a restored checkpoint.
        tracer: optional :class:`repro.obs.Tracer`; one
            ``stream.window`` trace (reorder/ingest/publish/checkpoint
            stage children) is emitted per slot-finalization window.
            No-op by default.
    """

    def __init__(
        self,
        monitor: StreamingQueueMonitor,
        records: Iterable[MdtRecord],
        speedup: Optional[float] = 600.0,
        metrics: Optional[MetricsRegistry] = None,
        reorder: Optional["ReorderBuffer"] = None,
        checkpointer: Optional["ServiceCheckpointer"] = None,
        skip_records: int = 0,
        tracer=None,
    ):
        if speedup is not None and speedup <= 0:
            raise ValueError("speedup must be positive (or None)")
        if skip_records < 0:
            raise ValueError("skip_records must be non-negative")
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER as tracer
        self.tracer = tracer
        self.monitor = monitor
        if isinstance(records, Sequence):
            self.records: Iterable[MdtRecord] = replay_order(records)
        else:
            self.records = records
        self.speedup = speedup
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.reorder = reorder
        self.checkpointer = checkpointer
        self.skip_records = int(skip_records)
        self.error: Optional[BaseException] = None
        """The exception that aborted the last :meth:`run`, if any."""
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.finished = threading.Event()
        """Set once the full stream was replayed and finalized; stays
        unset when the replay is stopped early or crashed."""

    # -- synchronous core --------------------------------------------------------

    def run(self) -> int:
        """Replay every record (blocking); returns finalized-slot count.

        The monitor's :meth:`finish` is called at end of stream, so the
        tail slots (still inside the grace period) are flushed and the
        snapshot converges to the batch result.
        """
        finalized = 0
        records_counter = self.metrics.counter("replay.records")
        slots_counter = self.metrics.counter("replay.slots_finalized")
        nonmono_counter = self.metrics.counter("replay.nonmonotonic_records")
        clock_gauge = self.metrics.gauge("replay.stream_clock")
        pacing_clock: Optional[float] = None
        position = 0
        # Window accounting only exists when tracing is on, so the
        # untraced hot path pays no clock reads at all.
        acct = (
            _WindowAccounting(
                self.tracer,
                has_reorder=self.reorder is not None,
                has_checkpointer=self.checkpointer is not None,
            )
            if self.tracer.enabled
            else None
        )
        try:
            for record in self.records:
                if self._stop.is_set():
                    break
                position += 1
                if position <= self.skip_records:
                    continue
                if self.reorder is not None:
                    t0 = time.perf_counter() if acct else 0.0
                    batch = self.reorder.feed(record)
                    if acct:
                        acct.reorder_s += time.perf_counter() - t0
                else:
                    batch = [record]
                for release in batch:
                    if self.speedup is not None and pacing_clock is not None:
                        gap = (release.ts - pacing_clock) / self.speedup
                        if gap > 1e-3:
                            self._stop.wait(min(gap, MAX_SLEEP_S))
                    if pacing_clock is None or release.ts > pacing_clock:
                        pacing_clock = release.ts
                    elif release.ts < pacing_clock and self.reorder is None:
                        nonmono_counter.inc()
                    t0 = time.perf_counter() if acct else 0.0
                    closed = len(self.monitor.feed(release))
                    if acct:
                        # A closing feed call runs finalization and the
                        # snapshot publish subscribers; attribute it to
                        # the publish stage, plain feeds to ingest.
                        dt = time.perf_counter() - t0
                        if closed:
                            acct.publish_s += dt
                            acct.slots += closed
                        else:
                            acct.ingest_s += dt
                    if closed:
                        slots_counter.inc(closed)
                    finalized += closed
                records_counter.inc()
                if acct:
                    acct.records += 1
                if pacing_clock is not None:
                    clock_gauge.set(pacing_clock)
                if self.checkpointer is not None:
                    t0 = time.perf_counter() if acct else 0.0
                    self.checkpointer.maybe_checkpoint(position)
                    if acct:
                        acct.checkpoint_s += time.perf_counter() - t0
                if acct and acct.slots:
                    acct.emit()
            if not self._stop.is_set():
                if self.reorder is not None:
                    for release in self.reorder.flush():
                        t0 = time.perf_counter() if acct else 0.0
                        closed = len(self.monitor.feed(release))
                        if acct:
                            dt = time.perf_counter() - t0
                            if closed:
                                acct.publish_s += dt
                                acct.slots += closed
                            else:
                                acct.ingest_s += dt
                        if closed:
                            slots_counter.inc(closed)
                        finalized += closed
                t0 = time.perf_counter() if acct else 0.0
                closed = len(self.monitor.finish())
                if acct:
                    acct.publish_s += time.perf_counter() - t0
                    acct.slots += closed
                if closed:
                    slots_counter.inc(closed)
                finalized += closed
                if acct and (acct.records or acct.slots):
                    acct.emit()
                self.finished.set()
        except Exception as exc:
            # A dead feed (or an injected crash) must not take the
            # serving layer down with it: record the failure and leave
            # the snapshot store answering with its last-good state.
            self.error = exc
            self.metrics.counter("replay.crashes").inc()
        return finalized

    # -- background operation ----------------------------------------------------

    def start(self) -> threading.Thread:
        """Run the replay in a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.run, name="queue-state-replay", daemon=True
            )
            self._thread.start()
        return self._thread

    def stop(self) -> None:
        """Ask a background replay to stop and wait for it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
