"""Atomic checkpoint/restore of the live streaming state.

A crash of ``taxiqueue serve`` used to lose everything the
:class:`~repro.stream.StreamingQueueMonitor` had accumulated — open PEA
candidates, bucketed wait events, finalized-slot progress and the
:class:`~repro.service.snapshot.SnapshotStore` version.  This module
makes that state durable:

* :class:`CheckpointManager` owns a checkpoint directory and writes
  each checkpoint **atomically**: payload to a temporary file in the
  same directory, ``fsync``, then ``os.rename`` over the final name (a
  reader never observes a half-written checkpoint, a crash mid-write
  leaves the previous checkpoint intact).  Every file embeds a SHA-256
  digest; a truncated or bit-flipped checkpoint is detected on load and
  skipped in favour of the next-newest good one.
* :class:`ServiceCheckpointer` composes the monitor, the snapshot
  store and (optionally) the reorder buffer into one payload keyed by
  the **stream position** (records consumed from the source), and
  restores all of them in one step so a resumed replay is bit-identical
  to an uninterrupted one.

The payload is a pickled dict — checkpoints are an internal durability
format written and read by the same trusted process.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import List, Optional, TYPE_CHECKING

from repro.service.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.history.writer import HistoryWriter
    from repro.resilience.reorder import ReorderBuffer
    from repro.service.snapshot import SnapshotStore
    from repro.stream.monitor import StreamingQueueMonitor

#: File-format magic; bump when the envelope layout changes.
MAGIC = b"TQCKPT1\n"

_NAME_RE = re.compile(r"^checkpoint-(\d{8,})\.ckpt$")


class CheckpointManager:
    """Durable, integrity-checked checkpoints in one directory.

    Args:
        directory: where checkpoints live (created if missing).
        keep: how many most-recent checkpoints to retain.
        metrics: optional registry for ``checkpoint.saved`` /
            ``checkpoint.corrupt`` counters and the
            ``checkpoint.bytes`` gauge.
    """

    def __init__(
        self,
        directory,
        keep: int = 3,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        self._metrics = metrics

    # -- writing -----------------------------------------------------------------

    def save(self, payload: dict) -> Path:
        """Write one checkpoint atomically; returns its final path."""
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        sequence = self._next_sequence()
        final = self.directory / f"checkpoint-{sequence:08d}.ckpt"
        fd, tmp_name = tempfile.mkstemp(
            prefix=".checkpoint-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(MAGIC)
                handle.write(digest)
                handle.write(b"\n")
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, final)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._fsync_directory()
        self._prune()
        if self._metrics is not None:
            self._metrics.counter("checkpoint.saved").inc()
            self._metrics.gauge("checkpoint.bytes").set(len(body))
        return final

    def _next_sequence(self) -> int:
        sequences = [self._sequence_of(path) for path in self.paths()]
        return (max(sequences) + 1) if sequences else 1

    @staticmethod
    def _sequence_of(path: Path) -> int:
        match = _NAME_RE.match(path.name)
        return int(match.group(1)) if match else -1

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _prune(self) -> None:
        paths = self.paths()
        for stale in paths[: max(0, len(paths) - self.keep)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent prune
                pass

    # -- reading -----------------------------------------------------------------

    def paths(self) -> List[Path]:
        """All checkpoint files, oldest first."""
        return sorted(
            (
                path
                for path in self.directory.glob("checkpoint-*.ckpt")
                if _NAME_RE.match(path.name)
            ),
            key=self._sequence_of,
        )

    def load_latest(self) -> Optional[dict]:
        """The newest checkpoint that passes integrity checks, or None.

        Corrupt files (torn writes, bit flips, foreign content) are
        counted and skipped, never raised: recovery degrades to the
        next-newest good checkpoint, and to a cold start when none is.
        """
        return self.find(lambda payload: True)

    def find(self, predicate) -> Optional[dict]:
        """The newest intact checkpoint satisfying ``predicate``."""
        for path in reversed(self.paths()):
            payload = self._load(path)
            if payload is None:
                if self._metrics is not None:
                    self._metrics.counter("checkpoint.corrupt").inc()
                continue
            if predicate(payload):
                return payload
        return None

    @staticmethod
    def _load(path: Path) -> Optional[dict]:
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if not raw.startswith(MAGIC):
            return None
        rest = raw[len(MAGIC):]
        newline = rest.find(b"\n")
        if newline != 64:  # hex SHA-256
            return None
        digest, body = rest[:newline], rest[newline + 1:]
        if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
            return None
        try:
            payload = pickle.loads(body)
        except Exception:
            return None
        return payload if isinstance(payload, dict) else None


class ServiceCheckpointer:
    """Periodic whole-service checkpoints at record granularity.

    Args:
        manager: the checkpoint directory owner.
        monitor: the streaming monitor whose state is captured.
        store: the snapshot store (version + finalized results).
        reorder: the ingest reorder buffer, when one is in front of
            the monitor.
        history: the durable history writer, when the service persists
            day segments; captured and restored at the same record
            boundary so segment bytes stay exactly-once.
        every_records: checkpoint cadence in consumed source records.
    """

    def __init__(
        self,
        manager: CheckpointManager,
        monitor: "StreamingQueueMonitor",
        store: "SnapshotStore",
        reorder: Optional["ReorderBuffer"] = None,
        history: Optional["HistoryWriter"] = None,
        every_records: int = 5000,
    ):
        if every_records < 1:
            raise ValueError("checkpoint cadence must be >= 1 record")
        self.manager = manager
        self.monitor = monitor
        self.store = store
        self.reorder = reorder
        self.history = history
        self.every_records = int(every_records)

    def maybe_checkpoint(self, stream_pos: int) -> Optional[Path]:
        """Checkpoint when ``stream_pos`` hits the cadence boundary."""
        if stream_pos % self.every_records == 0:
            return self.checkpoint(stream_pos)
        return None

    def checkpoint(self, stream_pos: int) -> Path:
        """Capture monitor + store (+ reorder) state at a position.

        Must be called at a record boundary from the ingest thread (the
        replayer does), so the captured states are mutually consistent.
        """
        payload = {
            "kind": "service",
            "stream_pos": int(stream_pos),
            "monitor": self.monitor.export_state(),
            "store": self.store.export_state(),
            "reorder": (
                None if self.reorder is None else self.reorder.export_state()
            ),
            "history": (
                None if self.history is None else self.history.export_state()
            ),
        }
        return self.manager.save(payload)

    def restore_latest(self) -> Optional[int]:
        """Restore the newest good checkpoint into the live objects.

        Returns:
            The stream position to resume from (records of the source
            already consumed), or None when no usable checkpoint
            exists (cold start).
        """
        payload = self.manager.find(
            lambda entry: entry.get("kind") == "service"
        )
        if payload is None:
            return None
        self.monitor.restore_state(payload["monitor"])
        self.store.restore_state(payload["store"])
        if self.reorder is not None and payload["reorder"] is not None:
            self.reorder.restore_state(payload["reorder"])
        # ``.get``: checkpoints written before the history subsystem
        # existed have no "history" slice and must keep restoring.
        history_state = payload.get("history")
        if self.history is not None and history_state is not None:
            self.history.restore_state(history_state)
        return int(payload["stream_pos"])
