"""Tests for checkpoint/restore, up to golden kill-and-resume recovery.

``TestGoldenCrashRecovery`` is the headline guarantee: the service is
killed mid-stream at five seeded offsets of the committed golden day,
restored from its newest checkpoint into a fresh stack, and the resumed
run must converge to the *byte-identical* serving state (including the
snapshot version) pinned in ``tests/data/golden_streaming.json``.
"""

import json
import pickle
import random
from pathlib import Path

import pytest

from repro.resilience import (
    ChaosStream,
    CheckpointManager,
    FaultPlan,
    InjectedCrash,
    ReorderBuffer,
    ServiceCheckpointer,
)
from repro.conformance.canonical import streaming_state
from repro.service.metrics import MetricsRegistry
from repro.service.replay import StreamReplayer
from repro.trace.log_store import MdtLogStore
from tests._golden import golden_engine, streaming_bootstrap
from tests.test_resilience_chaos import make_monitor, pickup_stream

DATA_DIR = Path(__file__).parent / "data"

#: How often the crash-recovery runs checkpoint (in source records).
CADENCE = 500


class TestCheckpointManager:
    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        payload = {"kind": "test", "value": [1, 2.5, "three"]}
        path = manager.save(payload)
        assert path.exists()
        assert manager.load_latest() == payload

    def test_latest_wins(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"n": 1})
        manager.save({"n": 2})
        assert manager.load_latest() == {"n": 2}

    def test_retention_prunes_oldest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for n in range(5):
            manager.save({"n": n})
        assert len(manager.paths()) == 2
        assert manager.load_latest() == {"n": 4}

    def test_no_temp_files_left_behind(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"n": 1})
        leftovers = [
            p for p in tmp_path.iterdir() if not p.name.endswith(".ckpt")
        ]
        assert leftovers == []

    def test_truncated_checkpoint_skipped(self, tmp_path):
        metrics = MetricsRegistry()
        manager = CheckpointManager(tmp_path, metrics=metrics)
        manager.save({"n": 1})
        newest = manager.save({"n": 2})
        newest.write_bytes(newest.read_bytes()[:-5])
        assert manager.load_latest() == {"n": 1}
        assert metrics.snapshot()["counters"]["checkpoint.corrupt"] == 1

    def test_bit_flip_detected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"n": 1})
        newest = manager.save({"n": 2})
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))
        assert manager.load_latest() == {"n": 1}

    def test_foreign_file_ignored(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        (tmp_path / "checkpoint-99999999.ckpt").write_bytes(
            pickle.dumps({"n": "raw pickle, no envelope"})
        )
        assert manager.load_latest() is None
        manager.save({"n": 1})
        assert manager.load_latest() == {"n": 1}

    def test_empty_directory_is_cold_start(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_find_filters_by_predicate(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        manager.save({"kind": "a", "n": 1})
        manager.save({"kind": "b", "n": 2})
        manager.save({"kind": "a", "n": 3})
        assert manager.find(lambda p: p.get("kind") == "b") == {
            "kind": "b",
            "n": 2,
        }
        assert manager.find(lambda p: p.get("kind") == "c") is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)

    def test_save_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        manager = CheckpointManager(tmp_path, metrics=metrics)
        manager.save({"n": 1})
        snap = metrics.snapshot()
        assert snap["counters"]["checkpoint.saved"] == 1
        assert snap["gauges"]["checkpoint.bytes"] > 0


class TestServiceCheckpointer:
    def _stack(self, tmp_path, every_records=10):
        monitor = make_monitor()
        from repro.core.types import TimeSlotGrid
        from repro.service.snapshot import SnapshotStore

        store = SnapshotStore(monitor.spots, TimeSlotGrid(0.0, 7200.0, 1800.0))
        monitor.subscribe(store.apply)
        checkpointer = ServiceCheckpointer(
            CheckpointManager(tmp_path),
            monitor,
            store,
            every_records=every_records,
        )
        return monitor, store, checkpointer

    def test_cadence(self, tmp_path):
        _, _, checkpointer = self._stack(tmp_path, every_records=10)
        assert checkpointer.maybe_checkpoint(7) is None
        assert checkpointer.maybe_checkpoint(10) is not None
        assert checkpointer.maybe_checkpoint(11) is None

    def test_invalid_cadence(self, tmp_path):
        monitor, store, _ = self._stack(tmp_path)
        with pytest.raises(ValueError):
            ServiceCheckpointer(
                CheckpointManager(tmp_path), monitor, store, every_records=0
            )

    def test_restore_without_checkpoint_is_cold_start(self, tmp_path):
        _, _, checkpointer = self._stack(tmp_path)
        assert checkpointer.restore_latest() is None

    def test_roundtrip_restores_monitor_and_store(self, tmp_path):
        records = pickup_stream(0.0, 30)
        monitor, store, checkpointer = self._stack(tmp_path)
        cut = len(records) // 2
        for record in records[:cut]:
            monitor.feed(record)
        checkpointer.checkpoint(cut)
        version_at_cut = store.version

        monitor2, store2, checkpointer2 = self._stack(tmp_path)
        assert checkpointer2.restore_latest() == cut
        assert store2.version == version_at_cut
        # Resume both and they stay in lock-step.
        for record in records[cut:]:
            assert monitor.feed(record) == monitor2.feed(record)
        assert monitor.finish() == monitor2.finish()
        assert streaming_state(store2) == streaming_state(store)

    def test_restore_skips_parallel_stage_checkpoints(self, tmp_path):
        records = pickup_stream(0.0, 10)
        monitor, store, checkpointer = self._stack(tmp_path)
        for record in records:
            monitor.feed(record)
        checkpointer.checkpoint(len(records))
        # A newer checkpoint of another kind in the same directory: the
        # stage checkpoints older versions' `detect --checkpoint-dir`
        # wrote.
        checkpointer.manager.save(
            {"kind": "parallel-stage", "stage": "tier1", "result": None}
        )
        _, _, checkpointer2 = self._stack(tmp_path)
        assert checkpointer2.restore_latest() == len(records)

    def test_restore_skips_the_old_monitor_layout(self, tmp_path):
        monitor, store, checkpointer = self._stack(tmp_path)
        # The last taxi's pickup is still open: its scan state is held.
        for record in pickup_stream(0.0, 10)[:-1]:
            monitor.feed(record)
        checkpointer.manager.save(old_layout_payload(monitor, store, 39))
        _, _, checkpointer2 = self._stack(tmp_path)
        assert checkpointer2.restore_latest() is None


def old_layout_payload(monitor, store, stream_pos):
    """A service checkpoint as written while the monitor scanned one
    record at a time: its state held every seen taxi's ``(phi1,
    candidate rows, previous row)`` under ``"pea"``, and no held
    tails."""
    state = monitor.export_state()
    tails = state.pop("tails")
    return {
        "kind": "service",
        "stream_pos": stream_pos,
        "monitor": {
            "pea": {row.taxi_id: (True, None, row) for row in tails.iter_rows()},
            **state,
        },
        "store": store.export_state(),
        "reorder": None,
        "history": None,
    }


@pytest.fixture(scope="module")
def golden_boot():
    store = MdtLogStore.from_csv(DATA_DIR / "golden_day.csv")
    return streaming_bootstrap(golden_engine(store), store)


@pytest.fixture(scope="module")
def golden_streaming_fixture():
    return json.loads((DATA_DIR / "golden_streaming.json").read_text())


def canonical(state):
    """JSON round-trip so in-memory and committed states compare
    byte-for-byte (tuples become lists etc.)."""
    return json.loads(json.dumps(state, sort_keys=True))


class TestGoldenCrashRecovery:
    def test_uninterrupted_run_matches_fixture(
        self, golden_boot, golden_streaming_fixture
    ):
        boot, records = golden_boot
        monitor, snapshot = boot.build_stack()
        replayer = StreamReplayer(monitor, records, speedup=None)
        replayer.run()
        assert replayer.finished.is_set()
        assert canonical(streaming_state(snapshot)) == golden_streaming_fixture

    @pytest.mark.parametrize("kill_seed", [0, 1, 2, 3, 4])
    def test_kill_and_restore_is_bit_identical(
        self, kill_seed, tmp_path, golden_boot, golden_streaming_fixture
    ):
        boot, records = golden_boot
        offset = random.Random(kill_seed).randrange(1, len(records))

        # Run with periodic checkpoints until the injected kill.
        monitor, snapshot = boot.build_stack()
        manager = CheckpointManager(tmp_path)
        checkpointer = ServiceCheckpointer(
            manager, monitor, snapshot, every_records=CADENCE
        )
        replayer = StreamReplayer(
            monitor,
            ChaosStream(records, FaultPlan(crash_after=offset)),
            speedup=None,
            checkpointer=checkpointer,
        )
        replayer.run()
        assert isinstance(replayer.error, InjectedCrash)
        assert not replayer.finished.is_set()

        # Restore the newest checkpoint into a fresh stack and resume.
        monitor2, snapshot2 = boot.build_stack()
        checkpointer2 = ServiceCheckpointer(
            manager, monitor2, snapshot2, every_records=CADENCE
        )
        resumed_from = checkpointer2.restore_latest()
        if offset >= CADENCE:
            assert resumed_from == (offset // CADENCE) * CADENCE
        else:
            assert resumed_from is None  # cold start before 1st checkpoint
        replayer2 = StreamReplayer(
            monitor2,
            records,
            speedup=None,
            checkpointer=checkpointer2,
            skip_records=resumed_from or 0,
        )
        replayer2.run()
        assert replayer2.finished.is_set()
        assert (
            canonical(streaming_state(snapshot2)) == golden_streaming_fixture
        )
