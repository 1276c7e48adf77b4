"""Segment store, the pattern fold, and crash-safety.

The kill tests at the bottom pin the atomic segment write: a kill
inside a segment flush leaves the previous generation on disk, intact.
"""

import random

import pytest

from repro.core.types import QueueSpot, QueueType
from repro.history import (
    DaySegment,
    SegmentStore,
    SlotRecord,
    empty_aggregate,
    fold_segment,
)
from repro.service.metrics import MetricsRegistry


def make_spots(n=3, zone_of=lambda i: f"Z{i % 2}"):
    return [
        QueueSpot(
            spot_id=f"QS{i:03d}",
            lon=103.8 + i * 0.01,
            lat=1.3,
            zone=zone_of(i),
            pickup_count=50 + i,
            radius_m=40.0,
        )
        for i in range(n)
    ]


def make_records(spots, slots=6, label=QueueType.C2, seed=0):
    rng = random.Random(seed)
    labels = sorted(QueueType, key=lambda q: q.value)
    return [
        SlotRecord(
            spot_id=spot.spot_id,
            slot=slot,
            label=rng.choice(labels) if label is None else label,
            routine=1,
            mean_wait_s=30.0 + slot,
            n_arrivals=float(slot),
            queue_length=1.0,
            mean_departure_interval_s=45.0,
            n_departures=2.0,
        )
        for spot in spots
        for slot in range(slots)
    ]


def make_segment(day, spots=None, dow=None, seed=None):
    spots = spots if spots is not None else make_spots()
    return DaySegment(
        day=day,
        day_of_week=day % 7 if dow is None else dow,
        slot_seconds=1800.0,
        spots=spots,
        records=make_records(
            spots, label=None if seed is not None else QueueType.C2,
            seed=seed or 0,
        ),
    )


class TestSegmentStore:
    def test_write_read_round_trip(self, tmp_path):
        store = SegmentStore(tmp_path)
        segment = make_segment(day=14000)
        store.write_day(segment)
        loaded = store.read_day(14000)
        assert loaded.day == 14000
        assert loaded.day_of_week == segment.day_of_week
        assert loaded.spots == segment.spots
        assert loaded.records == segment.records

    def test_days_listing_and_version(self, tmp_path):
        store = SegmentStore(tmp_path)
        assert store.days() == []
        assert store.version == 0
        store.write_day(make_segment(3))
        store.write_day(make_segment(1))
        store.write_day(make_segment(3))  # rewrite bumps again
        assert store.days() == [1, 3]
        assert store.version == 3
        # Each day carries the version of its last write.
        assert (store.day_version(1), store.day_version(3)) == (2, 3)
        assert store.day_version(99) == 0

    def test_missing_day_is_none(self, tmp_path):
        assert SegmentStore(tmp_path).read_day(999) is None

    def test_corrupt_segment_skipped_with_accounting(self, tmp_path):
        metrics = MetricsRegistry()
        store = SegmentStore(tmp_path, metrics=metrics)
        store.write_day(make_segment(5))
        store.write_day(make_segment(6))
        raw = bytearray(store.path_of(5).read_bytes())
        raw[len(raw) // 2] ^= 0x40
        store.path_of(5).write_bytes(bytes(raw))

        assert store.read_day(5) is None
        assert [s.day for s in store.read_all()] == [6]
        assert 5 in store.corrupt_days
        counters = metrics.snapshot()["counters"]
        assert counters["history.corrupt_segments"] == 1
        # The same corrupt day is not re-counted on a second read.
        store.read_day(5)
        counters = metrics.snapshot()["counters"]
        assert counters["history.corrupt_segments"] == 1

    def test_write_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        store = SegmentStore(tmp_path, metrics=metrics)
        segment = make_segment(7)
        store.write_day(segment)
        snap = metrics.snapshot()
        assert snap["counters"]["history.segments_written"] == 1
        assert snap["counters"]["history.records_written"] == len(
            segment.records
        )
        assert snap["gauges"]["history.segment_bytes"] == store.total_bytes()
        assert store.total_bytes() == store.path_of(7).stat().st_size

    def test_stray_temp_files_ignored(self, tmp_path):
        # A real kill leaves the atomic writer's temp file behind, and
        # older versions left a weekly.agg; the store lists neither.
        store = SegmentStore(tmp_path)
        store.write_day(make_segment(2))
        (tmp_path / ".day-9.seg-abc123.tmp").write_bytes(b"torn")
        (tmp_path / "weekly.agg").write_bytes(b"left by an old version")
        assert store.days() == [2]


def fold_all(segments):
    aggregate = empty_aggregate()
    for segment in segments:
        fold_segment(aggregate, segment)
    return aggregate


class TestFoldMergeEquality:
    """The fold's counts depend only on the set of days folded."""

    def test_fold_order_independent(self):
        segments = [make_segment(day=100 + d, seed=d) for d in range(5)]
        forward = fold_all(segments)
        shuffled = list(segments)
        random.Random(9).shuffle(shuffled)
        aggregate = fold_all(shuffled)
        aggregate["days"].sort()  # in fold order; patterns() sorts it
        assert aggregate == forward

    def test_counts_are_exact(self):
        spots = make_spots(2, zone_of=lambda i: "Central")
        seg = DaySegment(
            day=200, day_of_week=4, slot_seconds=1800.0, spots=spots,
            records=make_records(spots, slots=3, label=QueueType.C1),
        )
        aggregate = fold_all([seg])
        assert aggregate["dow_days"] == {"4": 1}
        assert aggregate["zone_spots"] == {"Central": {"4": 2}}
        assert aggregate["type_counts"] == {"4": {QueueType.C1.value: 6}}
        profile = aggregate["spot_profiles"]["QS000"]["4"]
        assert profile == {
            "0": {QueueType.C1.value: 1},
            "1": {QueueType.C1.value: 1},
            "2": {QueueType.C1.value: 1},
        }


class InjectedKill(BaseException):
    """Raised by the fault hooks to simulate a hard process kill."""


class TestKilledSegmentFlush:
    """A kill inside the atomic segment write keeps the old bytes."""

    def _kill(self, monkeypatch, mode):
        """Arm one kill point inside the atomic segment write."""
        import repro.history.format as fmt

        if mode == "during_temp_write":
            real_fsync = fmt.os.fsync

            def fsync_kill(fd):
                raise InjectedKill("killed mid temp write")

            monkeypatch.setattr(fmt.os, "fsync", fsync_kill)
            return lambda: monkeypatch.setattr(fmt.os, "fsync", real_fsync)
        real_replace = fmt.os.replace

        def replace_kill(src, dst):
            raise InjectedKill("killed before rename")

        monkeypatch.setattr(fmt.os, "replace", replace_kill)
        return lambda: monkeypatch.setattr(fmt.os, "replace", real_replace)

    @pytest.mark.parametrize("mode", ["during_temp_write", "at_rename"])
    def test_killed_segment_flush_keeps_previous_generation(
        self, mode, tmp_path, monkeypatch
    ):
        store = SegmentStore(tmp_path)
        first = make_segment(500, seed=1)
        store.write_day(first)
        before = store.path_of(500).read_bytes()

        heal = self._kill(monkeypatch, mode)
        with pytest.raises(InjectedKill):
            store.write_day(make_segment(500, seed=2))
        heal()

        assert store.path_of(500).read_bytes() == before
        assert store.read_day(500).records == first.records
        # The retried flush then lands the new generation.
        second = make_segment(500, seed=2)
        store.write_day(second)
        assert store.read_day(500).records == second.records
