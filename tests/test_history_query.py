"""The online query engine over the durable history.

The per-day segment cache is the key contract: a warm engine, however
its queries and writes interleave, answers exactly what a fresh engine
over the same directory answers, and a rewrite of one day re-reads that
day alone.
"""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import QueueType
from repro.history import (
    DaySegment,
    HistoryQueryEngine,
    QueryError,
    SegmentStore,
    SlotRecord,
)
from repro.service.metrics import MetricsRegistry
from tests.test_history_store import make_records, make_segment, make_spots


def seeded_store(tmp_path, days=(700, 701, 702, 703), n_spots=3):
    store = SegmentStore(tmp_path)
    for day in days:
        store.write_day(make_segment(day, spots=make_spots(n_spots), seed=day))
    return store


class TestSpotHistory:
    def test_records_paginated_across_days(self, tmp_path):
        store = seeded_store(tmp_path)
        engine = HistoryQueryEngine(store)
        page1 = engine.spot_history("QS000", per_page=10, page=1)
        assert page1["total_items"] == 4 * 6  # 4 days x 6 slots
        assert len(page1["items"]) == 10
        page3 = engine.spot_history("QS000", per_page=10, page=3)
        assert len(page3["items"]) == 4
        # Pages partition the ordered record list without overlap.
        page2 = engine.spot_history("QS000", per_page=10, page=2)
        keys = [
            (item["day"], item["slot"])
            for page in (page1, page2, page3)
            for item in page["items"]
        ]
        assert len(keys) == len(set(keys)) == 24
        assert keys == sorted(keys)
        assert page1["spot"]["zone"] == "Z0"

    def test_day_range_filter(self, tmp_path):
        store = seeded_store(tmp_path)
        engine = HistoryQueryEngine(store)
        payload = engine.spot_history("QS000", start_day=701, end_day=702)
        assert {item["day"] for item in payload["items"]} == {701, 702}

    def test_unknown_spot_is_none(self, tmp_path):
        engine = HistoryQueryEngine(seeded_store(tmp_path))
        assert engine.spot_history("NOPE") is None
        assert engine.spot_profile("NOPE") is None

    def test_downsample_folds_consecutive_slots(self, tmp_path):
        store = SegmentStore(tmp_path)
        spots = make_spots(1)
        records = [
            SlotRecord(
                spot_id="QS000", slot=slot,
                label=QueueType.C1 if slot < 2 else QueueType.C4,
                routine=1, mean_wait_s=float(10 * slot),
                n_arrivals=2.0, queue_length=1.0,
                mean_departure_interval_s=30.0, n_departures=1.0,
            )
            for slot in range(4)
        ]
        store.write_day(
            DaySegment(
                day=710, day_of_week=2, slot_seconds=1800.0,
                spots=spots, records=records,
            )
        )
        payload = HistoryQueryEngine(store).spot_history(
            "QS000", downsample=4
        )
        assert len(payload["items"]) == 1
        item = payload["items"][0]
        assert item["slots"] == 4
        # 2 C1 vs 2 C4: the earliest-slot label wins the tie.
        assert item["queue_type"] == QueueType.C1.value
        assert item["mean_wait_s"] == pytest.approx((0 + 10 + 20 + 30) / 4)
        assert item["time"] == "00:00-02:00"

    def test_downsample_skips_missing_wait(self, tmp_path):
        store = SegmentStore(tmp_path)
        spots = make_spots(1)
        records = [
            SlotRecord(
                spot_id="QS000", slot=slot, label=QueueType.C2, routine=1,
                mean_wait_s=None if slot == 0 else 20.0,
                n_arrivals=1.0, queue_length=0.0,
                mean_departure_interval_s=0.0, n_departures=0.0,
            )
            for slot in range(2)
        ]
        store.write_day(
            DaySegment(
                day=711, day_of_week=0, slot_seconds=1800.0,
                spots=spots, records=records,
            )
        )
        item = HistoryQueryEngine(store).spot_history(
            "QS000", downsample=2
        )["items"][0]
        assert item["mean_wait_s"] == pytest.approx(20.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"page": 0},
            {"per_page": 0},
            {"per_page": 10_001},
            {"downsample": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, tmp_path, kwargs):
        engine = HistoryQueryEngine(seeded_store(tmp_path))
        with pytest.raises(QueryError):
            engine.spot_history("QS000", **kwargs)


class TestCitywide:
    def test_per_day_summaries(self, tmp_path):
        store = seeded_store(tmp_path, days=(720, 721))
        payload = HistoryQueryEngine(store).citywide()
        assert payload["count"] == 2
        day = payload["days"][0]
        assert day["day"] == 720
        assert day["spots"] == 3
        assert day["zone_counts"] == {"Z0": 2, "Z1": 1}
        assert day["finalized_slot_results"] == 18
        assert sum(day["proportions"].values()) == pytest.approx(1.0)

    def test_day_range(self, tmp_path):
        store = seeded_store(tmp_path)
        payload = HistoryQueryEngine(store).citywide(
            start_day=701, end_day=702
        )
        assert [d["day"] for d in payload["days"]] == [701, 702]

    def test_corrupt_day_listed_not_raised(self, tmp_path):
        store = seeded_store(tmp_path, days=(730, 731))
        store.path_of(730).write_bytes(b"garbage")
        payload = HistoryQueryEngine(store).citywide()
        assert [d["day"] for d in payload["days"]] == [731]
        assert payload["corrupt_days"] == [730]

    def test_repaired_day_leaves_corrupt_days(self, tmp_path):
        store = seeded_store(tmp_path, days=(732, 733))
        intact = store.path_of(733).read_bytes()
        for day in (732, 733):
            store.path_of(day).write_bytes(b"garbage")
        engine = HistoryQueryEngine(store)
        assert engine.citywide()["corrupt_days"] == [732, 733]
        # Repaired by a rewrite ...
        store.write_day(make_segment(732, spots=make_spots(3), seed=732))
        payload = engine.citywide()
        assert [d["day"] for d in payload["days"]] == [732]
        assert payload["corrupt_days"] == [733]
        # ... or by an operator restoring the file.
        store.path_of(733).write_bytes(intact)
        payload = engine.patterns()
        assert payload["days"] == [732, 733]
        assert payload["corrupt_days"] == []


class TestPatternDeterminism:
    """patterns() folds the intact days on disk into exact counts."""

    def test_patterns_payload_shape(self, tmp_path):
        store = seeded_store(tmp_path, days=(760, 761))  # Wed, Thu
        payload = HistoryQueryEngine(store).patterns()
        assert payload["day_count"] == 2
        assert payload["spot_count"] == 3
        dows = {day % 7 for day in (760, 761)}
        from repro.history.query import DOW_NAMES

        for zone, per_dow in payload["zone_spots"].items():
            assert set(per_dow) == {DOW_NAMES[d] for d in dows}
            for cell in per_dow.values():
                assert cell["total_spots"] == cell["days"] * cell["mean_spots"]
        for mix in payload["queue_type_mix"].values():
            if mix["finalized_slot_results"]:
                assert sum(mix["proportions"].values()) == pytest.approx(
                    1.0, abs=1e-5
                )


class TestSpotProfile:
    def test_profile_majority_and_counts(self, tmp_path):
        store = SegmentStore(tmp_path)
        spots = make_spots(1)
        # Two Mondays: slot 0 is C1 twice; slot 1 splits C1/C4.
        for day, slot1_label in ((770, QueueType.C1), (777, QueueType.C4)):
            store.write_day(
                DaySegment(
                    day=day, day_of_week=0, slot_seconds=1800.0,
                    spots=spots,
                    records=[
                        SlotRecord(
                            spot_id="QS000", slot=0, label=QueueType.C1,
                            routine=1, mean_wait_s=None, n_arrivals=0.0,
                            queue_length=0.0,
                            mean_departure_interval_s=0.0, n_departures=0.0,
                        ),
                        SlotRecord(
                            spot_id="QS000", slot=1, label=slot1_label,
                            routine=1, mean_wait_s=None, n_arrivals=0.0,
                            queue_length=0.0,
                            mean_departure_interval_s=0.0, n_departures=0.0,
                        ),
                    ],
                )
            )
        profile = HistoryQueryEngine(store).spot_profile("QS000")
        monday = profile["profile"]["Mon"]
        assert monday["0"]["counts"] == {QueueType.C1.value: 2}
        assert monday["0"]["majority"] == QueueType.C1.value
        assert monday["1"]["counts"] == {
            QueueType.C1.value: 1,
            QueueType.C4.value: 1,
        }
        assert profile["spot"]["zone"] == "Z0"
        assert "day" not in profile["spot"]


class TestEngineCacheAndMetrics:
    def test_segment_cache_invalidated_on_write(self, tmp_path):
        store = seeded_store(tmp_path, days=(780,))
        engine = HistoryQueryEngine(store)
        before = engine.spot_history("QS000")["total_items"]
        spots = make_spots(3)
        store.write_day(
            DaySegment(
                day=780, day_of_week=780 % 7, slot_seconds=1800.0,
                spots=spots,
                records=make_records(spots, slots=2),
            )
        )
        after = engine.spot_history("QS000")["total_items"]
        assert (before, after) == (6, 2)
        assert engine.version == store.version

    def test_rewrite_rereads_only_its_day(self, tmp_path):
        days = (781, 782, 783, 784)
        store = seeded_store(tmp_path, days=days)
        engine = HistoryQueryEngine(store)
        engine.patterns()
        reads = []
        read_day = store.read_day

        def counting_read_day(day):
            reads.append(day)
            return read_day(day)

        store.read_day = counting_read_day
        engine.patterns()
        assert reads == []
        store.write_day(make_segment(782, spots=make_spots(3), seed=1))
        engine.patterns()
        assert reads == [782]

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("write"),
                    st.integers(0, 3),  # day offset
                    st.integers(1, 4),  # spots
                    st.integers(0, 5),  # label seed
                ),
                st.tuples(
                    st.sampled_from(
                        ["patterns", "citywide", "profile", "history"]
                    ),
                    st.integers(0, 4),  # spot index
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_warm_engine_answers_like_a_fresh_one(self, ops):
        def query(engine, op):
            kind = op[0]
            spot_id = f"QS{op[1]:03d}"
            if kind == "patterns":
                payload = engine.patterns()
            elif kind == "citywide":
                payload = engine.citywide()
            elif kind == "profile":
                payload = engine.spot_profile(spot_id)
            else:
                payload = engine.spot_history(spot_id, per_page=1000)
            return json.dumps(payload, sort_keys=True)

        with tempfile.TemporaryDirectory() as directory:
            store = SegmentStore(directory)
            warm = HistoryQueryEngine(store)
            for op in ops:
                if op[0] == "write":
                    _, offset, n_spots, seed = op
                    store.write_day(
                        make_segment(
                            800 + offset, spots=make_spots(n_spots),
                            seed=seed,
                        )
                    )
                    continue
                fresh = HistoryQueryEngine(SegmentStore(directory))
                assert query(warm, op) == query(fresh, op)

    def test_query_metrics_observed(self, tmp_path):
        metrics = MetricsRegistry()
        store = seeded_store(tmp_path, days=(790,))
        engine = HistoryQueryEngine(store, metrics=metrics)
        engine.patterns()
        engine.citywide()
        engine.spot_history("QS000")
        snap = metrics.snapshot()
        assert snap["counters"]["history.queries"] == 3
        assert snap["histograms"]["history.query_seconds"]["count"] == 3
