"""Tests for calendar partitioning of log stores."""

import pytest

from repro.states.states import TaxiState
from repro.trace.log_store import MdtLogStore
from repro.trace.partition import day_of_week_of, split_by_day
from repro.trace.record import MdtRecord, parse_timestamp


def rec(ts, taxi="A"):
    return MdtRecord(ts, taxi, 103.8, 1.33, 10.0, TaxiState.FREE)


class TestDayOfWeek:
    def test_epoch_is_thursday(self):
        assert day_of_week_of(0.0) == 3

    def test_known_date(self):
        # 2008-08-01 was a Friday.
        ts = parse_timestamp("01/08/2008 12:00:00")
        assert day_of_week_of(ts) == 4

    def test_next_day_increments(self):
        ts = parse_timestamp("01/08/2008 00:00:00")
        assert day_of_week_of(ts + 86400.0) == (day_of_week_of(ts) + 1) % 7


class TestSplitByDay:
    def test_empty_store(self):
        assert split_by_day(MdtLogStore()) == []

    def test_single_day(self):
        base = parse_timestamp("01/08/2008 00:00:00")
        store = MdtLogStore([rec(base + 100), rec(base + 80_000)])
        parts = split_by_day(store)
        assert len(parts) == 1
        assert parts[0].day_start_ts == base
        assert parts[0].day_of_week == 4
        assert len(parts[0].store) == 2

    def test_multi_day_split(self):
        base = parse_timestamp("01/08/2008 00:00:00")
        store = MdtLogStore(
            [rec(base + 10), rec(base + 86400 + 10), rec(base + 2 * 86400 + 10)]
        )
        parts = split_by_day(store)
        assert len(parts) == 3
        assert [p.day_of_week for p in parts] == [4, 5, 6]
        assert all(len(p.store) == 1 for p in parts)

    def test_gap_days_skipped(self):
        base = parse_timestamp("01/08/2008 00:00:00")
        store = MdtLogStore([rec(base + 10), rec(base + 3 * 86400 + 10)])
        parts = split_by_day(store)
        assert len(parts) == 2
        assert parts[1].day_start_ts == base + 3 * 86400

    def test_midnight_record_belongs_to_new_day(self):
        base = parse_timestamp("02/08/2008 00:00:00")
        store = MdtLogStore([rec(base - 1.0), rec(base)])
        parts = split_by_day(store)
        assert len(parts) == 2
        assert parts[1].day_start_ts == base

    def test_partition_covers_all_records(self):
        base = parse_timestamp("01/08/2008 00:00:00")
        records = [rec(base + i * 7000.0) for i in range(40)]
        store = MdtLogStore(records)
        parts = split_by_day(store)
        assert sum(len(p.store) for p in parts) == len(records)

    def test_day_end(self):
        base = parse_timestamp("01/08/2008 00:00:00")
        part = split_by_day(MdtLogStore([rec(base)]))[0]
        assert part.day_end_ts == base + 86400.0

