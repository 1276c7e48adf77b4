"""The columnar data plane: round-trips, parity, pickling.

Three layers of guarantees:

1. **Lossless adapters** — a Hypothesis property pins
   ``RecordBatch.from_rows(rows).to_rows() == rows`` bit-for-bit
   (``array('d')`` stores exact IEEE doubles), plus pickle and store
   adapters round-tripping.
2. **Row/column parity** — cleaning and PEA over columns produce the
   same records, events and accounting as the historical row path
   (the row cleaner is the reference in ``tests/_row_cleaning.py``).
3. **Conformance pin** — the engine's columnar tier 1 is compared
   byte-for-byte against the row path (``clean_store``, the oracle's
   row PEA ``row_pickup_events`` and ``detect_from_centroids``) on the
   golden day.
"""

from __future__ import annotations

import gc
import math
import pickle
import weakref
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import RecordBatch
from repro.conformance.oracles import row_pickup_events
from repro.core.pea import (
    extract_pickup_events_batch,
    extract_pickup_events_from_columns,
)
from repro.core.spots import detect_from_centroids, pickup_centroids
from repro.states.states import STATES_BY_CODE, TaxiState
from repro.trace.cleaning import CleaningReport, clean_batch, clean_taxi_batch
from repro.trace.log_store import MdtLogStore
from repro.trace.partition import partition_batch_by_taxi
from repro.trace.record import (
    MdtRecord,
    parse_timestamp,
    parse_timestamp_cached,
)

from tests._golden import golden_engine, pipeline_snapshot
from tests._row_cleaning import clean_records, clean_store

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_day.csv"

#: Finite doubles only: a NaN field would break record equality itself,
#: and the ingest layer rejects non-finite values before they ever
#: reach a batch — NaN-freedom is an invariant of the data plane.
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

_records = st.builds(
    MdtRecord,
    ts=_finite,
    taxi_id=st.text(min_size=1, max_size=8),
    lon=_finite,
    lat=_finite,
    speed=_finite,
    state=st.sampled_from(list(TaxiState)),
)


@pytest.fixture(scope="module")
def golden_store() -> MdtLogStore:
    return MdtLogStore.from_csv(GOLDEN_CSV)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_records, max_size=60))
    def test_from_rows_to_rows_identity(self, rows):
        batch = RecordBatch.from_rows(rows)
        assert batch.to_rows() == rows
        assert len(batch) == len(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_records, max_size=60))
    def test_pickle_round_trip(self, rows):
        batch = RecordBatch.from_rows(rows)
        batch.skipped_lines = len(rows)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone == batch
        assert clone.to_rows() == rows
        assert clone.skipped_lines == batch.skipped_lines

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_records, max_size=60))
    def test_state_codes_survive_interning(self, rows):
        batch = RecordBatch.from_rows(rows)
        for i, record in enumerate(rows):
            assert STATES_BY_CODE[batch.state[i]] is record.state
            assert batch.taxi_id_at(i) == record.taxi_id
        # Interning stores each distinct id exactly once.
        assert sorted(batch.taxi_table) == sorted(
            {r.taxi_id for r in rows}
        )

    def test_store_adapters_round_trip(self, golden_store):
        batch = golden_store.to_batch()
        back = MdtLogStore.from_batch(batch)
        assert list(back.iter_records()) == list(
            golden_store.iter_records()
        )


class TestPrimitives:
    def _batch(self):
        rows = [
            MdtRecord(
                float(10 - i), f"T{i % 3}", 103.8 + i, 1.3, float(i),
                TaxiState.FREE,
            )
            for i in range(10)
        ]
        return RecordBatch.from_rows(rows), rows

    def test_slice_and_take(self):
        batch, rows = self._batch()
        assert batch.slice(2, 5).to_rows() == rows[2:5]
        assert batch.take([7, 1, 4]).to_rows() == [
            rows[7], rows[1], rows[4]
        ]

    def test_filter_mask(self):
        batch, rows = self._batch()
        mask = [i % 2 == 0 for i in range(len(rows))]
        assert batch.filter_mask(mask).to_rows() == [
            r for r, keep in zip(rows, mask) if keep
        ]
        with pytest.raises(ValueError):
            batch.filter_mask([True])

    def test_sorted_by_ts_is_stable(self):
        rows = [
            MdtRecord(1.0, "B", 0.0, 0.0, 0.0, TaxiState.FREE),
            MdtRecord(1.0, "A", 0.0, 0.0, 0.0, TaxiState.FREE),
            MdtRecord(0.0, "C", 0.0, 0.0, 0.0, TaxiState.FREE),
        ]
        ordered = RecordBatch.from_rows(rows).sorted_by_ts().to_rows()
        assert ordered == [rows[2], rows[0], rows[1]]

    def test_partition_fallback_matches_store_order(self, golden_store):
        grouped = golden_store.to_batch()
        # Reversing breaks the canonical grouped order, forcing the
        # argsort fallback.  The store's order is the reference (pinned
        # against a written-out rule in tests/test_log_store.py): both
        # are stable over the same (reversed) insertion order, so
        # ts-tied rows must come out in the same order from each.
        reversed_rows = grouped.to_rows()[::-1]
        slow = list(partition_batch_by_taxi(
            RecordBatch.from_rows(reversed_rows)
        ))
        store = MdtLogStore(reversed_rows)
        assert [taxi for taxi, _ in slow] == store.taxi_ids
        for taxi_id, sub in slow:
            assert sub.to_rows() == store.records_of(taxi_id)


def _row_pickup_events(store):
    """The oracle's row PEA over every taxi of a store."""
    return [
        event
        for trajectory in store.iter_trajectories()
        for event in row_pickup_events(trajectory)[0]
    ]


class TestParity:
    def test_clean_parity_on_golden_day(self, golden_store):
        row_cleaned, row_report = clean_store(golden_store)
        col_cleaned, col_report = clean_batch(
            golden_store.to_batch()
        )
        assert col_cleaned.to_rows() == list(row_cleaned.iter_records())
        assert col_report == row_report

    def test_clean_parity_with_bbox_filters(self, golden_store):
        from repro.geo.bbox import BBox

        records = list(golden_store.iter_records())
        bbox = BBox.from_points((r.lon, r.lat) for r in records)
        lon, lat = bbox.center
        water = [BBox(lon, lat, bbox.east, bbox.north)]
        shrunk = BBox(bbox.west, bbox.south, lon, bbox.north)
        row_cleaned, row_report = clean_store(
            golden_store, city_bbox=shrunk, inaccessible=water
        )
        col_cleaned, col_report = clean_batch(
            golden_store.to_batch(),
            city_bbox=shrunk,
            inaccessible=water,
        )
        assert row_report.gps_error > 0
        assert col_cleaned.to_rows() == list(row_cleaned.iter_records())
        assert col_report == row_report

    def test_preprocess_matches_row_reference(self, small_day):
        """``preprocess`` keeps the row cleaner's records, order and
        report, on a day with GPS errors (city bbox and water)."""
        from repro.core.engine import QueueAnalyticEngine

        city = small_day.city
        engine = QueueAnalyticEngine(
            zones=city.zones,
            projection=city.projection,
            city_bbox=city.bbox,
            inaccessible=city.water,
        )
        cleaned = engine.preprocess(small_day.store)
        row_cleaned, row_report = clean_store(
            small_day.store, city_bbox=city.bbox, inaccessible=city.water
        )
        assert row_report.gps_error > 0
        assert list(cleaned.iter_records()) == list(
            row_cleaned.iter_records()
        )
        assert engine.last_cleaning_report == row_report

    def test_per_taxi_clean_parity(self, golden_store):
        for taxi_id in golden_store.taxi_ids:
            records = golden_store.records_of(taxi_id)
            row_report = CleaningReport()
            col_report = CleaningReport()
            survivors = clean_records(records, report=row_report)
            cleaned = clean_taxi_batch(
                RecordBatch.from_rows(records), report=col_report
            )
            assert cleaned.to_rows() == survivors
            assert col_report == row_report

    def test_pea_parity_on_golden_day(self, golden_store):
        cleaned, _ = clean_store(golden_store)
        row_events = _row_pickup_events(cleaned)
        col_events = extract_pickup_events_batch(
            cleaned.to_batch()
        )
        assert len(col_events) == len(row_events)
        for col, row in zip(col_events, row_events):
            assert col.taxi_id == row.taxi_id
            assert list(col) == list(row)

    def test_pea_stats_parity_per_taxi(self, golden_store):
        cleaned, _ = clean_store(golden_store)
        for trajectory in cleaned.iter_trajectories():
            row_events, row_stats = row_pickup_events(trajectory)
            col_events, col_stats = extract_pickup_events_from_columns(
                trajectory.taxi_id,
                RecordBatch.from_rows(trajectory.records),
            )
            assert col_stats == row_stats
            assert [list(e) for e in col_events] == [
                list(e) for e in row_events
            ]

    def test_streaming_feed_batch_matches_feed(self, golden_store):
        from repro.conformance.canonical import streaming_state
        from tests._golden import streaming_bootstrap

        engine = golden_engine(golden_store)
        boot, records = streaming_bootstrap(engine, golden_store)
        by_record, snap_a = boot.build_stack()
        by_batch, snap_b = boot.build_stack()
        for record in records:
            by_record.feed(record)
        by_record.finish()
        by_batch.feed_batch(RecordBatch.from_rows(records))
        by_batch.finish()
        assert streaming_state(snap_a) == streaming_state(snap_b)


class TestConformancePin:
    def test_columnar_tier1_matches_row_reference(self, golden_store):
        """Engine tier 1 (columnar) vs the pre-refactor row path."""
        engine = golden_engine(golden_store)
        columnar = engine.detect_spots(golden_store)
        row_cleaned, _ = clean_store(
            golden_store, city_bbox=engine.city_bbox
        )
        row_events = _row_pickup_events(row_cleaned)
        row = detect_from_centroids(
            pickup_centroids(row_events),
            engine.zones,
            engine.projection,
            engine.config.detection,
            events=row_events,
        )
        assert [asdict(s) for s in columnar.spots] == [
            asdict(s) for s in row.spots
        ]
        assert columnar.noise_count == row.noise_count
        assert dict(columnar.per_zone_counts) == dict(
            row.per_zone_counts
        )
        assert len(columnar.pickup_events) == len(row.pickup_events)
        for col, ref in zip(columnar.pickup_events, row.pickup_events):
            assert col.taxi_id == ref.taxi_id
            assert list(col) == list(ref)

    def test_full_pipeline_snapshot_identical_from_batch(
        self, golden_store
    ):
        """detect_spots(batch) == detect_spots(store), end to end."""
        via_store = pipeline_snapshot(
            golden_engine(golden_store), golden_store
        )
        engine = golden_engine(golden_store)
        detection = engine.detect_spots(
            golden_store.to_batch()
        )
        analyses = engine.disambiguate(golden_store, detection)
        assert via_store["spots"] == [
            asdict(spot) for spot in detection.spots
        ]
        assert via_store["labels"] == {
            spot_id: [
                {
                    "slot": label.slot,
                    "label": label.label.value,
                    "routine": label.routine,
                }
                for label in analysis.labels
            ]
            for spot_id, analysis in analyses.items()
        }


class TestTier2ReusesTier1Cleaning:
    """Tier 2 reuses tier 1's cleaned rows only for the very same input
    object at the same length; any other day is cleaned again."""

    @staticmethod
    def _run(golden_store, tier1_data, tier2_data):
        from repro.obs.export import InMemorySink
        from repro.obs.tracer import Tracer

        sink = InMemorySink()
        engine = golden_engine(golden_store)
        engine.tracer = Tracer(sink)
        with engine.tracer.trace("pipeline.batch"):
            detection = engine.detect_spots(tier1_data)
            analyses = engine.disambiguate(tier2_data(), detection)
        cleans = [s for s in sink.spans if s["name"] == "stage.clean"]
        labels = {
            spot_id: [label.label.value for label in analysis.labels]
            for spot_id, analysis in analyses.items()
        }
        return len(cleans), labels

    def test_same_object_cleans_once(self, golden_store):
        batch = RecordBatch.from_csv(GOLDEN_CSV)
        cleans, labels = self._run(golden_store, batch, lambda: batch)
        assert cleans == 1
        other_cleans, other_labels = self._run(
            golden_store, batch, lambda: RecordBatch.from_csv(GOLDEN_CSV)
        )
        assert other_cleans == 2
        assert other_labels == labels
        store_cleans, store_labels = self._run(
            golden_store, golden_store, lambda: golden_store
        )
        assert store_cleans == 1
        assert store_labels == labels

    def test_grown_input_is_cleaned_again(self, golden_store):
        batch = RecordBatch.from_csv(GOLDEN_CSV)

        def grown():
            batch.append_row(batch.row(len(batch) - 1))
            return batch

        cleans, _ = self._run(golden_store, batch, grown)
        assert cleans == 2

    def test_reuse_handle_is_weak_and_not_pickled(self, golden_store):
        batch = RecordBatch.from_csv(GOLDEN_CSV)
        detection = golden_engine(golden_store).detect_spots(batch)
        assert detection.cleaned_for(batch) is not None
        copy = pickle.loads(pickle.dumps(detection))
        assert copy.cleaned_for(batch) is None
        assert copy.spots == detection.spots
        # The detection does not keep its input alive.
        ref = weakref.ref(batch)
        del batch
        gc.collect()
        assert ref() is None


class TestCsvIngest:
    MALFORMED = [
        "01/08/2008 19:04:51,SH0001A,103.8,1.3",  # truncated
        "01/08/2008 19:04:52,,103.8,1.3,5.0,FREE",  # empty taxi id
        "01/08/2008 19:04:53,SH0001A,nope,1.3,5.0,FREE",  # bad float
        "01/08/2008 19:04:54,SH0001A,inf,1.3,5.0,FREE",  # non-finite
        "99/99/2008 19:04:55,SH0001A,103.8,1.3,5.0,FREE",  # bad ts
        "01/08/2008 19:04:56,SH0001A,103.8,1.3,5.0,WARP",  # bad state
    ]

    def _write_csv(self, tmp_path, lines):
        path = tmp_path / "day.csv"
        path.write_text(
            MdtRecord.CSV_HEADER + "\n" + "".join(
                line + "\n" for line in lines
            ),
            encoding="utf-8",
        )
        return path

    def test_malformed_accounting_matches_store(self, tmp_path):
        good = [
            "01/08/2008 19:04:51,SH0001A,103.799900,1.337950,54.0,POB",
            "01/08/2008 19:05:51,SH0002B,103.810000,1.340000,0.0,FREE",
        ]
        lines = good + self.MALFORMED + good + self.MALFORMED
        path = self._write_csv(tmp_path, lines)
        store = MdtLogStore.from_csv(path, on_error="skip")
        batch = RecordBatch.from_csv(path, on_error="skip")
        assert batch.skipped_lines == store.skipped_lines == 12
        assert sorted(batch.to_rows(), key=lambda r: (r.taxi_id, r.ts)) \
            == list(store.iter_records())

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_raise_mode_matches_store(self, tmp_path, bad):
        path = self._write_csv(tmp_path, [bad])
        with pytest.raises(ValueError):
            MdtLogStore.from_csv(path)
        with pytest.raises(ValueError):
            RecordBatch.from_csv(path)

    def test_golden_csv_parses_identically(self, golden_store, tmp_path):
        batch = RecordBatch.from_csv(GOLDEN_CSV)
        assert batch.skipped_lines == 0
        assert sorted(
            batch.to_rows(), key=lambda r: (r.taxi_id, r.ts)
        ) == list(golden_store.iter_records())
        out = tmp_path / "round.csv"
        batch.to_csv(out)
        assert RecordBatch.from_csv(out) == batch


class TestParseTimestamp:
    def test_rejects_non_finite_posix_value(self, monkeypatch):
        """A parse that yields inf/NaN must raise, not propagate."""
        import repro.trace.record as record_mod

        class _Inf:
            def replace(self, **_kw):
                return self

            def timestamp(self):
                return math.inf

        class _FakeDatetime:
            @staticmethod
            def strptime(_text, _fmt):
                return _Inf()

        monkeypatch.setattr(record_mod, "datetime", _FakeDatetime)
        with pytest.raises(ValueError, match="non-finite"):
            parse_timestamp("01/08/2008 19:04:51")

    def test_accepts_normal_timestamp(self):
        assert parse_timestamp("01/01/1970 00:00:00") == 0.0


def _ts_outcome(parse, text):
    """The parsed float, or the string "ValueError"."""
    try:
        return parse(text)
    except ValueError:
        return "ValueError"


#: Mostly ASCII digits, plus non-ASCII ones: Arabic-Indic and fullwidth
#: digits (``strptime``'s ``\d`` takes them in some fields) and '²' (a
#: digit to ``str.isdigit`` but not to ``int``).
_ts_digit = st.one_of(
    st.sampled_from("0123456789"),
    st.sampled_from("٠٣٩０９²"),
)


def _ts_digits(n):
    return st.lists(_ts_digit, min_size=n, max_size=n).map("".join)


_canonical_shaped = st.builds(
    "{}{}/{}/{} {}:{}:{}{}".format,
    st.sampled_from(["", "", " "]),
    _ts_digits(2),
    _ts_digits(2),
    _ts_digits(4),
    _ts_digits(2),
    _ts_digits(2),
    _ts_digits(2),
    st.sampled_from(["", "", " "]),
)


#: Canonical texts from near-valid numbers, so most reach the cache.
_near_valid = st.builds(
    "{:02d}/{:02d}/{:04d} {:02d}:{:02d}:{:02d}".format,
    st.integers(0, 32),
    st.integers(0, 13),
    st.integers(0, 9999),
    st.integers(0, 25),
    st.integers(0, 61),
    st.integers(0, 61),
)


class TestTimestampFastPath:
    """``parse_timestamp_cached`` must be ``parse_timestamp`` exactly:
    the same float or a ValueError from both, cold or warm cache."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_near_valid, _canonical_shaped, st.text(max_size=24)))
    @example("01/08/2008 24:00:00")
    @example("01/08/2008 23:59:60")
    @example("01/08/2008 23:59:61")
    @example("29/02/2007 12:00:00")
    @example("29/02/2008 12:00:00")
    @example("00/00/0000 00:00:00")
    @example("٠١/٠٨/٢٠٠٨ ١٩:٠٤:٥١")
    @example("01/08/2008 19:04:5٩")
    @example(" 01/08/2008 19:04:51 ")
    @example(" 1/08/2008 19:04:51")
    def test_matches_parse_timestamp(self, text):
        expected = _ts_outcome(parse_timestamp, text)
        cold: dict = {}
        assert _ts_outcome(
            lambda t: parse_timestamp_cached(t, cold), text
        ) == expected
        # Hit path: the same cache again, and a cache warmed by another
        # time on the same date.
        assert _ts_outcome(
            lambda t: parse_timestamp_cached(t, cold), text
        ) == expected
        warm: dict = {}
        _ts_outcome(
            lambda t: parse_timestamp_cached(t, warm), text[:10] + " 00:00:00"
        )
        assert _ts_outcome(
            lambda t: parse_timestamp_cached(t, warm), text
        ) == expected
