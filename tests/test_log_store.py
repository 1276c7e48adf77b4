"""Tests for the embedded MDT log store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.columnar import RecordBatch
from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.spots import SpotDetectionParams
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import four_zone_partition
from repro.states.states import TaxiState
from repro.trace.log_store import MdtLogStore, merge_stores
from repro.trace.record import MdtRecord


def rec(ts, taxi="SH0001A", lon=103.8, lat=1.33, speed=10.0, state=TaxiState.FREE):
    return MdtRecord(ts, taxi, lon, lat, speed, state)


@pytest.fixture
def store():
    return MdtLogStore(
        [
            rec(100.0, "A"),
            rec(50.0, "A", state=TaxiState.POB),
            rec(75.0, "B", lon=103.9),
            rec(200.0, "B", lon=104.2),
        ]
    )


class TestIngestionAndReads:
    def test_len_and_taxi_ids(self, store):
        assert len(store) == 4
        assert store.taxi_ids == ["A", "B"]
        assert store.taxi_count == 2

    def test_records_sorted_lazily(self, store):
        ts = [r.ts for r in store.records_of("A")]
        assert ts == [50.0, 100.0]

    def test_unknown_taxi_gives_empty(self, store):
        assert store.records_of("Z") == []

    def test_trajectory_view(self, store):
        traj = store.trajectory("A")
        assert traj.taxi_id == "A"
        assert len(traj) == 2

    def test_iter_trajectories(self, store):
        ids = [t.taxi_id for t in store.iter_trajectories()]
        assert ids == ["A", "B"]

    def test_time_span(self, store):
        assert store.time_span == (50.0, 200.0)

    def test_empty_time_span_raises(self):
        with pytest.raises(ValueError):
            MdtLogStore().time_span

    def test_stats(self, store):
        stats = store.stats()
        assert stats["records"] == 4
        assert stats["taxis"] == 2
        assert stats["records_per_taxi"] == 2.0

    def test_empty_stats(self):
        assert MdtLogStore().stats()["records"] == 0


class TestFilters:
    def test_filter_time(self, store):
        sub = store.filter_time(60.0, 150.0)
        assert sorted(r.ts for r in sub.iter_records()) == [75.0, 100.0]


class TestPersistence:
    def test_csv_roundtrip(self, store, tmp_path):
        path = tmp_path / "logs.csv"
        store.to_csv(path)
        loaded = MdtLogStore.from_csv(path)
        assert len(loaded) == len(store)
        assert [r.state for r in loaded.records_of("A")] == [
            r.state for r in store.records_of("A")
        ]

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            MdtLogStore.from_csv(path)


def write_dirty_csv(store, path, garbage):
    """``store`` as a CSV with ``garbage`` lines appended."""
    store.to_csv(path)
    path.write_text(path.read_text() + garbage)


class TestLenientIngestion:
    def test_skip_mode_counts_bad_lines(self, store, tmp_path):
        path = tmp_path / "dirty.csv"
        write_dirty_csv(store, path, "garbage,line\nnot,even,close\n")
        loaded = MdtLogStore.from_csv(path, on_error="skip")
        assert len(loaded) == len(store)
        assert loaded.skipped_lines == 2

    def test_raise_mode_fails_on_bad_line(self, store, tmp_path):
        path = tmp_path / "dirty.csv"
        write_dirty_csv(store, path, "garbage,line\n")
        with pytest.raises(ValueError):
            MdtLogStore.from_csv(path)

    def test_unknown_mode_rejected(self, store, tmp_path):
        path = tmp_path / "x.csv"
        store.to_csv(path)
        with pytest.raises(ValueError, match="on_error"):
            MdtLogStore.from_csv(path, on_error="ignore")


class TestMerge:
    def test_merge_stores(self, store):
        other = MdtLogStore([rec(5.0, "C")])
        merged = merge_stores([store, other])
        assert len(merged) == 5
        assert merged.taxi_ids == ["A", "B", "C"]


# -- canonical order --------------------------------------------------------
#
# Every store keeps its records in one order: taxis by sorted id, and
# within a taxi stably by timestamp, so records with tied timestamps
# keep their input order.


def reference_by_taxi(records):
    """The historical store's rule, written out: per-taxi lists in input
    order, each stably sorted by ts, with taxis in sorted-id order."""
    by_taxi = {}
    for record in records:
        by_taxi.setdefault(record.taxi_id, []).append(record)
    return {
        taxi_id: sorted(by_taxi[taxi_id], key=lambda r: r.ts)
        for taxi_id in sorted(by_taxi)
    }


# Few ids (first appearance need not be sorted order) and few distinct
# timestamps, so ties and out-of-order runs are common; the speed is the
# input position, which makes a broken tie order visible.
unordered_records = st.lists(
    st.tuples(
        st.sampled_from(["T10", "T2", "T1", "A"]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(list(TaxiState)),
    ),
    max_size=40,
).map(
    lambda rows: [
        MdtRecord(float(ts), taxi, 103.8, 1.33, float(i), state)
        for i, (taxi, ts, state) in enumerate(rows)
    ]
)


class TestCanonicalOrder:
    @given(unordered_records)
    @settings(max_examples=200, deadline=None)
    def test_every_constructor_gives_the_reference_order(self, records):
        expected = reference_by_taxi(records)
        flat = [r for rs in expected.values() for r in rs]
        stores = [
            MdtLogStore(records),
            MdtLogStore.from_batch(RecordBatch.from_rows(records)),
            # Already canonical: wrapped after the linear check.
            MdtLogStore.from_batch(RecordBatch.from_rows(flat)),
        ]
        for store in stores:
            assert store.taxi_ids == list(expected)
            assert len(store) == len(records)
            for taxi_id, rows in expected.items():
                assert store.records_of(taxi_id) == rows
            assert list(store.iter_records()) == flat
            if records:
                timestamps = [r.ts for r in records]
                assert store.time_span == (min(timestamps), max(timestamps))
            else:
                with pytest.raises(ValueError):
                    store.time_span


# -- garbage in, accounting out -------------------------------------------
#
# A deployed feed delivers truncated lines, NaN coordinates, out-of-order
# timestamps and state codes nobody documented.  Strict loads raise a
# clean ValueError; lenient loads count the line and carry on.

CITY_BBOX = BBox(103.60, 1.20, 104.00, 1.50)


def row(
    time="01/08/2008 08:00:00",
    taxi="SH0001A",
    lon=103.80,
    lat=1.35,
    speed=10.0,
    state="FREE",
) -> str:
    return f"{time},{taxi},{lon},{lat},{speed},{state}"


def write_csv(path, lines) -> None:
    path.write_text("\n".join([MdtRecord.CSV_HEADER, *lines]) + "\n")


class TestRecordParsing:
    @pytest.mark.parametrize(
        "bad",
        [
            "01/08/2008 08:00:00,SH0001A,103.8",  # truncated
            row(lon="nan"),
            row(lat="inf"),
            row(lon="-inf"),
            row(speed="nan"),
            row(taxi=""),  # empty taxi id
            row(state="WARP"),  # unknown state code
            row(time="2008-08-01 08:00"),  # wrong timestamp format
            row(lon="east"),  # non-numeric coordinate
            row() + ",EXTRA",  # wrong arity
        ],
    )
    def test_malformed_rows_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            MdtRecord.from_csv_row(bad)

    def test_well_formed_row_round_trips(self):
        record = MdtRecord.from_csv_row(row())
        assert MdtRecord.from_csv_row(record.to_csv_row()) == record


class TestLenientStoreLoad:
    def test_strict_mode_raises_on_garbage(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(path, [row(), row(lon="nan")])
        with pytest.raises(ValueError):
            MdtLogStore.from_csv(path, on_error="raise")

    def test_skip_mode_counts_and_continues(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(
            path,
            [
                row(),
                row(lon="nan"),
                "01/08/2008 08:00:10,SH0001A",  # truncated
                row(time="01/08/2008 08:00:20", state="WARP"),
                row(time="01/08/2008 08:00:30"),
            ],
        )
        store = MdtLogStore.from_csv(path, on_error="skip")
        assert len(store) == 2
        assert store.skipped_lines == 3

    def test_out_of_order_timestamps_are_sorted_per_taxi(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(
            path,
            [
                row(time="01/08/2008 09:00:00"),
                row(time="01/08/2008 08:00:00"),
                row(time="01/08/2008 08:30:00"),
            ],
        )
        store = MdtLogStore.from_csv(path)
        timestamps = [r.ts for r in store.records_of("SH0001A")]
        assert timestamps == sorted(timestamps)


class TestCorruptedCsvEndToEnd:
    """A corrupted day through lenient ingest and tier 1."""

    def _corrupted_day(self, tmp_path):
        lines = []
        # Two clusters of pickup activity in different zones: enough
        # FREE->POB transitions for PEA, spread over four taxis.
        for i, (lon, lat) in enumerate(
            [
                (103.650, 1.250),
                (103.950, 1.450),
                (103.651, 1.251),
                (103.951, 1.451),
            ]
        ):
            taxi = f"T{i:03d}"
            for m in range(6):
                base = f"01/08/2008 {8 + m}:00:{i:02d}"
                lines.append(row(time=base, taxi=taxi, lon=lon, lat=lat,
                                 speed=0.0, state="FREE"))
                lines.append(
                    row(time=f"01/08/2008 {8 + m}:10:{i:02d}", taxi=taxi,
                        lon=lon, lat=lat, speed=0.0, state="POB")
                )
        # Interleave garbage a real feed produces.
        lines.insert(3, "01/08/2008 08:00:00,T000")  # truncated
        lines.insert(7, row(lon="nan"))  # NaN coordinate
        lines.insert(11, row(state="WARP"))  # unknown state
        lines.insert(13, row(time="99/99/9999 99:99:99"))  # bad timestamp
        path = tmp_path / "corrupted.csv"
        write_csv(path, lines)
        return path

    @staticmethod
    def _engine():
        lon, lat = CITY_BBOX.center
        return QueueAnalyticEngine(
            zones=four_zone_partition(CITY_BBOX),
            projection=LocalProjection(lon, lat),
            config=EngineConfig(
                detection=SpotDetectionParams(min_pts=2, eps_m=500.0)
            ),
            city_bbox=CITY_BBOX,
        )

    def test_never_crashes_and_counts_garbage(self, tmp_path):
        path = self._corrupted_day(tmp_path)
        batch = RecordBatch.from_csv(path, on_error="skip")
        assert batch.skipped_lines == 4
        detection = self._engine().detect_spots(batch)
        assert len(detection.spots) == 2  # the garbage didn't kill clustering
        # One pickup event per taxi survived the garbage.
        assert len(detection.pickup_events) == 4
        # The row store skips the same lines and finds the same spots.
        store = MdtLogStore.from_csv(path, on_error="skip")
        assert store.skipped_lines == 4
        expected = self._engine().detect_spots(store)
        assert detection.spots == expected.spots
        assert detection.noise_count == expected.noise_count

    def test_cli_csv_path_counts_garbage_too(self, tmp_path, capsys):
        path = self._corrupted_day(tmp_path)
        assert main(["detect", str(path)]) == 0
        captured = capsys.readouterr()
        assert "(4 malformed CSV lines skipped)" in captured.out
        assert "Traceback" not in captured.err
