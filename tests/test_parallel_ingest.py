"""Fuzz-ish CSV ingest tests: garbage in, accounting out — never a crash.

A deployed feed delivers truncated lines, NaN coordinates, out-of-order
timestamps and state codes nobody documented.  Every layer of the
chunked ingest (record parsing, lenient store loads, :func:`scan_csv`,
:func:`split_csv_by_zone`, and the parallel runner end to end) must
either raise a clean ``ValueError`` (strict mode) or count the line in
the cleaning report — and must never crash a worker.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.spots import SpotDetectionParams
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import four_zone_partition
from repro.parallel import ParallelEngineRunner, scan_csv, split_csv_by_zone
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord

CITY_BBOX = BBox(103.60, 1.20, 104.00, 1.50)

HEADER = MdtRecord.CSV_HEADER


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
    path.write_text("\n".join([HEADER, *lines]) + "\n")


def make_engine() -> QueueAnalyticEngine:
    lon, lat = CITY_BBOX.center
    return QueueAnalyticEngine(
        zones=four_zone_partition(CITY_BBOX),
        projection=LocalProjection(lon, lat),
        config=EngineConfig(
            detection=SpotDetectionParams(min_pts=2, eps_m=500.0)
        ),
        city_bbox=CITY_BBOX,
    )


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


class TestScanCsv:
    def test_counts_bbox_and_malformed(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(
            path,
            [
                row(lon=103.70, lat=1.25),
                row(taxi="SH0002A", lon=103.90, lat=1.45),
                row(lon="nan"),
                "garbage",
                "",  # blank lines are ignored, not malformed
            ],
        )
        scan = scan_csv(path)
        assert scan.rows == 2
        assert scan.malformed_lines == 2
        assert scan.taxis == 2
        assert scan.bbox == BBox(103.70, 1.25, 103.90, 1.45)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(path, [])
        scan = scan_csv(path)
        assert scan.rows == 0
        assert scan.bbox is None

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "day.csv"
        path.write_text("lon,lat,whatever\n" + row() + "\n")
        with pytest.raises(ValueError):
            scan_csv(path)

    def test_unknown_state_passes_structural_scan(self, tmp_path):
        # scan_csv is structural only; full parsing happens in workers.
        path = tmp_path / "day.csv"
        write_csv(path, [row(state="WARP")])
        assert scan_csv(path).rows == 1


class TestSplitCsvByZone:
    def test_taxi_never_splits_and_rows_conserved(self, tmp_path):
        lines = []
        for i, (lon, lat) in enumerate(
            [(103.65, 1.25), (103.95, 1.25), (103.65, 1.45), (103.95, 1.45)]
        ):
            for m in range(5):
                lines.append(
                    row(
                        time=f"01/08/2008 08:{m:02d}:0{i}",
                        taxi=f"T{i:03d}",
                        lon=lon,
                        lat=lat,
                    )
                )
        path = tmp_path / "day.csv"
        write_csv(path, lines)
        split = split_csv_by_zone(
            path,
            four_zone_partition(CITY_BBOX),
            target_shards=8,
            out_dir=tmp_path / "shards",
        )
        assert split.rows == 20
        assert split.malformed_lines == 0
        owners = {}
        total = 0
        for shard in split.shards:
            store = MdtLogStore.from_csv(shard.path, on_error="raise")
            total += len(store)
            for taxi_id in store.taxi_ids:
                assert taxi_id not in owners, "taxi split across shards"
                owners[taxi_id] = shard
                assert len(store.records_of(taxi_id)) == 5
        assert total == 20
        assert len(owners) == 4

    def test_malformed_lines_excluded_from_shards(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(path, [row(), "truncated,line", row(lat="nan")])
        split = split_csv_by_zone(
            path,
            four_zone_partition(CITY_BBOX),
            target_shards=4,
            out_dir=tmp_path / "shards",
        )
        assert split.rows == 1
        assert split.malformed_lines == 2
        assert sum(shard.rows for shard in split.shards) == 1

    def test_bad_target_shards_rejected(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(path, [row()])
        with pytest.raises(ValueError):
            split_csv_by_zone(
                path,
                four_zone_partition(CITY_BBOX),
                target_shards=0,
                out_dir=tmp_path / "shards",
            )


class TestCorruptedCsvEndToEnd:
    """A corrupted day through ``detect_spots_csv`` with real workers."""

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

    def test_never_crashes_and_counts_garbage(self, tmp_path):
        path = self._corrupted_day(tmp_path)
        serial = make_engine()
        expected = serial.detect_spots(
            MdtLogStore.from_csv(path, on_error="skip")
        )

        runner = ParallelEngineRunner(make_engine(), workers=2)
        detection = runner.detect_spots_csv(path)
        assert len(expected.spots) == 2  # the garbage didn't kill clustering
        assert detection.spots == expected.spots
        assert detection.noise_count == expected.noise_count
        report = runner.last_cleaning_report
        assert report is not None
        # Truncated + NaN are caught at split level; the unknown state
        # and bad timestamp survive the structural scan but fail full
        # parsing inside a worker.  All four are accounted, none raised.
        assert report.malformed_line == 4
        assert runner.last_stats["tier1"]["failed"] == 0

    def test_workers_one_csv_path_counts_garbage_too(self, tmp_path):
        path = self._corrupted_day(tmp_path)
        runner = ParallelEngineRunner(make_engine(), workers=1)
        detection = runner.detect_spots_csv(path)
        assert runner.last_cleaning_report.malformed_line == 4
        # One pickup event per taxi survived the garbage.
        assert len(detection.pickup_events) == 4

    def test_single_zone_shortcut_counts_garbage_once(self, tmp_path):
        # Every taxi sits in one zone, so the split has one occupied
        # zone and the runner re-parses the file on its serial shortcut.
        lines = [
            row(
                time=f"01/08/2008 08:{i // 60:02d}:{i % 60:02d}",
                taxi=f"T{i % 5}",
                speed=0.0 if i % 3 else 30.0,
                state="FREE" if i % 2 else "POB",
            )
            for i in range(249)
        ]
        lines.insert(120, "01/08/2008 08:00:00,T000")  # truncated
        path = tmp_path / "one_zone.csv"
        write_csv(path, lines)
        runner = ParallelEngineRunner(make_engine(), workers=2)
        runner.detect_spots_csv(path)
        assert (
            runner.metrics.counter("parallel.tier1.serial_shortcut").value
            == 1
        )
        assert runner.last_cleaning_report.malformed_line == 1
