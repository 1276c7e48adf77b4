"""The batch CLI's one columnar pass, checked from the outside.

``detect``/``analyze``/``export``/``serve`` parse the CSV once into a
:class:`~repro.columnar.RecordBatch`, skip and count malformed lines,
and clean the day once.  Their output must match the engine API run on
stores loaded from the same file, both for the golden day (taxis
grouped: the kernels read the columns in place) and for a row-shuffled
copy (taxis interleaved: the kernels read them through the canonical
lexsort).
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.reports import (
    citywide_proportions,
    format_proportions,
    format_transition_report,
)
from repro.core.types import TimeSlotGrid
from repro.export.csv_report import (
    write_features_csv,
    write_labels_csv,
    write_spots_csv,
)
from repro.export.geojson import dump_geojson, labels_to_geojson, spots_to_geojson
from repro.export.html_report import write_html_report
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import four_zone_partition
from repro.obs import load_spans
from repro.trace.log_store import MdtLogStore

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_day.csv"

EXPORTED = (
    "spots.geojson", "labels.geojson", "spots.csv", "labels.csv",
    "features.csv", "report.html",
)

SKIPPED_ONE = "(1 malformed CSV lines skipped)"

#: A record half an hour after the golden day's midnight.
PAST_MIDNIGHT = "02/08/2008 00:30:00,SH0039A,103.889727,1.242012,0.0,POWEROFF"


@pytest.fixture(scope="module")
def truncated_csv(tmp_path_factory) -> Path:
    """The golden day with one line cut to four fields."""
    lines = GOLDEN_CSV.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[500] = ",".join(lines[500].split(",")[:4]) + "\n"
    path = tmp_path_factory.mktemp("ingest") / "golden_truncated.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.fixture(scope="module", params=["grouped", "shuffled"])
def day_csv(request, tmp_path_factory) -> Path:
    if request.param == "grouped":
        return GOLDEN_CSV
    header, *rows = GOLDEN_CSV.read_text(encoding="utf-8").splitlines(
        keepends=True
    )
    random.Random(13).shuffle(rows)
    path = tmp_path_factory.mktemp("ingest") / "golden_shuffled.csv"
    path.write_text(header + "".join(rows), encoding="utf-8")
    return path


def _reference(path: Path):
    """``(detection, analyses, grid)`` through the engine API, built the
    way the CLI documents: bbox of the records plus 0.01 degrees, the
    four-zone partition, full coverage."""
    store = MdtLogStore.from_csv(path)
    bbox = BBox.from_points(
        (r.lon, r.lat) for r in store.iter_records()
    ).expanded(0.01)
    engine = QueueAnalyticEngine(
        zones=four_zone_partition(bbox),
        projection=LocalProjection(*bbox.center),
        config=EngineConfig(observed_fraction=1.0),
        city_bbox=bbox,
    )
    detection = engine.detect_spots(store)
    # A second store object: tier 2 cleans the day itself here, where
    # the CLI reuses tier 1's cleaned rows.
    analyses = engine.disambiguate(MdtLogStore.from_csv(path), detection)
    # The CLI labels on the grid tier 2 ran on: it covers the cleaned day.
    lo, hi = detection.cleaned_for(store).time_span
    grid = TimeSlotGrid.covering(lo, hi, engine.config.slot_seconds)
    return detection, analyses, grid


class TestMalformedLine:
    @pytest.mark.parametrize("command", ["detect", "analyze", "export"])
    def test_batch_commands_skip_and_count(
        self, command, truncated_csv, tmp_path, capsys
    ):
        argv = [command, str(truncated_csv)]
        if command == "export":
            argv += ["--outdir", str(tmp_path / "out")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert SKIPPED_ONE in captured.out
        assert "Traceback" not in captured.err

    def test_serve_skips_and_counts(self, truncated_csv, capsys):
        argv = [
            "serve", str(truncated_csv), "--port", "0", "--speedup", "0",
            "--max-seconds", "60",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert SKIPPED_ONE in out
        assert "serving" in out

    def test_byte_that_is_not_utf8_is_one_malformed_line(
        self, tmp_path, capsys
    ):
        lines = GOLDEN_CSV.read_bytes().split(b"\n")
        fields = lines[700].split(b",")
        fields[1] += b"\xe9"  # Latin-1 e-acute in the taxi id
        lines[700] = b",".join(fields)
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"\n".join(lines))
        del lines[700]
        without = tmp_path / "without.csv"
        without.write_bytes(b"\n".join(lines))
        assert main(["analyze", str(without)]) == 0
        expected = capsys.readouterr().out
        assert main(["analyze", str(latin1)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out.replace(f"  {SKIPPED_ONE}\n", "") == expected
        assert SKIPPED_ONE in captured.out

    def test_clean_file_prints_no_count(self, capsys):
        assert main(["detect", str(GOLDEN_CSV)]) == 0
        assert "malformed" not in capsys.readouterr().out


class TestCliMatchesEngineApi:
    def test_analyze_spot_report(self, day_csv, capsys):
        detection, analyses, grid = _reference(day_csv)
        spot_id = detection.spots[0].spot_id
        assert main(["analyze", str(day_csv), "--spot", spot_id]) == 0
        expected = (
            format_proportions(citywide_proportions(analyses.values()))
            + "\n\n"
            + format_transition_report(analyses[spot_id], grid)
            + "\n"
        )
        assert capsys.readouterr().out == expected

    def test_export_files(self, day_csv, tmp_path, capsys):
        detection, analyses, grid = _reference(day_csv)
        expected = tmp_path / "expected"
        expected.mkdir()
        dump_geojson(
            spots_to_geojson(detection.spots), expected / "spots.geojson"
        )
        dump_geojson(
            labels_to_geojson(analyses.values(), grid),
            expected / "labels.geojson",
        )
        write_spots_csv(detection.spots, expected / "spots.csv")
        write_labels_csv(analyses.values(), grid, expected / "labels.csv")
        write_features_csv(
            analyses.values(), grid, expected / "features.csv"
        )
        write_html_report(analyses.values(), grid, expected / "report.html")
        out = tmp_path / "cli"
        assert main(["export", str(day_csv), "--outdir", str(out)]) == 0
        for name in EXPORTED:
            assert (out / name).read_bytes() == (
                expected / name
            ).read_bytes(), name

    def test_traced_analyze_cleans_once(self, day_csv, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["analyze", str(day_csv), "--trace-out", str(trace)]) == 0
        names = [span["name"] for span in load_spans(trace)]
        assert names.count("stage.clean") == 1
        assert names.count("stage.ingest") == 1


class TestPastMidnight:
    """A day whose last record falls after midnight: tier 2 grids 49
    slots, and the CLI labels on that same grid."""

    @pytest.fixture(scope="class")
    def midnight_csv(self, tmp_path_factory) -> Path:
        text = GOLDEN_CSV.read_text(encoding="utf-8")
        path = tmp_path_factory.mktemp("midnight") / "past_midnight.csv"
        path.write_text(text + PAST_MIDNIGHT + "\n", encoding="utf-8")
        return path

    def test_export_labels_every_slot(self, midnight_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["export", str(midnight_csv), "--outdir", str(out)]) == 0
        spots = (out / "spots.csv").read_text().splitlines()[1:]
        labels = (out / "labels.csv").read_text().splitlines()[1:]
        assert spots
        assert len(labels) == len(spots) * 49
        assert labels[-1].split(",")[1:3] == ["48", "00:00-00:30"]
        assert "Traceback" not in capsys.readouterr().err

    def test_analyze_spot_prints_report(self, midnight_csv, capsys):
        argv = ["analyze", str(midnight_csv), "--spot", "QS001"]
        assert main(argv) == 0
        report = capsys.readouterr().out.split("\n\n", 1)[1]
        assert report.startswith("Queue spot QS001")
        assert report.rstrip().splitlines()[-1].split()[0].endswith("-00:30")


class TestEmptyDay:
    """A day with no records left: each command prints its empty result
    or one ``error:`` line, never a traceback."""

    @pytest.fixture(
        scope="class", params=["header-only", "all-malformed", "bbox"]
    )
    def empty_input(self, request, tmp_path_factory):
        """``(argv tail, exit code of export)``: export still grids a
        day whose raw records all fall outside the city."""
        if request.param == "bbox":
            return [str(GOLDEN_CSV), "--bbox", "0,0,1,1"], 0
        header = GOLDEN_CSV.read_text(encoding="utf-8").splitlines()[0]
        lines = [header]
        if request.param == "all-malformed":
            lines += ["garbage", "01/08/2008 08:00:00,SH0001A,103.8"]
        path = tmp_path_factory.mktemp("empty") / f"{request.param}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return [str(path)], 2

    @pytest.mark.parametrize("command", ["detect", "analyze", "export", "serve"])
    def test_exits_cleanly(self, command, empty_input, tmp_path, capsys):
        tail, export_exit = empty_input
        argv = [command, *tail]
        if command == "export":
            argv += ["--outdir", str(tmp_path / "out")]
        if command == "serve":
            argv += ["--port", "0", "--speedup", "0", "--max-seconds", "5"]
        expected = {"export": export_exit, "serve": 2}.get(command, 0)
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if expected == 2:
            errors = [
                line for line in captured.err.splitlines()
                if line.startswith("error:")
            ]
            assert len(errors) == 1
            assert tail[0] in errors[0]
        elif command == "detect":
            assert "detected 0 queue spots" in captured.out
        elif command == "analyze":
            assert "Unidentified   0.0%" in captured.out


class TestBadHeader:
    """A file that is not a log CSV — empty, a wrong header, a UTF-8 BOM
    before the header — is one ``error:`` line and exit 2 in every
    command that reads a CSV, as a missing file is."""

    @pytest.fixture(
        scope="class", params=["zero-byte", "wrong-header", "bom"]
    )
    def bad_csv(self, request, tmp_path_factory) -> Path:
        data = {
            "zero-byte": b"",
            "wrong-header": b"time,id,x,y,v,s\n" + GOLDEN_CSV.read_bytes().split(b"\n", 1)[1],
            "bom": b"\xef\xbb\xbf" + GOLDEN_CSV.read_bytes(),
        }[request.param]
        path = tmp_path_factory.mktemp("header") / f"{request.param}.csv"
        path.write_bytes(data)
        return path

    @pytest.mark.parametrize(
        "command", ["detect", "analyze", "export", "serve", "conformance"]
    )
    def test_one_error_line_and_exit_2(self, command, bad_csv, tmp_path, capsys):
        argv = {
            "export": ["export", str(bad_csv), "--outdir", str(tmp_path / "out")],
            "serve": [
                "serve", str(bad_csv), "--port", "0", "--speedup", "0",
                "--max-seconds", "5",
            ],
            "conformance": ["conformance", "run", "--input", str(bad_csv)],
        }.get(command, [command, str(bad_csv)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        errors = [
            line for line in captured.err.splitlines() if line.startswith("error:")
        ]
        assert errors == [
            line for line in captured.err.splitlines() if line.strip()
        ]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {bad_csv}: unexpected CSV header")
