"""CLI surface of the history subsystem and its satellite contracts.

Covers the serve-knob fail-fast validation (exit 2 before any pipeline
work), gzip JSONL transparency (``--trace-out foo.jsonl.gz``, ``trace
summarize`` and ``history query`` read ``.gz``), and the ``taxiqueue
history query|export`` round trip.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.types import TimeSlotGrid
from repro.history import HistoryQueryEngine, SegmentStore
from tests.test_history_service import build_stack, multi_day_records

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_CSV = str(DATA_DIR / "golden_day.csv")


@pytest.fixture(scope="module")
def history_dir(tmp_path_factory):
    """A two-day history directory produced by the real writer."""
    directory = tmp_path_factory.mktemp("history")
    monitor, _, _, writer, _ = build_stack(
        directory,
        grid=TimeSlotGrid(0.0, 2 * 86400.0, 1800.0),
        day_of_week=0,
    )
    for record in multi_day_records(days=2, per_day=15):
        monitor.feed(record)
    monitor.finish()
    writer.flush_all()
    return directory


class TestServeKnobValidation:
    """Satellite: invalid serving knobs exit 2 before any work."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--checkpoint-every", "0"], "--checkpoint-every"),
            (["--checkpoint-every", "-5"], "--checkpoint-every"),
            (["--disorder-window", "-1"], "--disorder-window"),
            (["--cache-ttl", "-0.5"], "--cache-ttl"),
            (["--grace", "-1"], "--grace"),
        ],
    )
    def test_invalid_knob_exits_2(self, flags, message, capsys):
        code = main(["serve", GOLDEN_CSV] + flags)
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        # Fail fast: no bootstrap started.
        assert "bootstrapping" not in captured.out

    def test_invalid_knob_beats_trace_bootstrap(self, tmp_path, capsys):
        # Knob validation runs before the trace writer opens, so no
        # trace file is created for a doomed invocation.
        trace = tmp_path / "t.jsonl"
        code = main([
            "serve", GOLDEN_CSV, "--checkpoint-every", "0",
            "--trace-out", str(trace),
        ])
        assert code == 2
        assert not trace.exists()

    def test_valid_knobs_still_parse(self):
        args = build_parser().parse_args([
            "serve", "--checkpoint-every", "100", "--grace", "0",
            "--cache-ttl", "0", "--disorder-window", "0",
            "--history-dir", "h", "--history-day", "4",
        ])
        assert args.history_dir == "h"
        assert args.history_day == 4


class TestGzipTraces:
    """Satellite: ``.jsonl.gz`` artifacts are written and read as gzip."""

    def test_trace_out_gz_writes_gzip(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl.gz"
        assert main([
            "detect", GOLDEN_CSV, "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        with open(trace, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"  # gzip magic
        with gzip.open(trace, "rt", encoding="utf-8") as fh:
            names = {json.loads(line)["name"] for line in fh}
        assert "pipeline.batch" in names

    def test_trace_summarize_reads_gz(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl.gz"
        assert main([
            "detect", GOLDEN_CSV, "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spans across 1 traces" in out
        assert "stage.clean" in out

    def test_corrupt_gz_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "trace.jsonl.gz"
        bad.write_bytes(b"\x1f\x8bnot really gzip")
        code = main(["trace", "summarize", str(bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestHistoryQueryCommand:
    def _json_out(self, capsys):
        return json.loads(capsys.readouterr().out)

    def test_patterns_default(self, history_dir, capsys):
        assert main(["history", "query", str(history_dir)]) == 0
        payload = self._json_out(capsys)
        assert payload["day_count"] == 2
        assert set(payload["queue_type_mix"]) == {"Mon", "Tue"}

    def test_citywide(self, history_dir, capsys):
        assert main([
            "history", "query", str(history_dir),
            "--citywide", "--start-day", "1",
        ]) == 0
        payload = self._json_out(capsys)
        assert [d["day"] for d in payload["days"]] == [1]

    def test_spot_records_and_profile(self, history_dir, capsys):
        assert main([
            "history", "query", str(history_dir),
            "--spot", "QS001", "--per-page", "3", "--page", "2",
        ]) == 0
        payload = self._json_out(capsys)
        assert payload["page"] == 2
        assert len(payload["items"]) == 3

        assert main([
            "history", "query", str(history_dir),
            "--spot", "QS001", "--profile",
        ]) == 0
        payload = self._json_out(capsys)
        assert set(payload["profile"]) <= {"Mon", "Tue"}

    def test_unknown_spot_exits_1(self, history_dir, capsys):
        code = main([
            "history", "query", str(history_dir), "--spot", "NOPE",
        ])
        assert code == 1
        assert "unknown" in capsys.readouterr().err

    def test_invalid_pagination_exits_2(self, history_dir, capsys):
        code = main([
            "history", "query", str(history_dir),
            "--spot", "QS001", "--page", "0",
        ])
        assert code == 2
        assert "page" in capsys.readouterr().err

    def test_missing_path_exits_2(self, tmp_path, capsys):
        code = main(["history", "query", str(tmp_path / "nope")])
        assert code == 2
        assert "no such history path" in capsys.readouterr().err


class TestHistoryExportRoundTrip:
    def test_export_then_query_matches_directory(
        self, history_dir, tmp_path, capsys
    ):
        dump = tmp_path / "dump.jsonl"
        assert main([
            "history", "export", str(history_dir), "--output", str(dump),
        ]) == 0
        assert "exported 2 days" in capsys.readouterr().out

        assert main(["history", "query", str(history_dir)]) == 0
        from_dir = capsys.readouterr().out
        assert main(["history", "query", str(dump)]) == 0
        from_dump = capsys.readouterr().out
        assert from_dump == from_dir

    def test_gz_export_round_trip(self, history_dir, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl.gz"
        assert main([
            "history", "export", str(history_dir), "--output", str(dump),
        ]) == 0
        capsys.readouterr()
        with open(dump, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert main(["history", "query", str(dump)]) == 0
        payload = json.loads(capsys.readouterr().out)
        reference = HistoryQueryEngine(SegmentStore(history_dir)).patterns()
        assert payload == json.loads(json.dumps(reference))

    def test_export_missing_directory_exits_2(self, tmp_path, capsys):
        code = main([
            "history", "export", str(tmp_path / "nope"),
            "--output", str(tmp_path / "d.jsonl"),
        ])
        assert code == 2

    def test_export_to_unwritable_path_exits_2(
        self, history_dir, tmp_path, capsys
    ):
        output = tmp_path / "nope" / "d.jsonl"
        code = main([
            "history", "export", str(history_dir), "--output", str(output),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {output}")
        assert len(err.splitlines()) == 1

    def test_corrupt_dump_line_is_clean_error(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        dump.write_text('{"kind": "mystery"}\n')
        code = main(["history", "query", str(dump)])
        assert code == 1
        assert "cannot load" in capsys.readouterr().err

    def test_line_before_its_day_names_the_line(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        dump.write_text(
            '{"kind": "day", "day": 1, "day_of_week": 0, '
            '"slot_seconds": 1800.0}\n'
            '{"kind": "spot", "day": 2, "spot_id": "QS000"}\n'
        )
        code = main(["history", "query", str(dump)])
        assert code == 1
        assert "line 2: spot line comes before" in capsys.readouterr().err
