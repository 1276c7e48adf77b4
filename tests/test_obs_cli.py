"""CLI surface of the observability layer.

Covers the ``--trace-out`` / ``--trace-sample`` flags (including the
fail-fast contract for unwritable paths), ``taxiqueue trace
summarize``, ``taxiqueue metrics-dump`` against a live in-process
server, and the ``?format=prometheus`` content negotiation on
``/v1/metrics``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.export import validate_trace_file
from repro.service.http import QueueStateServer
from repro.service.metrics import MetricsRegistry
from repro.trace.log_store import MdtLogStore

from ._golden import golden_engine, streaming_bootstrap

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_CSV = str(DATA_DIR / "golden_day.csv")


def span_names(path: Path) -> set:
    return {
        json.loads(line)["name"]
        for line in path.read_text().splitlines()
    }


class TestTraceOut:
    def test_detect_writes_valid_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "detect", GOLDEN_CSV, "--trace-out", str(trace_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert f"wrote 1 traces" in out
        validate_trace_file(trace_path)
        names = span_names(trace_path)
        assert {
            "pipeline.batch", "stage.ingest", "stage.clean", "stage.pea",
            "stage.cluster", "stage.publish",
        } <= names

    def test_analyze_covers_tier2(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "analyze", GOLDEN_CSV, "--trace-out", str(trace_path),
        ])
        assert code == 0
        validate_trace_file(trace_path)
        assert "stage.tier2" in span_names(trace_path)

    def test_without_flag_no_trace_side_effects(self, tmp_path, capsys):
        code = main(["detect", GOLDEN_CSV])
        assert code == 0
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestFailFast:
    def test_detect_unwritable_path_exits_2_before_work(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "no" / "such" / "dir" / "trace.jsonl"
        code = main(["detect", GOLDEN_CSV, "--trace-out", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot open trace output" in captured.err
        # Fail fast: no detection ran, no partial trace file appeared.
        assert "detected" not in captured.out
        assert not bad.exists()

    def test_serve_unwritable_path_exits_2_before_work(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "no" / "such" / "dir" / "trace.jsonl"
        code = main([
            "serve", GOLDEN_CSV, "--port", "0", "--trace-out", str(bad),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot open trace output" in captured.err
        assert "serving" not in captured.out

    def test_bad_sample_rate_exits_2(self, tmp_path, capsys):
        code = main([
            "detect", GOLDEN_CSV,
            "--trace-out", str(tmp_path / "t.jsonl"),
            "--trace-sample", "0",
        ])
        assert code == 2
        assert "--trace-sample must be >= 1" in capsys.readouterr().err


class TestTraceSummarize:
    def test_summarize_written_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "detect", GOLDEN_CSV, "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        code = main(["trace", "summarize", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "spans across 1 traces" in out
        assert "stage.clean" in out
        assert "p95" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a span"}\n')
        code = main(["trace", "summarize", str(bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def live_server():
    """An in-process queue-state server over the golden day's snapshot."""
    store = MdtLogStore.from_csv(GOLDEN_CSV)
    boot, records = streaming_bootstrap(golden_engine(store), store)
    monitor, snapshot = boot.build_stack()
    for record in records:
        monitor.feed(record)
    monitor.finish()
    metrics = MetricsRegistry()
    metrics.counter("replay.records").inc(len(records))
    server = QueueStateServer(snapshot, metrics=metrics, port=0)
    server.start()
    yield server
    server.stop()


class TestMetricsDump:
    def test_dumps_prometheus_text(self, live_server, capsys):
        code = main(["metrics-dump", "--url", live_server.url])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# HELP taxiqueue_")
        assert "taxiqueue_replay_records_total" in out
        assert "# TYPE taxiqueue_http_request_seconds histogram" in out

    def test_unreachable_service_exits_1(self, capsys):
        code = main([
            "metrics-dump", "--url", "http://127.0.0.1:9",
            "--timeout", "0.5",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot fetch" in err
        assert "taxiqueue serve" in err


class TestMetricsEndpointNegotiation:
    def test_prometheus_format(self, live_server):
        response = live_server.respond("/v1/metrics?format=prometheus")
        assert response.status == 200
        assert response.content_type == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        assert response.body.decode("utf-8").startswith("# HELP taxiqueue_")

    def test_default_stays_json(self, live_server):
        response = live_server.respond("/v1/metrics")
        assert response.status == 200
        payload = json.loads(response.body)
        assert "counters" in payload and "histograms" in payload

    def test_unknown_format_is_400(self, live_server):
        response = live_server.respond("/v1/metrics?format=xml")
        assert response.status == 400
        assert b"unknown metrics format" in response.body
