"""Unit tests of the tracing layer (``repro.obs``).

Covers the span-context tracer (nesting, ids, sampling, worker-span
re-parenting, window emission), the JSONL writer with its fail-fast
open, the stdlib schema validator and the summary statistics.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    InMemorySink,
    SPAN_SCHEMA,
    TraceWriter,
    Tracer,
    format_summary,
    load_spans,
    summarize_spans,
    validate_span,
    validate_trace_file,
)
from repro.obs.tracer import worker_span


def span_names(trace):
    return [span["name"] for span in trace]


class TestTracer:
    def test_nested_spans_form_one_tree(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.trace("root", run=1):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        assert len(sink.traces) == 1
        by_name = {span["name"]: span for span in sink.traces[0]}
        assert by_name["root"]["parent_id"] is None
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert (
            by_name["grandchild"]["parent_id"]
            == by_name["child"]["span_id"]
        )
        assert by_name["sibling"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["root"]["attrs"] == {"run": 1}
        assert len({span["trace_id"] for span in sink.traces[0]}) == 1

    def test_trace_flushes_only_when_root_closes(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.trace("root"):
            with tracer.span("child"):
                pass
            assert sink.traces == []
        assert len(sink.traces) == 1

    def test_nested_trace_degrades_to_span(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                pass
        assert len(sink.traces) == 1
        by_name = {span["name"]: span for span in sink.traces[0]}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]

    def test_bare_span_becomes_its_own_trace(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("lonely"):
            pass
        assert len(sink.traces) == 1
        assert sink.traces[0][0]["parent_id"] is None

    def test_span_set_and_duration(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.trace("root") as span:
            span.set(records=7).set(zone="Central")
        recorded = sink.traces[0][0]
        assert recorded["attrs"] == {"records": 7, "zone": "Central"}
        assert recorded["duration_s"] >= 0
        assert recorded["start_ts"] > 0

    def test_sampling_keeps_complete_trees(self):
        sink = InMemorySink()
        tracer = Tracer(sink, sample=2)
        for i in range(4):
            with tracer.trace("root", run=i):
                with tracer.span("child"):
                    pass
        # Traces 0 and 2 kept, 1 and 3 dropped wholesale.
        assert len(sink.traces) == 2
        assert [t[-1]["attrs"]["run"] for t in sink.traces] == [0, 2]
        assert all(len(trace) == 2 for trace in sink.traces)

    def test_dropped_trace_records_no_children(self):
        sink = InMemorySink()
        tracer = Tracer(sink, sample=2)
        with tracer.trace("kept"):
            pass
        with tracer.trace("dropped") as root:
            with tracer.span("child") as child:
                child.set(ignored=True)
            root.set(ignored=True)
        with tracer.trace("kept-again"):
            pass
        assert [t[0]["name"] for t in sink.traces] == ["kept", "kept-again"]

    def test_sample_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(InMemorySink(), sample=0)

    def test_emit_window(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        tracer.emit_window(
            "stream.window", 10.0, 0.5, {"records": 9},
            children=[worker_span("stage.ingest", 10.0, 0.4)],
        )
        assert len(sink.traces) == 1
        root, child = sink.traces[0]
        assert root["name"] == "stream.window"
        assert root["parent_id"] is None
        assert child["parent_id"] == root["span_id"]

    def test_emit_window_respects_sampling(self):
        sink = InMemorySink()
        tracer = Tracer(sink, sample=3)
        for i in range(6):
            tracer.emit_window("w", float(i), 0.1)
        assert len(sink.traces) == 2

    def test_threads_trace_independently(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            with tracer.trace("root", thread=i):
                with tracer.span("child", thread=i):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sink.traces) == 4
        for trace in sink.traces:
            # Each flushed trace is one thread's complete pair.
            assert len(trace) == 2
            assert len({span["trace_id"] for span in trace}) == 1
            assert (
                trace[0]["attrs"]["thread"] == trace[1]["attrs"]["thread"]
            )
        # Span ids are globally unique across threads.
        ids = [span["span_id"] for t in sink.traces for span in t]
        assert len(ids) == len(set(ids))


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.trace("root") as root:
            root.set(anything=1)
            with NULL_TRACER.span("child"):
                pass
        NULL_TRACER.emit_window("w", 0.0, 1.0)


class TestTraceWriter:
    def test_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path)
        tracer = Tracer(writer)
        with tracer.trace("root"):
            with tracer.span("child"):
                pass
        writer.close()
        assert validate_trace_file(path) == []
        assert writer.traces_written == 1
        assert writer.spans_written == 2
        assert len(load_spans(path)) == 2

    def test_unwritable_path_fails_at_construction(self, tmp_path):
        with pytest.raises(OSError):
            TraceWriter(tmp_path / "no-such-dir" / "trace.jsonl")

    def test_write_after_close_is_noop(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path)
        writer.close()
        writer.write_trace([{"name": "x"}])
        assert writer.traces_written == 0

    def test_concurrent_traces_stay_contiguous(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path)
        tracer = Tracer(writer)
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            for _ in range(20):
                with tracer.trace("root", thread=i):
                    with tracer.span("child"):
                        pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        writer.close()
        assert validate_trace_file(path) == []
        spans = load_spans(path)
        assert len(spans) == 4 * 20 * 2
        # Whole traces are written under one lock: a trace's spans are
        # adjacent in the file, never interleaved with another trace's.
        for i in range(0, len(spans), 2):
            assert spans[i]["trace_id"] == spans[i + 1]["trace_id"]


class TestSchema:
    def make_span(self, **overrides):
        span = {
            "trace_id": "t000000",
            "span_id": "s00000001",
            "parent_id": None,
            "name": "stage.clean",
            "start_ts": 1000.0,
            "duration_s": 0.25,
            "attrs": {},
        }
        span.update(overrides)
        return span

    def test_valid_span(self):
        assert validate_span(self.make_span()) == []

    @pytest.mark.parametrize("field", sorted(SPAN_SCHEMA["required"]))
    def test_missing_field_rejected(self, field):
        span = self.make_span()
        del span[field]
        assert any(field in err for err in validate_span(span))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trace_id": ""},
            {"name": 7},
            {"parent_id": ""},
            {"start_ts": "soon"},
            {"duration_s": -1.0},
            {"attrs": []},
            {"extra_field": 1},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        assert validate_span(self.make_span(**overrides)) != []

    def test_non_object_rejected(self):
        assert validate_span([1, 2]) != []

    def test_file_level_duplicate_span_id(self, tmp_path):
        path = tmp_path / "t.jsonl"
        span = self.make_span()
        path.write_text(json.dumps(span) + "\n" + json.dumps(span) + "\n")
        errors = validate_trace_file(path)
        assert any("duplicate span_id" in err for err in errors)

    def test_file_level_dangling_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        span = self.make_span(parent_id="s99999999")
        path.write_text(json.dumps(span) + "\n")
        errors = validate_trace_file(path)
        assert any("not in trace" in err for err in errors)

    def test_load_spans_raises_on_invalid(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            load_spans(path)


class TestSummary:
    def make(self, name, duration, **attrs):
        return {
            "trace_id": "t0",
            "span_id": f"s{id(object()):x}",
            "parent_id": None,
            "name": name,
            "start_ts": 0.0,
            "duration_s": duration,
            "attrs": attrs,
        }

    def test_percentiles_nearest_rank(self):
        spans = [
            self.make("stage.pea", float(i + 1)) for i in range(100)
        ]
        stats = summarize_spans(spans)["stage.pea"]
        assert stats["count"] == 100
        assert stats["p50_s"] == 50.0
        assert stats["p95_s"] == 95.0
        assert stats["max_s"] == 100.0
        assert stats["total_s"] == pytest.approx(5050.0)

    def test_throughput_from_records_attr(self):
        spans = [self.make("stage.clean", 2.0, records=100)]
        stats = summarize_spans(spans)["stage.clean"]
        assert stats["records"] == 100
        assert stats["records_per_s"] == pytest.approx(50.0)

    def test_sorted_by_descending_total(self):
        spans = [self.make("small", 0.1), self.make("big", 5.0)]
        assert list(summarize_spans(spans)) == ["big", "small"]

    def test_format_summary_mentions_every_stage(self):
        spans = [self.make("stage.pea", 1.0), self.make("stage.clean", 2.0)]
        text = format_summary(summarize_spans(spans))
        assert "stage.pea" in text
        assert "stage.clean" in text
        assert "p95" in text

    def test_empty(self):
        assert summarize_spans([]) == {}
        assert "no spans" in format_summary({})
