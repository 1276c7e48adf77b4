"""Pipeline-level tracing guarantees on the golden fixture.

Three pins, matching the tracing layer's design constraints:

* **coverage** — a traced batch run emits every hot-path stage span
  (clean, PEA, per-zone DBSCAN, tier-2) under one well-formed tree,
  and a traced streaming replay emits ``stream.window`` traces;
* **output neutrality** — tracing at *any* sample rate changes no
  detection byte (Hypothesis property);
* **overhead budget** — tracing costs <5% wall clock on the golden
  day.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.canonical import streaming_state
from repro.obs.export import InMemorySink
from repro.obs.tracer import Tracer
from repro.service.replay import StreamReplayer
from repro.trace.log_store import MdtLogStore

from ._golden import golden_engine, pipeline_snapshot, streaming_bootstrap

DATA_DIR = Path(__file__).parent / "data"
CSV_PATH = DATA_DIR / "golden_day.csv"

#: The logical stages every traced batch run must cover.
BATCH_STAGES = {"stage.clean", "stage.pea", "stage.cluster", "stage.tier2"}


@pytest.fixture(scope="module")
def golden_store() -> MdtLogStore:
    return MdtLogStore.from_csv(CSV_PATH, on_error="raise")


@pytest.fixture(scope="module")
def baseline(golden_store) -> str:
    """The untraced serial snapshot, canonicalized for byte comparison."""
    snapshot = pipeline_snapshot(golden_engine(golden_store), golden_store)
    return json.dumps(snapshot, sort_keys=True)


def traced_snapshot(engine, store, tracer):
    """Run both tiers under a batch root span, the way the CLI does."""
    with tracer.trace("pipeline.batch"):
        return pipeline_snapshot(engine, store)


def run_serial(store, sample=1):
    sink = InMemorySink()
    engine = golden_engine(store)
    engine.tracer = Tracer(sink, sample=sample)
    snapshot = traced_snapshot(engine, store, engine.tracer)
    return snapshot, sink


def assert_wellformed_tree(trace):
    """One root, unique span ids, every parent resolves in-trace."""
    ids = [span["span_id"] for span in trace]
    assert len(set(ids)) == len(ids)
    trace_ids = {span["trace_id"] for span in trace}
    assert len(trace_ids) == 1
    roots = [span for span in trace if span["parent_id"] is None]
    assert len(roots) == 1
    known = set(ids)
    for span in trace:
        if span["parent_id"] is not None:
            assert span["parent_id"] in known


class TestSpanCoverage:
    def test_serial_batch_covers_every_stage(self, golden_store):
        _, sink = run_serial(golden_store)
        names = {span["name"] for span in sink.spans}
        assert BATCH_STAGES <= names
        assert "pipeline.batch" in names
        assert any(name.startswith("cluster.zone:") for name in names)
        assert any(name.startswith("tier2.spot:") for name in names)

    def test_serial_batch_is_one_wellformed_tree(self, golden_store):
        _, sink = run_serial(golden_store)
        assert len(sink.traces) == 1
        assert_wellformed_tree(sink.traces[0])

    def test_zone_spans_hang_under_cluster_stage(self, golden_store):
        _, sink = run_serial(golden_store)
        by_id = {span["span_id"]: span for span in sink.spans}
        zone_spans = [
            span for span in sink.spans
            if span["name"].startswith("cluster.zone:")
        ]
        assert zone_spans
        for span in zone_spans:
            assert by_id[span["parent_id"]]["name"] == "stage.cluster"

    def test_streaming_replay_emits_window_traces(self, golden_store):
        boot, records = streaming_bootstrap(
            golden_engine(golden_store), golden_store
        )
        monitor, _ = boot.build_stack()
        sink = InMemorySink()
        replayer = StreamReplayer(
            monitor, records, speedup=None, tracer=Tracer(sink),
        )
        replayer.run()
        assert replayer.finished.is_set()
        roots = [
            span for span in sink.spans if span["parent_id"] is None
        ]
        assert roots
        assert all(root["name"] == "stream.window" for root in roots)
        # Window indices count up from zero and every fed record is
        # accounted to exactly one window.
        assert [r["attrs"]["window"] for r in roots] == list(range(len(roots)))
        fed = sum(root["attrs"]["records"] for root in roots)
        assert fed == len(records)
        child_names = {
            span["name"] for span in sink.spans if span["parent_id"]
        }
        assert child_names == {"stage.ingest", "stage.publish"}
        for trace in sink.traces:
            assert_wellformed_tree(trace)

    def test_streaming_trace_is_output_neutral(self, golden_store):
        states = []
        for tracer in (None, Tracer(InMemorySink())):
            boot, records = streaming_bootstrap(
                golden_engine(golden_store), golden_store
            )
            monitor, snapshot = boot.build_stack()
            StreamReplayer(
                monitor, records, speedup=None, tracer=tracer
            ).run()
            states.append(streaming_state(snapshot))
        assert states[0] == states[1]


class TestOutputNeutrality:
    @settings(max_examples=6, deadline=None)
    @given(sample=st.integers(min_value=1, max_value=7))
    def test_serial_any_sample_rate_is_byte_identical(
        self, golden_store, baseline, sample
    ):
        snapshot, _ = run_serial(golden_store, sample=sample)
        assert json.dumps(snapshot, sort_keys=True) == baseline

    def test_sampling_drops_whole_traces_only(self, golden_store):
        sink = InMemorySink()
        engine = golden_engine(golden_store)
        engine.tracer = Tracer(sink, sample=2)
        for _ in range(4):
            traced_snapshot(engine, golden_store, engine.tracer)
        # Traces 0 and 2 kept, 1 and 3 dropped — and the kept ones are
        # complete trees, never fragments of a partially-sampled run.
        assert len(sink.traces) == 2
        for trace in sink.traces:
            assert_wellformed_tree(trace)
            assert {span["name"] for span in trace} >= BATCH_STAGES


class TestOverheadBudget:
    RUNS = 5
    BUDGET_RELATIVE = 1.05
    #: Absolute grace for scheduler noise: the golden day runs in tens
    #: of milliseconds, where a single context switch exceeds 5%.
    BUDGET_ABSOLUTE_S = 0.02

    @staticmethod
    def _median_runtime(make_engine, store, runs):
        samples = []
        for _ in range(runs):
            engine = make_engine()
            start = time.perf_counter()
            pipeline_snapshot(engine, store)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def test_tracing_overhead_under_budget(self, golden_store):
        def untraced():
            return golden_engine(golden_store)

        def traced():
            engine = golden_engine(golden_store)
            engine.tracer = Tracer(InMemorySink())
            return engine

        # Warm both paths (imports, numpy caches) before measuring.
        pipeline_snapshot(untraced(), golden_store)
        pipeline_snapshot(traced(), golden_store)
        base = self._median_runtime(untraced, golden_store, self.RUNS)
        with_tracing = self._median_runtime(traced, golden_store, self.RUNS)
        budget = base * self.BUDGET_RELATIVE + self.BUDGET_ABSOLUTE_S
        assert with_tracing <= budget, (
            f"tracing overhead over budget: {with_tracing:.4f}s traced vs "
            f"{base:.4f}s untraced (budget {budget:.4f}s)"
        )
