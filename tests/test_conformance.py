"""Smoke tier of the cross-engine conformance harness.

Fast enough for tier-1: unit tests of the diff/shrink/invariant
building blocks, one full conformant run over the committed golden
day, and the teeth test — an injected fault must be caught, shrunk to
a tiny day, and reproduce from the emitted artifacts.  The broad
seeded matrix runs in CI (``taxiqueue conformance run --seeds 5``),
not here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.conformance import (
    ConformanceCase,
    DayBootstrap,
    default_matrix,
    run_case,
)
from repro.conformance.diff import diff_values
from repro.conformance.invariants import (
    check_history_identity,
    check_version_monotonic,
    check_wait_events,
)
from repro.conformance.canonical import make_bootstrap
from repro.conformance.matrix import csv_case
from repro.conformance.paths import run_serial
from repro.conformance.runner import (
    ALL_CHECKS,
    SHRINKABLE_CHECKS,
    build_engine,
)
from repro.conformance.shrink import _Budget, ddmin, shrink_records
from repro.core.engine import SpotAnalysis
from repro.core.types import QueueSpot
from repro.core.wte import WaitEvent
from repro.states.states import TaxiState
from repro.trace.log_store import MdtLogStore

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_CSV = DATA_DIR / "golden_day.csv"


@pytest.fixture(scope="module")
def golden_store() -> MdtLogStore:
    return MdtLogStore.from_csv(GOLDEN_CSV)


class TestDiffValues:
    def test_equal_scalars_and_containers(self):
        assert diff_values(1, 1) == []
        assert diff_values({"a": [1, 2]}, {"a": [1, 2]}) == []

    def test_int_float_cross_type_tolerated(self):
        assert diff_values(1, 1.0) == []
        assert diff_values({"x": 2.0}, {"x": 2}) == []

    def test_bool_is_not_a_number(self):
        assert diff_values(True, 1) != []

    def test_nested_paths_point_at_the_leaf(self):
        diffs = diff_values({"a": {"b": [0, 1]}}, {"a": {"b": [0, 2]}})
        assert len(diffs) == 1
        assert "$.a.b[1]" in diffs[0]

    def test_missing_key_and_length_mismatch(self):
        assert diff_values({"a": 1}, {}) != []
        assert diff_values([1, 2], [1]) != []

    def test_limit_caps_the_report(self):
        diffs = diff_values(list(range(100)), list(range(100, 200)),
                            limit=5)
        assert len(diffs) <= 6  # the cap plus one "..." marker at most


class TestDdmin:
    def test_reduces_to_the_minimal_failing_pair(self):
        items = list(range(100))
        test = lambda sub: 13 in sub and 77 in sub  # noqa: E731
        result = ddmin(items, test, _Budget(1000))
        assert sorted(result) == [13, 77]

    def test_preserves_input_order(self):
        items = [5, 3, 9, 1]
        result = ddmin(items, lambda sub: 3 in sub and 1 in sub,
                       _Budget(1000))
        assert result == [3, 1]

    def test_budget_exhaustion_returns_a_still_failing_subset(self):
        items = list(range(64))
        test = lambda sub: 1 in sub and 62 in sub  # noqa: E731
        budget = _Budget(3)
        result = ddmin(items, test, budget)
        assert test(result)
        assert budget.exhausted

    def test_shrink_records_rejects_a_conformant_day(self, golden_store):
        records = list(golden_store.iter_records())[:20]
        with pytest.raises(ValueError):
            shrink_records(records, lambda subset: False)


class TestInvariantChecks:
    def test_version_monotonic(self):
        assert check_version_monotonic([1, 2, 3]) == []
        assert check_version_monotonic([]) == []
        assert check_version_monotonic([1, 3]) != []
        assert check_version_monotonic([2, 2]) != []

    def test_history_identity(self):
        same = {"day-1.json": "abc", "day-2.json": "def"}
        assert check_history_identity(dict(same), dict(same)) == []
        assert check_history_identity(same, {"day-1.json": "abc"}) != []
        assert check_history_identity(
            same, {"day-1.json": "abc", "day-2.json": "XXX"}
        ) != []

    def _analysis(self, events):
        spot = QueueSpot("QS001", 103.8, 1.33, "Central", 50, 6.0)
        return {"QS001": SpotAnalysis(
            spot=spot, wait_events=events, features=[], labels=[],
            thresholds=None,
        )}

    def test_wait_events_accept_paper_start_states(self):
        events = [
            WaitEvent(0.0, 60.0, TaxiState.FREE, "T1"),
            WaitEvent(30.0, 90.0, TaxiState.ONCALL, "T2"),
            WaitEvent(50.0, 95.0, TaxiState.ARRIVED, "T3"),
        ]
        assert check_wait_events(self._analysis(events)) == []

    def test_wait_events_flag_payment_start_and_disorder(self):
        # POB can never open a wait (the PAYMENT-reset rule), and the
        # extractor emits events sorted by start time.
        bad_state = [WaitEvent(0.0, 60.0, TaxiState.POB, "T1")]
        assert check_wait_events(self._analysis(bad_state)) != []
        unsorted = [
            WaitEvent(50.0, 95.0, TaxiState.FREE, "T1"),
            WaitEvent(0.0, 60.0, TaxiState.FREE, "T2"),
        ]
        assert check_wait_events(self._analysis(unsorted)) != []


class TestBootstrapRoundTrip:
    def test_json_round_trip_is_lossless(self, golden_store, tmp_path):
        engine = build_engine(golden_store, csv_case("golden_day"))
        serial = run_serial(engine, golden_store)
        boot = make_bootstrap(
            engine, serial.detection, serial.analyses, serial.grid
        )
        path = tmp_path / "bootstrap.json"
        boot.save(path)
        loaded = DayBootstrap.load(path)
        assert loaded.to_json_dict() == boot.to_json_dict()
        assert loaded.grid == boot.grid
        assert loaded.spots == boot.spots
        assert loaded.thresholds == boot.thresholds

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999}), encoding="utf-8")
        with pytest.raises(ValueError):
            DayBootstrap.load(path)


class TestMatrix:
    def test_default_matrix_is_deterministic_and_varied(self):
        a = default_matrix(seeds=5)
        b = default_matrix(seeds=5)
        assert a == b
        assert len({case.seed for case in a}) == 5
        assert any(case.disorder_window_s == 0.0 for case in a)

    def test_default_matrix_rejects_zero_seeds(self):
        with pytest.raises(ValueError):
            default_matrix(seeds=0)

    def test_case_validation(self, golden_store):
        with pytest.raises(ValueError):
            run_case(csv_case("x"), store=golden_store,
                     checks=("no-such-check",))
        with pytest.raises(ValueError):
            run_case(csv_case("x"), store=golden_store,
                     fault="no-such-fault")


class TestGoldenDayConformance:
    def test_all_checks_pass_on_the_committed_day(self, golden_store):
        report = run_case(csv_case("golden_day"), store=golden_store,
                          shrink=False)
        assert not report.divergent, [
            (c.name, c.details[:3]) for c in report.failed_checks
        ]
        assert {c.name for c in report.checks} == set(ALL_CHECKS)
        # records counts the cleaned stream every path consumed
        assert 0 < report.records <= len(golden_store)
        assert report.spots >= 1
        assert report.shrink is None


class TestFaultInjection:
    """The harness must have teeth: a planted bug in one execution
    path is caught, shrunk to a tiny committed-fixture-shaped day, and
    the emitted artifacts reproduce it on demand."""

    @pytest.fixture(scope="class")
    def fault_report(self, golden_store, tmp_path_factory):
        out = tmp_path_factory.mktemp("conf-artifacts")
        report = run_case(
            csv_case("golden_day"),
            store=golden_store,
            checks=("oracle-stream",),
            fault="label-flip",
            out_dir=out,
        )
        return report, out

    def test_fault_is_caught_and_shrunk_small(self, fault_report):
        report, _ = fault_report
        assert report.divergent
        assert report.shrink is not None and "error" not in report.shrink
        assert report.shrink["check"] in SHRINKABLE_CHECKS
        assert report.shrink["minimal_records"] <= 50
        assert report.shrink["minimal_records"] < \
            report.shrink["initial_records"]

    def test_artifacts_are_emitted(self, fault_report):
        report, out = fault_report
        case_dir = Path(report.artifact_dir)
        assert case_dir.parent == Path(out)
        assert (case_dir / "report.json").is_file()
        assert (case_dir / "minimal_day.csv").is_file()
        assert (case_dir / "bootstrap.json").is_file()
        repro = (case_dir / "repro.sh").read_text(encoding="utf-8")
        assert "taxiqueue conformance run" in repro
        assert "--inject-fault label-flip" in repro

    def test_minimal_day_reproduces_only_under_the_fault(
        self, fault_report
    ):
        report, _ = fault_report
        case_dir = Path(report.artifact_dir)
        store = MdtLogStore.from_csv(case_dir / "minimal_day.csv")
        boot = DayBootstrap.load(case_dir / "bootstrap.json")
        again = run_case(
            csv_case("minimal_day"), store=store, bootstrap=boot,
            checks=("oracle-stream",), shrink=False, fault="label-flip",
        )
        assert again.divergent
        clean = run_case(
            csv_case("minimal_day"), store=store, bootstrap=boot,
            checks=("oracle-stream",), shrink=False,
        )
        assert not clean.divergent

    def test_littles_drift_is_caught_by_the_invariant(
        self, golden_store
    ):
        report = run_case(
            csv_case("golden_day"), store=golden_store,
            checks=("invariants",), fault="littles-drift", shrink=False,
        )
        assert report.divergent
        assert any("Little" in d or "little" in d
                   for c in report.failed_checks for d in c.details)


class TestStreamingClassRunsServe:
    """The streaming class checks the state ``serve`` serves: its stack,
    its replay loop and its replay order."""

    def test_plain_replay_is_what_serve_serves(
        self, golden_store, monkeypatch
    ):
        import repro.conformance.runner as runner_mod
        from repro.conformance.canonical import streaming_state
        from repro.service.app import QueueService, ServiceConfig
        from repro.stream.monitor import StreamingQueueMonitor

        fed = []
        real_feed = StreamingQueueMonitor.feed

        def recording_feed(monitor, record):
            fed.append(record)
            return real_feed(monitor, record)

        monkeypatch.setattr(StreamingQueueMonitor, "feed", recording_feed)
        plain = []
        real_run_streaming = runner_mod.run_streaming

        def keep_plain(*args, **kwargs):
            plain.append(real_run_streaming(*args, **kwargs))
            return plain[-1]

        monkeypatch.setattr(runner_mod, "run_streaming", keep_plain)

        case = csv_case("golden_day")
        report = run_case(
            case, store=golden_store, checks=["oracle-stream"], shrink=False
        )
        assert not report.divergent
        (conformance_run,) = plain
        conformance_fed, fed[:] = list(fed), []

        service = QueueService.from_day(
            golden_store,
            build_engine(golden_store, case),
            ServiceConfig(speedup=None),
        )
        try:
            service.warm()
        finally:
            # The HTTP listener was bound but never started; release it.
            service.server._httpd.server_close()
        assert len(conformance_fed) == report.records == len(fed)
        assert conformance_fed == fed
        assert conformance_run.state == streaming_state(service.store)


class TestRestartCheck:
    """``stream-restart``: one check function for the case and the
    shrink predicate, which a crash in any path fails."""

    def test_crash_in_the_resumed_replay_is_a_divergence(
        self, golden_store, monkeypatch
    ):
        from repro.resilience.checkpoint import ServiceCheckpointer

        last_ts = max(r.ts for r in golden_store.iter_records())
        real_restore = ServiceCheckpointer.restore_latest

        def restore_then_break(checkpointer):
            position = real_restore(checkpointer)
            monitor = checkpointer.monitor
            real_feed = monitor.feed

            def feed(record):
                if record.ts == last_ts:
                    raise RuntimeError("injected failure on the last record")
                return real_feed(record)

            monitor.feed = feed
            return position

        monkeypatch.setattr(
            ServiceCheckpointer, "restore_latest", restore_then_break
        )
        report = run_case(
            csv_case("golden_day"), store=golden_store,
            checks=["stream-restart"], shrink=False,
        )
        (outcome,) = report.checks
        assert not outcome.ok
        assert any(
            "RuntimeError" in d and "injected failure on the last record" in d
            for d in outcome.details
        ), outcome.details

    def test_history_only_divergence_is_shrunk(
        self, golden_store, monkeypatch
    ):
        from repro.history.writer import HistoryWriter

        real_restore = HistoryWriter.restore_state

        def lossy_restore(writer, state):
            state = dict(state)
            state["by_day"] = {
                day: list(records)[:-1]
                for day, records in state["by_day"].items()
            }
            real_restore(writer, state)

        monkeypatch.setattr(HistoryWriter, "restore_state", lossy_restore)
        report = run_case(
            csv_case("golden_day"), store=golden_store,
            checks=["stream-restart"], shrink_max_runs=8,
        )
        (outcome,) = report.checks
        assert not outcome.ok
        assert all(".seg" in d for d in outcome.details), outcome.details
        assert report.shrink is not None
        assert "error" not in report.shrink, report.shrink
        assert report.shrink["minimal_records"] < \
            report.shrink["initial_records"]


class TestSimulatedCaseSmoke:
    def test_one_small_matrix_case_is_conformant(self):
        # One genuinely simulated seed (small fleet to keep tier-1
        # fast); the full 5-seed sweep is CI's job.
        case = ConformanceCase(
            name="smoke", seed=4242, fleet=30, n_spots=4, n_decoys=2,
            disorder_window_s=60.0, checkpoint_every=300,
        )
        report = run_case(case, shrink=False)
        assert not report.divergent, [
            (c.name, c.details[:3]) for c in report.failed_checks
        ]
        assert report.records > 0
