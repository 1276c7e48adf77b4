"""Orchestration: one conformance case end to end.

For each case day, :func:`run_case`

1. runs the batch class (the serial engine) and checks it against the
   brute-force DBSCAN and direct WTE/QCD oracles;
2. freezes the serial run's tier-1 context into a
   :class:`~repro.service.app.DayBootstrap` and runs the streaming
   class on ``serve``'s stack, loop and replay order: plain replay,
   kill/restart replay (state *and* history segments must match), and
   buffered ordered-vs-disordered replay;
3. checks the single-run invariants (WTE ordering, Little's law,
   version monotonicity);
4. on the first divergence, ddmin-shrinks the day down to a minimal
   reproducing record set and writes artifacts: ``minimal_day.csv``
   (committed-fixture CSV shape), ``bootstrap.json`` (the frozen
   context) and ``repro.sh`` (one command that exits 1 on the same
   divergence).

Each check is one function returning its problem list; the case and
the shrink predicate both call it, and a path that raises is a
divergence.

Shrinking verifies the divergence survives a CSV round-trip first —
simulated days carry sub-second timestamps the fixture format
truncates, and a minimal day that only diverges in memory would be a
useless artifact.
"""

from __future__ import annotations

import contextlib
import json
import os
import shlex
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.conformance import faults as faults_mod
from repro.conformance import invariants, oracles
from repro.conformance.canonical import DayBootstrap, make_bootstrap
from repro.conformance.diff import diff_values
from repro.conformance.matrix import ConformanceCase
from repro.conformance.paths import (
    BatchRun,
    StreamingRun,
    run_kill_restart,
    run_serial,
    run_streaming,
)
from repro.conformance.shrink import shrink_records
from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.spots import SpotDetectionParams
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import four_zone_partition
from repro.service.replay import replay_order
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord

@dataclass
class CheckOutcome:
    """One check's verdict on one case."""

    name: str
    ok: bool
    details: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {"name": self.name, "ok": self.ok, "details": self.details}


@dataclass
class CaseReport:
    """Everything one case run produced."""

    name: str
    records: int = 0
    spots: int = 0
    seconds: float = 0.0
    checks: List[CheckOutcome] = field(default_factory=list)
    shrink: Optional[Dict] = None
    artifact_dir: Optional[str] = None

    @property
    def divergent(self) -> bool:
        return any(not check.ok for check in self.checks)

    @property
    def failed_checks(self) -> List[CheckOutcome]:
        return [check for check in self.checks if not check.ok]

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "records": self.records,
            "spots": self.spots,
            "seconds": round(self.seconds, 3),
            "divergent": self.divergent,
            "checks": [check.to_dict() for check in self.checks],
            "shrink": self.shrink,
            "artifact_dir": self.artifact_dir,
        }


def build_engine(
    store: MdtLogStore, case: ConformanceCase
) -> QueueAnalyticEngine:
    """A deterministic engine from the day's own records (bbox +
    four-zone partition), the same way the golden fixture builds one —
    independent of whether the day came from the simulator or a CSV."""
    bbox = BBox.from_points(
        (r.lon, r.lat) for r in store.iter_records()
    ).expanded(0.01)
    lon, lat = bbox.center
    return QueueAnalyticEngine(
        zones=four_zone_partition(bbox),
        projection=LocalProjection(lon, lat),
        config=EngineConfig(
            detection=SpotDetectionParams(min_pts=case.min_pts),
            observed_fraction=case.coverage,
        ),
        city_bbox=bbox,
    )


def _span(tracer, name: str, **attrs):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attrs)


def run_case(
    case: ConformanceCase,
    *,
    store: Optional[MdtLogStore] = None,
    bootstrap: Optional[DayBootstrap] = None,
    checks: Optional[Sequence[str]] = None,
    shrink: bool = True,
    shrink_max_runs: int = 400,
    out_dir=None,
    workdir=None,
    fault: Optional[str] = None,
    metrics=None,
    tracer=None,
) -> CaseReport:
    """Run one case through every enabled check.

    Args:
        case: the scenario/path configuration.
        store: a pre-loaded day (``--input``); simulated when None.
        bootstrap: a frozen context (repro mode) — the engine and the
            streaming stack come from it instead of being re-derived,
            so a minimal shrunk day reproduces against the original
            day's spots and thresholds.
        checks: subset of :data:`ALL_CHECKS` to run (None = all).
        shrink: reduce the first divergence to a minimal day.
        shrink_max_runs: predicate budget for the reduction.
        out_dir: where per-case artifacts (report + divergence repro)
            are written; nothing is written when None.
        workdir: scratch directory for checkpoints/history (a temp dir
            when None).
        fault: name of a test-only fault from
            :mod:`repro.conformance.faults` to inject.
        metrics: optional :class:`~repro.service.metrics.MetricsRegistry`
            maintaining the ``conformance.*`` instruments.
        tracer: optional tracer; emits one ``conformance.case`` span
            with per-path children.

    Raises:
        ValueError: for an unknown check or fault name.
    """
    enabled = list(checks) if checks is not None else list(ALL_CHECKS)
    unknown = [c for c in enabled if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    if fault is not None and fault not in faults_mod.FAULTS:
        raise ValueError(
            f"unknown fault {fault!r} "
            f"(have: {', '.join(sorted(faults_mod.FAULTS))})"
        )

    report = CaseReport(name=case.name)
    started = time.perf_counter()
    fault_ctx = (
        faults_mod.fault_context(fault)
        if fault is not None
        else contextlib.nullcontext()
    )
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            _span(tracer, "conformance.case", case=case.name, fault=fault or "")
        )
        stack.enter_context(fault_ctx)
        if workdir is None:
            workdir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="conformance-")
            )
        workdir = Path(workdir)

        if store is None:
            with _span(tracer, "conformance.simulate", seed=case.seed):
                store = case.simulate()
        day = _execute_checks(
            case, store, bootstrap, enabled, report, workdir, tracer
        )
        # Shrink while the fault (if any) is still patched in — the
        # predicate must see the same world the divergence arose in.
        if report.divergent and shrink and day is not None:
            _shrink_first_divergence(
                day, report, shrink_max_runs, metrics, tracer
            )

    report.seconds = time.perf_counter() - started
    if metrics is not None:
        metrics.counter("conformance.cases").inc()
        metrics.histogram("conformance.case_seconds").observe(report.seconds)
        for check in report.checks:
            metrics.counter("conformance.checks_run").inc()
            if not check.ok:
                metrics.counter("conformance.divergences").inc()
                if check.name == "invariants":
                    metrics.counter(
                        "conformance.invariant_violations"
                    ).inc(len(check.details))
    if out_dir is not None:
        report.artifact_dir = str(
            _write_artifacts(case, report, bootstrap, Path(out_dir), fault)
        )
    return report


def run_matrix(
    cases: Sequence[ConformanceCase],
    *,
    progress: Optional[Callable[[CaseReport], None]] = None,
    **kwargs,
) -> List[CaseReport]:
    """Run every case; ``progress`` is called after each one."""
    reports = []
    for case in cases:
        report = run_case(case, **kwargs)
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports


# -- check execution --------------------------------------------------------


@dataclass
class _Day:
    """One day as every check sees it.

    Holds the frozen bootstrap and the rows each streaming path
    replays; the serial run and the plain replay are made on first use,
    so a shrink probe runs only the paths its check needs.
    """

    case: ConformanceCase
    boot: DayBootstrap
    engine: QueueAnalyticEngine
    store: MdtLogStore
    """The raw day the serial run cleans."""
    records: List[MdtRecord]
    """The replay rows, in :func:`~repro.service.replay.replay_order`."""
    workdir: Path
    tracer: object = None

    @classmethod
    def fixed(
        cls,
        case: ConformanceCase,
        boot: DayBootstrap,
        store: MdtLogStore,
        workdir: Path,
        tracer=None,
    ) -> "_Day":
        """A day checked under a given bootstrap (repro mode and shrink
        probes).  Its records are already cleaned, and re-cleaning a
        subset can drop records (the state-transition chain is
        trajectory-dependent), so the day is replayed raw."""
        return cls(
            case, boot, boot.build_engine(), store,
            replay_order(store.iter_records()), workdir, tracer,
        )

    @cached_property
    def serial(self) -> BatchRun:
        with _span(self.tracer, "conformance.serial"):
            return run_serial(self.engine, self.store, self.boot.grid)

    @cached_property
    def plain(self) -> StreamingRun:
        with _span(self.tracer, "conformance.stream"):
            return run_streaming(
                self.boot,
                self.records,
                history_dir=self.history_dir("history-straight"),
            )

    def history_dir(self, name: str) -> Optional[Path]:
        return self.workdir / name if self.case.history else None


def _check_oracle_spots(day: _Day) -> List[str]:
    with _span(day.tracer, "conformance.oracle_spots"):
        return oracles.check_bruteforce_spots(
            day.engine,
            MdtLogStore.from_batch(day.serial.cleaned),
            day.serial.detection,
        )


def _check_oracle_batch(day: _Day) -> List[str]:
    return oracles.check_batch_recompute(
        day.serial.analyses, day.serial.grid, day.engine.amplification
    )


def _check_stream_restart(day: _Day) -> List[str]:
    n = len(day.records)
    if n < 2:
        return []  # a one-record stream has no kill point
    crash_after = max(1, min(n - 1, int(n * day.case.kill_frac)))
    with _span(
        day.tracer, "conformance.kill_restart", crash_after=crash_after
    ):
        restarted = run_kill_restart(
            day.boot,
            day.records,
            crash_after=crash_after,
            checkpoint_every=day.case.checkpoint_every,
            checkpoint_dir=day.workdir / "checkpoints",
            history_dir=day.history_dir("history-restart"),
        )
    return diff_values(
        day.plain.state, restarted.state
    ) + invariants.check_history_identity(
        day.plain.history_digests, restarted.history_digests
    )


def _check_stream_disorder(day: _Day) -> List[str]:
    case = day.case
    with _span(
        day.tracer, "conformance.disorder", window=case.disorder_window_s
    ):
        ordered = run_streaming(
            day.boot, day.records, buffer_window_s=case.disorder_window_s
        )
        disordered = run_streaming(
            day.boot,
            day.records,
            disorder_seed=case.seed,
            disorder_window_s=case.disorder_window_s,
            duplicate_rate=case.duplicate_rate,
            buffer_window_s=case.disorder_window_s,
        )
    return diff_values(ordered.state, disordered.state)


def _check_oracle_stream(day: _Day) -> List[str]:
    return oracles.check_streaming_labels(day.plain.results, day.boot)


def _check_invariants(day: _Day) -> List[str]:
    serial, plain = day.serial, day.plain
    return (
        invariants.check_wait_events(serial.analyses)
        + invariants.check_littles_law_batch(serial.analyses, serial.grid)
        + invariants.check_littles_law_streaming(plain.results, day.boot.grid)
        + invariants.check_version_monotonic(plain.versions)
    )


#: Every check the harness knows, in execution order; each returns its
#: problem list (empty when conformant).
_CHECKS: Dict[str, Callable[[_Day], List[str]]] = {
    "oracle-spots": _check_oracle_spots,
    "oracle-batch": _check_oracle_batch,
    "stream-restart": _check_stream_restart,
    "stream-disorder": _check_stream_disorder,
    "oracle-stream": _check_oracle_stream,
    "invariants": _check_invariants,
}
ALL_CHECKS = tuple(_CHECKS)

#: Checks whose predicate is a pure function of the record set, so a
#: diverging day can be ddmin-shrunk against them.
SHRINKABLE_CHECKS = frozenset(ALL_CHECKS) - {"invariants"}


def _run_check(name: str, day: _Day) -> List[str]:
    """One check's problems on one day.  A path that raises is a
    divergence: one problem line naming the exception."""
    try:
        return _CHECKS[name](day)
    except Exception as exc:
        return [f"a path raised {type(exc).__name__}: {exc}"]


def _execute_checks(
    case: ConformanceCase,
    store: MdtLogStore,
    bootstrap: Optional[DayBootstrap],
    enabled: List[str],
    report: CaseReport,
    workdir: Path,
    tracer,
) -> Optional[_Day]:
    """Run the enabled checks into ``report``; returns the checked day
    (None when cleaning left no record)."""
    if bootstrap is not None:
        day = _Day.fixed(case, bootstrap, store, workdir, tracer)
    else:
        # Tier 1 cleans the day once; every streaming path replays its
        # rows under the bootstrap frozen from this run.
        engine = build_engine(store, case)
        with _span(tracer, "conformance.serial"):
            serial = run_serial(engine, store)
        records = replay_order(serial.cleaned.iter_rows())
        if not records:
            report.checks.append(
                CheckOutcome(
                    "oracle-spots", False, ["day is empty after cleaning"]
                )
            )
            return None
        boot = make_bootstrap(
            engine, serial.detection, serial.analyses, serial.grid,
            grace_s=case.grace_s,
        )
        day = _Day(case, boot, engine, store, records, workdir, tracer)
        day.serial = serial  # already run: fills the cached property
    report.records = len(day.records)
    report.spots = len(day.serial.detection.spots)
    for name in ALL_CHECKS:
        if name not in enabled:
            continue
        if name == "stream-disorder" and case.disorder_window_s <= 0:
            continue
        problems = _run_check(name, day)
        report.checks.append(CheckOutcome(name, not problems, problems))
    return day


# -- shrinking and artifacts ------------------------------------------------


def divergence_predicate(
    case: ConformanceCase,
    boot: DayBootstrap,
    check: str,
) -> Callable[[List[MdtRecord]], bool]:
    """"Does this record subset still fail ``check``?" — the fixed-
    context predicate the shrinker probes with.

    It runs the case's own check function on the subset.  The bootstrap
    (spot set, thresholds, grid, engine geometry) is held frozen:
    re-deriving spots from a 30-record subset would detect nothing and
    the divergence would vanish for the wrong reason.
    """
    if check not in SHRINKABLE_CHECKS:
        raise ValueError(f"check {check!r} is not shrinkable")

    def diverges(subset: List[MdtRecord]) -> bool:
        if not subset:
            return False
        with tempfile.TemporaryDirectory(prefix="conformance-shrink-") as tmp:
            day = _Day.fixed(case, boot, MdtLogStore(subset), Path(tmp))
            return bool(_run_check(check, day))

    return diverges


def csv_roundtrip(records: Sequence[MdtRecord]) -> List[MdtRecord]:
    """Records as they come back out of the fixture CSV format
    (second-precision timestamps, 6-decimal coordinates)."""
    return [MdtRecord.from_csv_row(r.to_csv_row()) for r in records]


def _shrink_first_divergence(
    day: _Day,
    report: CaseReport,
    max_runs: int,
    metrics,
    tracer,
) -> None:
    target = next(
        (c for c in report.failed_checks if c.name in SHRINKABLE_CHECKS),
        None,
    )
    if target is None:
        return
    predicate = divergence_predicate(day.case, day.boot, target.name)

    roundtripped = csv_roundtrip(day.records)
    csv_stable = predicate(roundtripped)
    to_shrink = roundtripped if csv_stable else day.records
    with _span(tracer, "conformance.shrink", check=target.name):
        try:
            result = shrink_records(
                to_shrink, predicate, max_runs=max_runs
            )
        except ValueError:
            report.shrink = {
                "check": target.name,
                "error": "divergence did not reproduce under the fixed "
                "bootstrap; not shrinkable",
            }
            return
    if metrics is not None:
        metrics.counter("conformance.shrink.predicate_runs").inc(
            result.predicate_runs
        )
    report.shrink = {
        "check": target.name,
        "initial_records": result.initial_records,
        "minimal_records": len(result.records),
        "taxis_kept": result.taxis_kept,
        "predicate_runs": result.predicate_runs,
        "budget_exhausted": result.exhausted,
        "csv_roundtrip_stable": csv_stable,
    }
    report._minimal_records = result.records  # type: ignore[attr-defined]
    report._bootstrap = day.boot  # type: ignore[attr-defined]


def _write_artifacts(
    case: ConformanceCase,
    report: CaseReport,
    bootstrap: Optional[DayBootstrap],
    out_dir: Path,
    fault: Optional[str] = None,
) -> Path:
    case_dir = out_dir / case.name
    case_dir.mkdir(parents=True, exist_ok=True)
    with open(case_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    minimal: Optional[List[MdtRecord]] = getattr(
        report, "_minimal_records", None
    )
    boot: Optional[DayBootstrap] = getattr(report, "_bootstrap", bootstrap)
    if not report.divergent or minimal is None or boot is None:
        return case_dir
    MdtLogStore(minimal).to_csv(case_dir / "minimal_day.csv")
    boot.save(case_dir / "bootstrap.json")
    check = report.shrink["check"] if report.shrink else "oracle-spots"
    # Self-locating: the script keeps working when the artifact
    # directory is downloaded from CI and unpacked anywhere.
    command = (
        "taxiqueue conformance run"
        ' --input "$DIR"/minimal_day.csv'
        ' --bootstrap "$DIR"/bootstrap.json'
        f" --checks {check}"
        f" --disorder-window {case.disorder_window_s}"
        f" --kill-frac {case.kill_frac}"
        f" --checkpoint-every {case.checkpoint_every}"
        " --no-shrink"
    )
    if fault is not None:
        command += f" --inject-fault {shlex.quote(fault)}"
    script = case_dir / "repro.sh"
    script.write_text(
        "#!/bin/sh\n"
        "# One-command reproduction of the shrunk divergence\n"
        f"# (case {case.name}, check {check}).\n"
        "# Exits 1 while the divergence reproduces, 0 once it is fixed.\n"
        'DIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)\n'
        f"{command}\n",
        encoding="utf-8",
    )
    os.chmod(script, 0o755)
    return case_dir
