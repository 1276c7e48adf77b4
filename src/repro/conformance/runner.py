"""Orchestration: one conformance case end to end.

For each case day, :func:`run_case`

1. runs the batch class (the serial engine) and checks it against the
   brute-force DBSCAN and direct WTE/QCD oracles;
2. freezes the serial run's tier-1 context into a
   :class:`~repro.conformance.canonical.DayBootstrap` and runs the
   streaming class: plain replay, kill/restart replay (state *and*
   history segments must match), and buffered ordered-vs-disordered
   replay;
3. checks the single-run invariants (WTE ordering, Little's law,
   version monotonicity);
4. on the first divergence, ddmin-shrinks the day down to a minimal
   reproducing record set and writes artifacts: ``minimal_day.csv``
   (committed-fixture CSV shape), ``bootstrap.json`` (the frozen
   context) and ``repro.sh`` (one command that exits 1 on the same
   divergence).

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
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.conformance import faults as faults_mod
from repro.conformance import invariants, oracles
from repro.conformance.canonical import (
    DayBootstrap,
    canonical_json,
    make_bootstrap,
)
from repro.conformance.diff import diff_values
from repro.conformance.matrix import ConformanceCase
from repro.conformance.paths import (
    canonical_records,
    run_kill_restart,
    run_serial,
    run_streaming,
)
from repro.conformance.shrink import ShrinkResult, shrink_records
from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.spots import SpotDetectionParams
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import four_zone_partition
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord

#: Every check the harness knows, in execution order.
ALL_CHECKS = (
    "oracle-spots",
    "oracle-batch",
    "stream-restart",
    "stream-disorder",
    "oracle-stream",
    "invariants",
)

#: Checks whose predicate is a pure function of the record set, so a
#: diverging day can be ddmin-shrunk against them.
SHRINKABLE_CHECKS = frozenset(ALL_CHECKS) - {"invariants"}


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
        _execute_checks(
            case, store, bootstrap, enabled, report, workdir, tracer
        )
        # Shrink while the fault (if any) is still patched in — the
        # predicate must see the same world the divergence arose in.
        if report.divergent and shrink:
            _shrink_first_divergence(
                case, store, bootstrap, report, shrink_max_runs,
                metrics, tracer,
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


def _execute_checks(
    case: ConformanceCase,
    store: MdtLogStore,
    bootstrap: Optional[DayBootstrap],
    enabled: List[str],
    report: CaseReport,
    workdir: Path,
    tracer,
) -> None:
    engine = (
        bootstrap.build_engine()
        if bootstrap is not None
        else build_engine(store, case)
    )
    with _span(tracer, "conformance.serial"):
        serial = run_serial(
            engine, store, None if bootstrap is None else bootstrap.grid
        )
    if bootstrap is None:
        # Tier 1 cleaned the day; every streaming path replays its rows.
        records = canonical_records(serial.cleaned.iter_rows())
    else:
        # Repro mode: a minimal day is made of already-cleaned records;
        # re-cleaning a *subset* can drop records (the state-transition
        # chain is trajectory-dependent), so stream it exactly the way
        # the shrink predicate did — raw.
        records = canonical_records(store)
    report.records = len(records)
    if not records:
        report.checks.append(
            CheckOutcome("oracle-spots", False, ["day is empty after cleaning"])
        )
        return
    grid = serial.grid
    report.spots = len(serial.detection.spots)

    if "oracle-spots" in enabled:
        with _span(tracer, "conformance.oracle_spots"):
            problems = oracles.check_bruteforce_spots(
                engine,
                MdtLogStore.from_batch(serial.cleaned),
                serial.detection,
            )
        report.checks.append(
            CheckOutcome("oracle-spots", not problems, problems)
        )

    if "oracle-batch" in enabled:
        problems = oracles.check_batch_recompute(
            serial.analyses, grid, engine.amplification
        )
        report.checks.append(
            CheckOutcome("oracle-batch", not problems, problems)
        )

    if bootstrap is not None:
        boot = bootstrap
    else:
        boot = _with_grace(
            make_bootstrap(engine, serial.detection, serial.analyses, grid),
            case.grace_s,
        )
    history_a = workdir / "history-straight" if case.history else None
    with _span(tracer, "conformance.stream"):
        plain = run_streaming(boot, records, history_dir=history_a)

    if "stream-restart" in enabled:
        crash_after = max(1, min(len(records) - 1, int(len(records) * case.kill_frac)))
        history_b = workdir / "history-restart" if case.history else None
        with _span(tracer, "conformance.kill_restart", crash_after=crash_after):
            restarted = run_kill_restart(
                boot,
                records,
                crash_after=crash_after,
                checkpoint_every=case.checkpoint_every,
                checkpoint_dir=workdir / "checkpoints",
                history_dir=history_b,
            )
        problems = diff_values(plain.state, restarted.state)
        problems += invariants.check_history_identity(
            plain.history_digests, restarted.history_digests
        )
        report.checks.append(
            CheckOutcome("stream-restart", not problems, problems)
        )

    if "stream-disorder" in enabled and case.disorder_window_s > 0:
        with _span(tracer, "conformance.disorder", window=case.disorder_window_s):
            ordered = run_streaming(
                boot, records, buffer_window_s=case.disorder_window_s
            )
            disordered = run_streaming(
                boot,
                records,
                disorder_seed=case.seed,
                disorder_window_s=case.disorder_window_s,
                duplicate_rate=case.duplicate_rate,
                buffer_window_s=case.disorder_window_s,
            )
        problems = diff_values(ordered.state, disordered.state)
        report.checks.append(
            CheckOutcome("stream-disorder", not problems, problems)
        )

    if "oracle-stream" in enabled:
        problems = oracles.check_streaming_labels(plain.results, boot)
        report.checks.append(
            CheckOutcome("oracle-stream", not problems, problems)
        )

    if "invariants" in enabled:
        problems = (
            invariants.check_wait_events(serial.analyses)
            + invariants.check_littles_law_batch(serial.analyses, grid)
            + invariants.check_littles_law_streaming(plain.results, boot.grid)
            + invariants.check_version_monotonic(plain.versions)
        )
        report.checks.append(
            CheckOutcome("invariants", not problems, problems)
        )


def _with_grace(boot: DayBootstrap, grace_s: float) -> DayBootstrap:
    if boot.grace_s == grace_s:
        return boot
    import dataclasses

    return dataclasses.replace(boot, grace_s=grace_s)


# -- shrinking and artifacts ------------------------------------------------


def divergence_predicate(
    case: ConformanceCase,
    boot: DayBootstrap,
    check: str,
) -> Callable[[List[MdtRecord]], bool]:
    """"Does this record subset still fail ``check``?" — the fixed-
    context predicate the shrinker probes with.

    The bootstrap (spot set, thresholds, grid, engine geometry) is held
    frozen: re-deriving spots from a 30-record subset would detect
    nothing and the divergence would vanish for the wrong reason.
    """
    if check not in SHRINKABLE_CHECKS:
        raise ValueError(f"check {check!r} is not shrinkable")

    def diverges(subset: List[MdtRecord]) -> bool:
        if not subset:
            return False
        sub = MdtLogStore(subset)
        records = canonical_records(subset)
        try:
            if check in ("oracle-spots", "oracle-batch"):
                engine = boot.build_engine()
                serial = run_serial(engine, sub, boot.grid)
                if check == "oracle-spots":
                    return bool(
                        oracles.check_bruteforce_spots(
                            engine,
                            MdtLogStore.from_batch(serial.cleaned),
                            serial.detection,
                        )
                    )
                return bool(
                    oracles.check_batch_recompute(
                        serial.analyses, boot.grid, engine.amplification
                    )
                )
            plain = run_streaming(boot, records)
            if check == "oracle-stream":
                return bool(
                    oracles.check_streaming_labels(plain.results, boot)
                )
            if check == "stream-disorder":
                ordered = run_streaming(
                    boot, records, buffer_window_s=case.disorder_window_s
                )
                disordered = run_streaming(
                    boot,
                    records,
                    disorder_seed=case.seed,
                    disorder_window_s=case.disorder_window_s,
                    duplicate_rate=case.duplicate_rate,
                    buffer_window_s=case.disorder_window_s,
                )
                return ordered.state != disordered.state
            # stream-restart
            with tempfile.TemporaryDirectory(
                prefix="conformance-shrink-"
            ) as tmp:
                tmp = Path(tmp)
                crash_after = max(
                    1,
                    min(len(records) - 1, int(len(records) * case.kill_frac)),
                )
                if crash_after >= len(records):
                    return False
                restarted = run_kill_restart(
                    boot,
                    records,
                    crash_after=crash_after,
                    checkpoint_every=case.checkpoint_every,
                    checkpoint_dir=tmp / "checkpoints",
                )
            return plain.state != restarted.state
        except Exception:
            # A subset that crashes a path is itself a reproduction.
            return True

    return diverges


def csv_roundtrip(records: Sequence[MdtRecord]) -> List[MdtRecord]:
    """Records as they come back out of the fixture CSV format
    (second-precision timestamps, 6-decimal coordinates)."""
    return [MdtRecord.from_csv_row(r.to_csv_row()) for r in records]


def _shrink_first_divergence(
    case: ConformanceCase,
    store: MdtLogStore,
    bootstrap: Optional[DayBootstrap],
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
    if bootstrap is not None:
        boot = bootstrap
        records = canonical_records(store)
    else:
        engine = build_engine(store, case)
        serial = run_serial(engine, store)
        records = canonical_records(serial.cleaned.iter_rows())
        boot = _with_grace(
            make_bootstrap(
                engine, serial.detection, serial.analyses, serial.grid
            ),
            case.grace_s,
        )
    predicate = divergence_predicate(case, boot, target.name)

    roundtripped = csv_roundtrip(records)
    csv_stable = predicate(roundtripped)
    to_shrink = roundtripped if csv_stable else records
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
    report._bootstrap = boot  # type: ignore[attr-defined]


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
