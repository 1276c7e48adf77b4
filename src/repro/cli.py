"""Command-line interface: ``taxiqueue`` (or ``python -m repro``).

Subcommands mirror the deployed system's workflow (paper section 7.1):

* ``simulate`` — generate a day of MDT logs (CSV) plus side files;
* ``detect``  — tier 1: queue spot detection from a log CSV;
* ``analyze`` — tiers 1+2: detection plus queue context labels;
* ``export``  — tiers 1+2 plus frontend artefacts (GeoJSON, CSV, HTML);
* ``serve``   — replay a day through the streaming monitor and serve
  live queue state over HTTP (see ``docs/service.md``); admission
  control via ``--max-inflight`` / ``--rate-limit`` sheds overload
  with ``429 + Retry-After`` (see ``docs/load.md``);
* ``loadtest`` — drive a running service with a seeded deterministic
  workload and gate the result on SLOs (exit 1 on breach);
* ``demo``    — a quick end-to-end run on a small simulated day;
* ``metrics-dump`` — fetch a running service's metrics in Prometheus
  text format;
* ``trace summarize`` — per-stage latency/throughput digest of a JSONL
  trace file (see ``docs/observability.md``);
* ``history query|export`` — query and dump the durable multi-day
  history written by ``serve --history-dir`` (see ``docs/history.md``).

``detect``, ``analyze`` and ``serve`` accept ``--trace-out FILE`` (plus
``--trace-sample N``) to record pipeline trace spans; an unwritable
trace path fails fast — before any pipeline work — with exit code 2.
A ``.jsonl.gz`` trace path writes gzip; ``trace summarize`` and
``history query`` read either encoding transparently.

Invalid serving knobs (non-positive ``--checkpoint-every``, negative
``--disorder-window`` / ``--cache-ttl`` / ``--grace``) fail the same
way: one clear message on stderr and exit code 2, before any pipeline
work runs.  So do a ``--coverage`` outside (0, 1], a ``--bbox`` that is
not four finite numbers ``west,south,east,north`` with west <= east and
south <= north, and an ``export --outdir`` that cannot be created.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.columnar import RecordBatch
from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.reports import (
    citywide_proportions,
    format_proportions,
    format_transition_report,
)
from repro.core.spots import SpotDetectionResult
from repro.core.types import TimeSlotGrid
from repro.geo.bbox import BBox
from repro.geo.zones import four_zone_partition
from repro.geo.point import LocalProjection
from repro.sim.city import DEFAULT_CITY_BBOX
from repro.sim.config import SimulationConfig
from repro.sim.fleet import simulate_day
from repro.trace.log_store import MdtLogStore


def _version() -> str:
    """The installed distribution version, falling back to the package's
    own ``__version__`` when running from a source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def _load_batch(path_str: str) -> Optional[RecordBatch]:
    """Parse a log CSV into columns, or print a clear error and return
    None.

    Subcommands taking an input CSV share this so a missing path or a
    file that is not a log CSV (an empty file, a wrong header) yields a
    one-line message and a non-zero exit instead of a traceback.
    Malformed lines are skipped and counted in ``skipped_lines``.
    """
    path = Path(path_str)
    if not path.is_file():
        print(
            f"error: input CSV not found: {path}\n"
            "hint: generate one with 'taxiqueue simulate --output "
            f"{path}'",
            file=sys.stderr,
        )
        return None
    try:
        return RecordBatch.from_csv(path, on_error="skip")
    except ValueError as exc:  # in skip mode, only a bad header raises
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _report_malformed(batch: RecordBatch, engine=None, file=None) -> None:
    """Add the skipped CSV lines to ``engine``'s cleaning report, and
    say how many there were when there were any."""
    report = None if engine is None else engine.last_cleaning_report
    if report is not None:
        report.malformed_line += batch.skipped_lines
    if batch.skipped_lines:
        print(
            f"  ({batch.skipped_lines} malformed CSV lines skipped)",
            file=file,
        )


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")
    parser.add_argument(
        "--scenario", default=None,
        help="named scenario preset (see repro.sim.scenarios); overrides "
             "--fleet/--spots/--day defaults",
    )
    parser.add_argument(
        "--fleet", type=int, default=600, help="number of simulated taxis"
    )
    parser.add_argument(
        "--spots", type=int, default=30, help="ground-truth queue spots"
    )
    parser.add_argument(
        "--day", type=int, default=0, help="day of week (0=Mon .. 6=Sun)"
    )


def _build_config(args: argparse.Namespace) -> SimulationConfig:
    if getattr(args, "scenario", None):
        from repro.sim.scenarios import build_scenario

        return build_scenario(args.scenario, seed=args.seed)
    return SimulationConfig(
        seed=args.seed,
        fleet_size=args.fleet,
        n_queue_spots=args.spots,
        day_of_week=args.day,
    )


def _engine_for_bbox(
    bbox: BBox, observed_fraction: float, tracer=None
) -> QueueAnalyticEngine:
    zones = four_zone_partition(bbox)
    lon, lat = bbox.center
    return QueueAnalyticEngine(
        zones=zones,
        projection=LocalProjection(lon, lat),
        config=EngineConfig(observed_fraction=observed_fraction),
        city_bbox=bbox,
        tracer=tracer,
    )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record pipeline trace spans to this JSONL file (see "
        "docs/observability.md); tracing is off without it",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="keep every N-th trace (default 1: keep all); sampled "
        "traces are always complete span trees",
    )


def _build_tracer(args: argparse.Namespace):
    """``(tracer, writer)`` from ``--trace-out`` / ``--trace-sample``.

    Returns the null tracer (and no writer) when tracing is off, and
    ``(None, None)`` — after printing a clear error — when the trace
    path cannot be opened.  The open happens *here*, before any
    pipeline work, so a bad path can never crash a run mid-flight.
    """
    from repro.obs.tracer import NULL_TRACER

    path = getattr(args, "trace_out", None)
    if path is None:
        return NULL_TRACER, None
    if args.trace_sample < 1:
        print("error: --trace-sample must be >= 1", file=sys.stderr)
        return None, None
    from repro.obs import Tracer, TraceWriter

    try:
        writer = TraceWriter(path)
    except OSError as exc:
        print(
            f"error: cannot open trace output {path}: {exc}",
            file=sys.stderr,
        )
        return None, None
    return Tracer(writer, sample=args.trace_sample), writer


def _close_tracer(writer) -> None:
    """Close the trace writer and report what was recorded."""
    if writer is None:
        return
    writer.close()
    print(
        f"wrote {writer.traces_written} traces "
        f"({writer.spans_written} spans) to {writer.path}"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    output = simulate_day(config)
    out_path = Path(args.output)
    output.store.to_csv(out_path)
    meta = {
        "records": len(output.store),
        "taxis_observed": output.store.taxi_count,
        "counters": output.counters,
        "failed_bookings": len(output.failed_bookings),
        "bbox": [
            output.city.bbox.west,
            output.city.bbox.south,
            output.city.bbox.east,
            output.city.bbox.north,
        ],
    }
    meta_path = out_path.with_suffix(".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2))
    print(f"wrote {meta['records']} records to {out_path}")
    print(f"wrote metadata to {meta_path}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    tracer, trace_writer = _build_tracer(args)
    if tracer is None:
        return 2
    try:
        with tracer.trace("pipeline.batch", command="detect"):
            batch = _ingest(args, tracer)
            if batch is None:
                return 2
            engine = _engine_for_bbox(
                _bbox_from_args(args, batch), args.coverage, tracer=tracer
            )
            detection = engine.detect_spots(batch)
            with tracer.span("stage.publish", mode="stdout") as span:
                _print_detection(detection, args.top)
                _report_malformed(batch, engine)
                span.set(spots=len(detection.spots))
        return 0
    finally:
        _close_tracer(trace_writer)


def _ingest(args: argparse.Namespace, tracer) -> Optional[RecordBatch]:
    """The traced CSV ingest of ``detect``/``analyze`` (None when the
    input is missing)."""
    with tracer.span("stage.ingest", mode="csv") as span:
        batch = _load_batch(args.input)
        if batch is not None:
            span.set(records=len(batch), malformed=batch.skipped_lines)
    return batch


def _print_detection(detection, top: int) -> None:
    print(f"detected {len(detection.spots)} queue spots "
          f"({detection.noise_count} noise pickup events)")
    for spot in detection.spots[:top]:
        print(
            f"  {spot.spot_id}  ({spot.lon:.5f}, {spot.lat:.5f})  "
            f"zone={spot.zone}  pickups={spot.pickup_count}"
        )


def cmd_analyze(args: argparse.Namespace) -> int:
    tracer, trace_writer = _build_tracer(args)
    if tracer is None:
        return 2
    try:
        with tracer.trace("pipeline.batch", command="analyze"):
            batch = _ingest(args, tracer)
            if batch is None:
                return 2
            engine = _engine_for_bbox(
                _bbox_from_args(args, batch), args.coverage, tracer=tracer
            )
            detection = engine.detect_spots(batch)
            grid = _tier2_grid(batch, detection, engine)
            analyses = engine.disambiguate(batch, detection, grid)
            with tracer.span("stage.publish", mode="stdout") as span:
                print(
                    format_proportions(
                        citywide_proportions(analyses.values())
                    )
                )
                _report_malformed(batch, engine)
                span.set(spots=len(analyses))
    finally:
        _close_tracer(trace_writer)
    if args.spot:
        analysis = analyses.get(args.spot)
        if analysis is None:
            print(f"unknown spot id {args.spot!r}", file=sys.stderr)
            return 1
        print()
        print(format_transition_report(analysis, grid))
    return 0


def _tier2_grid(
    batch: RecordBatch,
    detection: SpotDetectionResult,
    engine: QueueAnalyticEngine,
) -> Optional[TimeSlotGrid]:
    """The grid tier 2 runs and the CLI labels on: it covers tier 1's
    cleaned rows, or the raw rows when cleaning left none (None for a
    day with no rows at all)."""
    cleaned = detection.cleaned_for(batch)
    rows = cleaned if len(cleaned) else batch
    if len(rows) == 0:
        return None
    lo, hi = rows.time_span
    return TimeSlotGrid.covering(lo, hi, engine.config.slot_seconds)


def cmd_export(args: argparse.Namespace) -> int:
    from repro.export.csv_report import (
        write_features_csv,
        write_labels_csv,
        write_spots_csv,
    )
    from repro.export.geojson import dump_geojson, labels_to_geojson, spots_to_geojson
    from repro.export.html_report import write_html_report

    batch = _load_batch(args.input)
    if batch is None:
        return 2
    if len(batch) == 0:
        print(f"error: {args.input}: no records to export", file=sys.stderr)
        return 2
    # Before the pipeline, so a bad --outdir costs no analysis.
    out_dir = Path(args.outdir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc.strerror}", file=sys.stderr)
        return 2
    engine = _engine_for_bbox(_bbox_from_args(args, batch), args.coverage)
    detection = engine.detect_spots(batch)
    grid = _tier2_grid(batch, detection, engine)
    analyses = engine.disambiguate(batch, detection, grid)

    dump_geojson(spots_to_geojson(detection.spots), out_dir / "spots.geojson")
    dump_geojson(
        labels_to_geojson(analyses.values(), grid), out_dir / "labels.geojson"
    )
    write_spots_csv(detection.spots, out_dir / "spots.csv")
    write_labels_csv(analyses.values(), grid, out_dir / "labels.csv")
    write_features_csv(analyses.values(), grid, out_dir / "features.csv")
    write_html_report(analyses.values(), grid, out_dir / "report.html")
    print(f"exported {len(detection.spots)} spots to {out_dir}/")
    for name in (
        "spots.geojson", "labels.geojson", "spots.csv", "labels.csv",
        "features.csv", "report.html",
    ):
        print(f"  {name}")
    _report_malformed(batch, engine)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        seed=args.seed, fleet_size=300, n_queue_spots=15, n_decoy_landmarks=8
    )
    print("simulating a small city day ...")
    output = simulate_day(config)
    print(f"  {len(output.store)} MDT records from "
          f"{output.store.taxi_count} observed taxis")
    city = output.city
    engine = QueueAnalyticEngine(
        zones=city.zones,
        projection=city.projection,
        config=EngineConfig(observed_fraction=config.observed_fraction),
        city_bbox=city.bbox,
        inaccessible=city.water,
    )
    detection = engine.detect_spots(output.store)
    print(f"  detected {len(detection.spots)} queue spots")
    analyses = engine.disambiguate(
        output.store, detection, output.ground_truth.grid
    )
    print()
    print(format_proportions(citywide_proportions(analyses.values())))
    if detection.spots:
        busiest = detection.spots[0].spot_id
        print()
        print(format_transition_report(
            analyses[busiest], output.ground_truth.grid
        ))
    return 0


def _validate_serve_args(args: argparse.Namespace) -> Optional[str]:
    """The first invalid serving knob's message, or None when all are
    fine.  Runs before any pipeline work so a typo'd flag can never
    cost a bootstrap."""
    if args.checkpoint_every <= 0:
        return (
            f"--checkpoint-every must be a positive record count, "
            f"got {args.checkpoint_every}"
        )
    if args.disorder_window < 0:
        return (
            f"--disorder-window must be >= 0 seconds, "
            f"got {args.disorder_window:g}"
        )
    if args.cache_ttl < 0:
        return f"--cache-ttl must be >= 0 seconds, got {args.cache_ttl:g}"
    if args.grace < 0:
        return f"--grace must be >= 0 seconds, got {args.grace:g}"
    if args.max_inflight is not None and args.max_inflight < 1:
        return (
            f"--max-inflight must admit at least one request, "
            f"got {args.max_inflight}"
        )
    if args.rate_limit is not None and args.rate_limit <= 0:
        return (
            f"--rate-limit must be positive requests/second, "
            f"got {args.rate_limit:g}"
        )
    if args.rate_burst is not None and args.rate_burst < 1:
        return f"--rate-burst must be >= 1 token, got {args.rate_burst}"
    if args.rate_burst is not None and args.rate_limit is None:
        return "--rate-burst needs --rate-limit"
    return None


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import EmptyDayError, QueueService, ServiceConfig

    problem = _validate_serve_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    tracer, trace_writer = _build_tracer(args)
    if tracer is None:
        return 2
    if args.input is not None:
        batch = _load_batch(args.input)
        if batch is None:
            _close_tracer(trace_writer)
            return 2
        _report_malformed(batch)
        bbox = _bbox_from_args(args, batch)
        engine = _engine_for_bbox(bbox, args.coverage, tracer=tracer)
        day = batch
        grid = None
        source = args.input
    else:
        config = _build_config(args)
        print("no input CSV given; simulating a day ...")
        output = simulate_day(config)
        day = output.store
        city = output.city
        engine = QueueAnalyticEngine(
            zones=city.zones,
            projection=city.projection,
            config=EngineConfig(observed_fraction=config.observed_fraction),
            city_bbox=city.bbox,
            inaccessible=city.water,
            tracer=tracer,
        )
        grid = output.ground_truth.grid
        source = f"simulated day (seed {config.seed})"

    service_config = ServiceConfig(
        host=args.host,
        port=args.port,
        speedup=None if args.speedup <= 0 else args.speedup,
        cache_ttl_s=args.cache_ttl,
        max_inflight=args.max_inflight,
        rate_limit_rps=args.rate_limit,
        rate_burst=args.rate_burst,
        grace_s=args.grace,
        disorder_window_s=args.disorder_window,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_records=args.checkpoint_every,
        stale_after_s=args.stale_after,
        history_dir=args.history_dir,
        history_day_of_week=args.history_day,
    )
    print(f"bootstrapping spots and thresholds from {source} ...")
    try:
        service = QueueService.from_day(day, engine, service_config, grid)
    except EmptyDayError as exc:
        print(f"error: {source}: {exc}", file=sys.stderr)
        _close_tracer(trace_writer)
        return 2
    if service.resumed_from is not None:
        print(
            f"restored checkpoint from {args.checkpoint_dir}; resuming "
            f"replay at record {service.resumed_from} "
            f"(snapshot v{service.store.version})"
        )
    n_spots = len(service.store.spot_ids)
    service.start()
    print(f"serving {n_spots} spots at {service.server.url}")
    print(f"  GET {service.server.url}/v1/spots")
    print(f"  GET {service.server.url}/v1/citywide")
    print(f"  GET {service.server.url}/v1/metrics")
    if args.history_dir is not None:
        print(f"  GET {service.server.url}/v1/history/citywide")
        print(f"  GET {service.server.url}/v1/history/patterns")
        print(f"  (history segments in {args.history_dir})")
    speed = service_config.speedup
    print(
        f"replaying at {'maximum' if speed is None else f'{speed:g}x'} "
        "speed; Ctrl-C to stop"
    )
    try:
        if args.max_seconds is not None:
            service.replayer.finished.wait(timeout=args.max_seconds)
        else:
            while not service.replayer.finished.wait(timeout=1.0):
                pass
            if service.watchdog is not None:
                service.watchdog.expect_idle()
            print("replay finished; still serving the final snapshot "
                  "(Ctrl-C to stop)")
            while True:
                time.sleep(3600.0)
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.stop()
        _close_tracer(trace_writer)
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Drive a running service with a seeded workload; gate on SLOs.

    Exit codes: 0 — run completed and every configured SLO held;
    1 — SLO breach; 2 — bad arguments or unreachable target.
    """
    from repro.load import (
        PROFILES,
        LoadTestConfig,
        TargetError,
        format_report,
        run_loadtest,
    )

    if args.profile not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        print(
            f"error: unknown profile {args.profile!r} (known: {known})",
            file=sys.stderr,
        )
        return 2
    try:
        config = LoadTestConfig(
            url=args.url,
            profile=args.profile,
            mode=args.mode,
            rate=args.rate,
            concurrency=args.concurrency,
            duration_s=args.duration,
            warmup_s=args.warmup,
            seed=args.seed,
            timeout_s=args.timeout,
            slo_p99_s=args.slo_p99,
            slo_error_rate=args.slo_error_rate,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report, result, breaches = run_loadtest(config)
    except TargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_report(report, result, breaches, config))
    return 1 if breaches else 0


def cmd_metrics_dump(args: argparse.Namespace) -> int:
    """Print a running service's metrics in Prometheus text format."""
    from urllib.error import URLError
    from urllib.request import urlopen

    url = args.url.rstrip("/") + "/v1/metrics?format=prometheus"
    try:
        with urlopen(url, timeout=args.timeout) as response:
            sys.stdout.write(response.read().decode("utf-8"))
    except (URLError, OSError) as exc:
        print(
            f"error: cannot fetch {url}: {exc}\n"
            "hint: is 'taxiqueue serve' running at that address?",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Per-stage latency/throughput digest of a JSONL trace file."""
    from repro.obs import format_summary, load_spans, summarize_spans

    path = Path(args.file)
    if not path.is_file():
        print(f"error: trace file not found: {path}", file=sys.stderr)
        return 2
    try:
        spans = load_spans(path)
    except (ValueError, OSError) as exc:
        # OSError covers a corrupt .gz stream.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"no spans in {path}")
        return 0
    traces = {span["trace_id"] for span in spans}
    print(f"{path}: {len(spans)} spans across {len(traces)} traces")
    print()
    print(format_summary(summarize_spans(spans)))
    return 0


def _history_engine_for(path: Path, stack):
    """A query engine over ``path`` — a history directory, or a
    JSONL(.gz) dump from ``history export`` (reconstructed into a
    temporary segment store registered on ``stack``)."""
    import tempfile
    from dataclasses import fields

    from repro.core.types import QueueType
    from repro.history import (
        DaySegment,
        HistoryQueryEngine,
        SegmentStore,
        SlotRecord,
    )
    from repro.history.format import spot_from_header
    from repro.obs.export import open_text

    if path.is_dir():
        return HistoryQueryEngine(SegmentStore(path))

    slot_fields = [f.name for f in fields(SlotRecord)]
    days: dict = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            kind = entry.get("kind")
            if kind == "day":
                days[entry["day"]] = {
                    "day_of_week": entry["day_of_week"],
                    "slot_seconds": entry["slot_seconds"],
                    "spots": [],
                    "records": [],
                }
                continue
            if kind not in ("spot", "slot"):
                raise ValueError(
                    f"line {lineno}: unknown dump line kind {kind!r}"
                )
            parts = days.get(entry.get("day"))
            if parts is None:
                raise ValueError(
                    f"line {lineno}: {kind} line comes before the line "
                    f"of its day {entry.get('day')!r}"
                )
            if kind == "spot":
                parts["spots"].append(spot_from_header(entry))
            else:
                values = {name: entry[name] for name in slot_fields}
                values["label"] = QueueType(values["label"])
                parts["records"].append(SlotRecord(**values))
    tmp = stack.enter_context(
        tempfile.TemporaryDirectory(prefix="taxiqueue-history-")
    )
    store = SegmentStore(tmp)
    for day, parts in sorted(days.items()):
        store.write_day(
            DaySegment(
                day=day,
                day_of_week=parts["day_of_week"],
                slot_seconds=parts["slot_seconds"],
                spots=parts["spots"],
                records=parts["records"],
            )
        )
    return HistoryQueryEngine(store)


def cmd_history_query(args: argparse.Namespace) -> int:
    """Query a history directory (or an exported dump) offline: the
    same payloads the ``/v1/history/*`` endpoints serve, as JSON."""
    from contextlib import ExitStack

    from repro.history import QueryError

    path = Path(args.path)
    if not path.exists():
        print(f"error: no such history path: {path}", file=sys.stderr)
        return 2
    with ExitStack() as stack:
        try:
            engine = _history_engine_for(path, stack)
        except (ValueError, KeyError, OSError) as exc:
            print(f"error: cannot load {path}: {exc}", file=sys.stderr)
            return 1
        try:
            if args.spot is not None:
                if args.profile:
                    payload = engine.spot_profile(args.spot)
                else:
                    payload = engine.spot_history(
                        args.spot,
                        start_day=args.start_day,
                        end_day=args.end_day,
                        page=args.page,
                        per_page=args.per_page,
                        downsample=args.downsample,
                    )
                if payload is None:
                    print(
                        f"error: spot {args.spot!r} unknown to the history",
                        file=sys.stderr,
                    )
                    return 1
            elif args.citywide:
                payload = engine.citywide(
                    start_day=args.start_day, end_day=args.end_day
                )
            else:
                payload = engine.patterns()
        except QueryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_history_export(args: argparse.Namespace) -> int:
    """Dump a history directory as JSONL(.gz) — one ``day`` line per
    segment followed by its ``spot`` and ``slot`` lines."""
    from dataclasses import fields

    from repro.history import SegmentStore, SlotRecord
    from repro.history.format import spot_to_header
    from repro.obs.export import open_text

    directory = Path(args.dir)
    if not directory.is_dir():
        print(
            f"error: history directory not found: {directory}",
            file=sys.stderr,
        )
        return 2
    try:
        fh = open_text(args.output, "wt")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    store = SegmentStore(directory)
    slot_fields = [f.name for f in fields(SlotRecord)]
    days = written = 0
    with fh:
        for segment in store.read_all():
            fh.write(json.dumps({
                "kind": "day",
                "day": segment.day,
                "day_of_week": segment.day_of_week,
                "slot_seconds": segment.slot_seconds,
            }, sort_keys=True) + "\n")
            for spot in segment.spots:
                line = spot_to_header(spot)
                line.update(kind="spot", day=segment.day)
                fh.write(json.dumps(line, sort_keys=True) + "\n")
            for record in segment.records:
                line = {name: getattr(record, name) for name in slot_fields}
                line.update(
                    kind="slot", day=segment.day, label=record.label.value
                )
                fh.write(json.dumps(line, sort_keys=True) + "\n")
                written += 1
            days += 1
    print(f"exported {days} days ({written} slot records) to {args.output}")
    for day, reason in sorted(store.corrupt_days.items()):
        print(f"  skipped corrupt day {day}: {reason}", file=sys.stderr)
    return 1 if store.corrupt_days else 0


# -- conformance ------------------------------------------------------------


def _conformance_inputs(args: argparse.Namespace):
    """``(cases, store, bootstrap)`` from run/shrink arguments, or None
    after printing a usage error (exit 2 at the caller)."""
    from repro.conformance.matrix import csv_case, default_matrix

    if not 0.0 < args.kill_frac < 1.0:
        print("error: --kill-frac must be in (0, 1)", file=sys.stderr)
        return None
    if args.checkpoint_every < 1:
        print("error: --checkpoint-every must be >= 1", file=sys.stderr)
        return None
    if args.disorder_window < 0:
        print("error: --disorder-window must be >= 0", file=sys.stderr)
        return None
    if args.input is None:
        if getattr(args, "seeds", 1) < 1:
            print("error: --seeds must be >= 1", file=sys.stderr)
            return None
        from repro.conformance.matrix import DEFAULT_SEED_BASE

        cases = default_matrix(
            getattr(args, "seeds", 1),
            seed_base=(
                args.seed_base
                if args.seed_base is not None
                else DEFAULT_SEED_BASE
            ),
        )
        return cases, None, None
    batch = _load_batch(args.input)
    if batch is None:
        return None
    _report_malformed(batch, file=sys.stderr)
    if len(batch) == 0:
        print(f"error: {args.input}: no records to check", file=sys.stderr)
        return None
    store = MdtLogStore.from_batch(batch)
    bootstrap = None
    if args.bootstrap is not None:
        from repro.conformance.canonical import DayBootstrap

        try:
            bootstrap = DayBootstrap.load(args.bootstrap)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(
                f"error: cannot load bootstrap {args.bootstrap}: {exc}",
                file=sys.stderr,
            )
            return None
    case = csv_case(
        Path(args.input).stem,
        min_pts=args.min_pts,
        coverage=args.coverage,
        disorder_window_s=args.disorder_window,
        kill_frac=args.kill_frac,
        checkpoint_every=args.checkpoint_every,
    )
    return [case], store, bootstrap


def _conformance_checks(args: argparse.Namespace):
    """Parsed ``--checks`` list, or None on an unknown name."""
    from repro.conformance.runner import ALL_CHECKS

    if not args.checks:
        return list(ALL_CHECKS)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        print(
            f"error: unknown checks: {', '.join(unknown)} "
            f"(have: {', '.join(ALL_CHECKS)})",
            file=sys.stderr,
        )
        return None
    return checks


def _conformance_fault(args: argparse.Namespace) -> bool:
    """Validate ``--inject-fault``; prints the test-only warning."""
    if args.inject_fault is None:
        return True
    from repro.conformance.faults import FAULTS

    if args.inject_fault not in FAULTS:
        print(
            f"error: unknown fault {args.inject_fault!r} "
            f"(have: {', '.join(sorted(FAULTS))})",
            file=sys.stderr,
        )
        return False
    print(
        f"warning: test-only fault {args.inject_fault!r} is patched in — "
        "divergences are expected",
        file=sys.stderr,
    )
    return True


def cmd_conformance_run(args: argparse.Namespace) -> int:
    """Run the conformance matrix (or one input day) through every
    execution path; exit 1 on any divergence."""
    from repro.conformance.report import format_report, format_summary
    from repro.conformance.runner import run_matrix
    from repro.service.metrics import MetricsRegistry

    inputs = _conformance_inputs(args)
    checks = _conformance_checks(args)
    if inputs is None or checks is None or not _conformance_fault(args):
        return 2
    cases, store, bootstrap = inputs
    tracer, trace_writer = _build_tracer(args)
    if tracer is None:
        return 2
    metrics = MetricsRegistry()
    try:
        reports = run_matrix(
            cases,
            store=store,
            bootstrap=bootstrap,
            checks=checks,
            shrink=not args.no_shrink,
            shrink_max_runs=args.shrink_max_runs,
            out_dir=args.out,
            fault=args.inject_fault,
            metrics=metrics,
            tracer=tracer,
            progress=(
                None
                if args.json
                else lambda report: print(format_report(report))
            ),
        )
    finally:
        _close_tracer(trace_writer)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=1))
    else:
        print(format_summary(reports))
    return 1 if any(r.divergent for r in reports) else 0


def cmd_conformance_shrink(args: argparse.Namespace) -> int:
    """Shrink a diverging input day to a minimal repro; exit 0 when a
    divergence was found and reduced, 1 when the day is conformant."""
    from repro.conformance.report import format_report
    from repro.conformance.runner import run_case
    from repro.service.metrics import MetricsRegistry

    inputs = _conformance_inputs(args)
    checks = _conformance_checks(args)
    if inputs is None or checks is None or not _conformance_fault(args):
        return 2
    cases, store, bootstrap = inputs
    tracer, trace_writer = _build_tracer(args)
    if tracer is None:
        return 2
    metrics = MetricsRegistry()
    try:
        report = run_case(
            cases[0],
            store=store,
            bootstrap=bootstrap,
            checks=checks,
            shrink=True,
            shrink_max_runs=args.shrink_max_runs,
            out_dir=args.out,
            fault=args.inject_fault,
            metrics=metrics,
            tracer=tracer,
        )
    finally:
        _close_tracer(trace_writer)
    print(format_report(report))
    if not report.divergent:
        print("no divergence found; nothing to shrink")
        return 1
    return 0


def cmd_conformance_report(args: argparse.Namespace) -> int:
    """Summarize the report.json files a previous --out run wrote."""
    from repro.conformance.report import (
        format_loaded_summary,
        load_reports,
    )

    try:
        reports = load_reports(args.dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        state = "DIVERGENT" if report.get("divergent") else "conformant"
        failed = [
            check["name"]
            for check in report.get("checks", [])
            if not check.get("ok")
        ]
        line = f"case {report['name']}: {state}"
        if failed:
            line += f" ({', '.join(failed)})"
        shrink = report.get("shrink")
        if shrink and "minimal_records" in shrink:
            line += (
                f" — shrunk to {shrink['minimal_records']} records"
            )
        print(line)
    print(format_loaded_summary(reports))
    return 1 if any(r.get("divergent") for r in reports) else 0


def _coverage_arg(text: str) -> float:
    """``--coverage``: the observed fleet fraction, in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fleet fraction in (0, 1], got {text!r}"
        )
    return value


def _bbox_arg(text: str) -> BBox:
    """``--bbox``: ``west,south,east,north`` in degrees."""
    try:
        values = [float(x) for x in text.split(",")]
        if len(values) != 4 or not all(map(math.isfinite, values)):
            raise ValueError
        return BBox(*values)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be four finite numbers 'west,south,east,north' with "
            f"west <= east and south <= north, got {text!r}"
        ) from None


def _bbox_from_args(args: argparse.Namespace, batch: RecordBatch) -> BBox:
    """``--bbox``, else the records' extent from column min/max plus a
    0.01-degree margin."""
    if args.bbox is not None:
        return args.bbox
    if len(batch) == 0:
        return DEFAULT_CITY_BBOX
    return BBox(
        min(batch.lon), min(batch.lat), max(batch.lon), max(batch.lat)
    ).expanded(0.01)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxiqueue",
        description="Queue detection and analysis from taxi MDT logs "
        "(EDBT 2015 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a simulated day of MDT logs")
    _add_sim_args(p_sim)
    p_sim.add_argument("--output", default="mdt_logs.csv", help="CSV output path")
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="detect queue spots from a log CSV")
    p_det.add_argument("input", help="MDT log CSV")
    p_det.add_argument("--coverage", type=_coverage_arg, default=1.0,
                       help="observed fleet fraction (default 1.0)")
    p_det.add_argument("--bbox", type=_bbox_arg, default=None,
                       help="city bbox 'west,south,east,north'")
    p_det.add_argument("--top", type=int, default=20,
                       help="how many spots to print")
    _add_trace_args(p_det)
    p_det.set_defaults(func=cmd_detect)

    p_ana = sub.add_parser("analyze", help="detect spots and label queue contexts")
    p_ana.add_argument("input", help="MDT log CSV")
    p_ana.add_argument("--coverage", type=_coverage_arg, default=1.0)
    p_ana.add_argument("--bbox", type=_bbox_arg, default=None)
    p_ana.add_argument("--spot", default=None,
                       help="print the transition report of one spot id")
    _add_trace_args(p_ana)
    p_ana.set_defaults(func=cmd_analyze)

    p_exp = sub.add_parser(
        "export", help="analyze and write GeoJSON/CSV/HTML artefacts"
    )
    p_exp.add_argument("input", help="MDT log CSV")
    p_exp.add_argument("--coverage", type=_coverage_arg, default=1.0)
    p_exp.add_argument("--bbox", type=_bbox_arg, default=None)
    p_exp.add_argument("--outdir", default="queue_report",
                       help="output directory for the artefacts")
    p_exp.set_defaults(func=cmd_export)

    p_srv = sub.add_parser(
        "serve",
        help="replay a day through the streaming monitor and serve live "
        "queue state over HTTP",
    )
    p_srv.add_argument(
        "input", nargs="?", default=None,
        help="MDT log CSV (omit to simulate a day)",
    )
    _add_sim_args(p_srv)
    p_srv.add_argument("--coverage", type=_coverage_arg, default=1.0)
    p_srv.add_argument("--bbox", type=_bbox_arg, default=None,
                       help="city bbox 'west,south,east,north'")
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks a free port)")
    p_srv.add_argument(
        "--speedup", type=float, default=600.0,
        help="stream-seconds per wall-second (<=0 replays flat out; "
        "default 600 serves a day in ~2.4 minutes)",
    )
    p_srv.add_argument("--cache-ttl", type=float, default=1.0,
                       help="response cache TTL in seconds (0 disables)")
    p_srv.add_argument("--grace", type=float, default=900.0,
                       help="slot finalization grace period in seconds")
    p_srv.add_argument(
        "--max-seconds", type=float, default=None,
        help="stop after this many seconds (default: serve until Ctrl-C)",
    )
    p_srv.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for periodic service checkpoints; on restart the "
        "newest good checkpoint is restored and the replay resumes "
        "exactly where it was killed (see docs/resilience.md)",
    )
    p_srv.add_argument(
        "--checkpoint-every", type=int, default=5000,
        help="checkpoint cadence in consumed records (default 5000)",
    )
    p_srv.add_argument(
        "--disorder-window", type=float, default=0.0,
        help="bounded-lateness reorder window in stream seconds; records "
        "arriving out of order within the window are re-sequenced before "
        "the monitor, later ones are dropped and counted (0 disables)",
    )
    p_srv.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admission control: bound on concurrently handled requests; "
        "excess requests are shed with 429 + Retry-After "
        "(default: unbounded; see docs/load.md)",
    )
    p_srv.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="admission control: sustained requests/second through a "
        "token bucket; over-rate requests are shed with 429 + "
        "Retry-After (default: no rate limit)",
    )
    p_srv.add_argument(
        "--rate-burst", type=int, default=None, metavar="TOKENS",
        help="token-bucket burst capacity (default: one second's worth "
        "of --rate-limit)",
    )
    p_srv.add_argument(
        "--stale-after", type=float, default=30.0,
        help="watchdog staleness threshold in wall seconds (surfaced at "
        "/v1/healthz and /v1/metrics)",
    )
    p_srv.add_argument(
        "--history-dir", default=None,
        help="directory for durable day segments of finalized slot "
        "results; enables the /v1/history/* endpoints and the history "
        "CLI (see docs/history.md)",
    )
    p_srv.add_argument(
        "--history-day", type=int, default=None, choices=range(7),
        metavar="0..6",
        help="day of week (0=Mon..6=Sun) of the stream's first day in "
        "the history; defaults to the calendar weekday of the epoch day",
    )
    _add_trace_args(p_srv)
    p_srv.set_defaults(func=cmd_serve)

    p_demo = sub.add_parser("demo", help="small end-to-end demonstration")
    p_demo.add_argument("--seed", type=int, default=7)
    p_demo.set_defaults(func=cmd_demo)

    p_load = sub.add_parser(
        "loadtest",
        help="drive a running service with a seeded deterministic "
        "workload and gate on SLOs (see docs/load.md)",
    )
    p_load.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="base URL of the running service (default %(default)s)",
    )
    p_load.add_argument(
        "--profile", default="read-heavy",
        help="workload profile: read-heavy, mixed, history, snapshot-hot "
        "(default %(default)s)",
    )
    p_load.add_argument(
        "--mode", choices=("open", "closed"), default="closed",
        help="open: fixed arrival schedule at --rate; closed: "
        "--concurrency back-to-back workers (default %(default)s)",
    )
    p_load.add_argument(
        "--rate", type=float, default=50.0,
        help="open-loop arrival rate in requests/second "
        "(default %(default)s)",
    )
    p_load.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop worker count (default %(default)s)",
    )
    p_load.add_argument(
        "--duration", type=float, default=10.0,
        help="measured seconds, after warmup (default %(default)s)",
    )
    p_load.add_argument(
        "--warmup", type=float, default=1.0,
        help="warmup seconds discarded from the report "
        "(default %(default)s)",
    )
    p_load.add_argument(
        "--seed", type=int, default=7,
        help="workload seed; same seed, byte-identical request plan "
        "(default %(default)s)",
    )
    p_load.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-request HTTP timeout in seconds (default %(default)s)",
    )
    p_load.add_argument(
        "--slo-p99", type=float, default=None, metavar="SECONDS",
        help="fail (exit 1) when p99 latency exceeds this",
    )
    p_load.add_argument(
        "--slo-error-rate", type=float, default=None, metavar="RATE",
        help="fail (exit 1) when the error rate (transport + 5xx; "
        "shed 429s excluded) exceeds this",
    )
    p_load.set_defaults(func=cmd_loadtest)

    p_dump = sub.add_parser(
        "metrics-dump",
        help="fetch a running service's metrics in Prometheus text format",
    )
    p_dump.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="base URL of the running service (default %(default)s)",
    )
    p_dump.add_argument(
        "--timeout", type=float, default=5.0,
        help="HTTP timeout in seconds (default %(default)s)",
    )
    p_dump.set_defaults(func=cmd_metrics_dump)

    p_trace = sub.add_parser(
        "trace", help="inspect JSONL trace files (see docs/observability.md)"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_sum = trace_sub.add_parser(
        "summarize",
        help="per-stage p50/p95/max latency and throughput of a trace file",
    )
    p_sum.add_argument("file", help="JSONL trace file (from --trace-out)")
    p_sum.set_defaults(func=cmd_trace_summarize)

    p_conf = sub.add_parser(
        "conformance",
        help="differential verification of the three execution paths "
        "(see docs/conformance.md)",
    )
    conf_sub = p_conf.add_subparsers(
        dest="conformance_command", required=True
    )

    def _add_conformance_case_args(p, with_seeds: bool) -> None:
        if with_seeds:
            p.add_argument(
                "--seeds", type=int, default=5,
                help="number of simulated matrix cases (default %(default)s)",
            )
        p.add_argument(
            "--seed-base", type=int, default=None,
            help="first matrix seed (default: the fixed harness base)",
        )
        p.add_argument(
            "--input", default=None, metavar="CSV",
            help="check one day from a log CSV instead of the matrix",
        )
        p.add_argument(
            "--bootstrap", default=None, metavar="JSON",
            help="frozen spot/threshold/grid context for --input (repro "
            "mode; written next to every shrunk minimal day)",
        )
        p.add_argument(
            "--min-pts", type=int, default=20,
            help="DBSCAN min_pts for --input days (default %(default)s)",
        )
        p.add_argument(
            "--coverage", type=_coverage_arg, default=1.0,
            help="observed fleet fraction of --input days "
            "(default %(default)s)",
        )
        p.add_argument(
            "--disorder-window", type=float, default=120.0, metavar="S",
            help="bounded-lateness window for the disorder comparison; "
            "0 disables it (default %(default)s)",
        )
        p.add_argument(
            "--kill-frac", type=float, default=0.5,
            help="injected-crash position as a stream fraction "
            "(default %(default)s)",
        )
        p.add_argument(
            "--checkpoint-every", type=int, default=500, metavar="N",
            help="checkpoint cadence of the kill-restart path "
            "(default %(default)s)",
        )
        p.add_argument(
            "--checks", default=None,
            help="comma-separated subset of checks to run (default: all)",
        )
        p.add_argument(
            "--out", default=None, metavar="DIR",
            help="write per-case report.json plus divergence artifacts "
            "(minimal_day.csv, bootstrap.json, repro.sh) here",
        )
        p.add_argument(
            "--shrink-max-runs", type=int, default=400, metavar="N",
            help="predicate budget of the ddmin reduction "
            "(default %(default)s)",
        )
        p.add_argument(
            "--inject-fault", default=None, metavar="NAME",
            help="patch in a named test-only fault "
            "(see repro.conformance.faults) to prove the harness "
            "catches it",
        )
        _add_trace_args(p)

    p_cr = conf_sub.add_parser(
        "run",
        help="run the seeded matrix (or one --input day) through all "
        "three execution paths; exit 1 on any divergence",
    )
    _add_conformance_case_args(p_cr, with_seeds=True)
    p_cr.add_argument(
        "--no-shrink", action="store_true",
        help="report divergences without reducing them to minimal days",
    )
    p_cr.add_argument(
        "--json", action="store_true",
        help="machine-readable per-case reports on stdout",
    )
    p_cr.set_defaults(func=cmd_conformance_run)

    p_cs = conf_sub.add_parser(
        "shrink",
        help="reduce a diverging day to a minimal reproducing CSV; "
        "exit 0 when shrunk, 1 when the day is conformant",
    )
    _add_conformance_case_args(p_cs, with_seeds=False)
    p_cs.set_defaults(func=cmd_conformance_shrink)

    p_crep = conf_sub.add_parser(
        "report",
        help="summarize the report.json files of a previous --out run",
    )
    p_crep.add_argument("dir", help="the --out directory of a prior run")
    p_crep.set_defaults(func=cmd_conformance_report)

    p_hist = sub.add_parser(
        "history",
        help="query and dump the durable multi-day history "
        "(see docs/history.md)",
    )
    hist_sub = p_hist.add_subparsers(dest="history_command", required=True)
    p_hq = hist_sub.add_parser(
        "query",
        help="query a history directory or an exported JSONL(.gz) dump",
    )
    p_hq.add_argument(
        "path",
        help="history directory, or a JSONL(.gz) dump from "
        "'taxiqueue history export'",
    )
    p_hq.add_argument(
        "--spot", default=None,
        help="one spot's slot records (default: the pattern summary)",
    )
    p_hq.add_argument(
        "--profile", action="store_true",
        help="with --spot: its day-of-week × slot profile instead of "
        "raw records",
    )
    p_hq.add_argument(
        "--citywide", action="store_true",
        help="per-day citywide summaries instead of the pattern summary",
    )
    p_hq.add_argument("--start-day", type=int, default=None,
                      help="first epoch day (inclusive)")
    p_hq.add_argument("--end-day", type=int, default=None,
                      help="last epoch day (inclusive)")
    p_hq.add_argument("--page", type=int, default=1,
                      help="page of --spot records (default 1)")
    p_hq.add_argument("--per-page", type=int, default=200,
                      help="records per page (default 200)")
    p_hq.add_argument(
        "--downsample", type=int, default=1, metavar="K",
        help="fold K consecutive slots into one item (default 1: none)",
    )
    p_hq.set_defaults(func=cmd_history_query)
    p_he = hist_sub.add_parser(
        "export",
        help="dump a history directory as JSONL (gzip when the output "
        "ends .gz)",
    )
    p_he.add_argument("dir", help="history directory")
    p_he.add_argument(
        "--output", default="history.jsonl",
        help="JSONL output path; a .gz suffix writes gzip "
        "(default %(default)s)",
    )
    p_he.set_defaults(func=cmd_history_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was piped into `head` & co; die quietly like other
        # Unix tools instead of tracebacking.  Detach stdout so the
        # interpreter's exit-time flush cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
