"""A flat-out replay of one day through the stream write path.

Used by the traced ``serve-live`` run to measure the stream, snapshot
and history layers one by one, which the live server (a separate
process) only shows in sum.  Set-up does what ``taxiqueue serve <csv>``
does before it serves: parse the CSV, clean it, run tiers 1 and 2, and
freeze the result with ``conformance.canonical.make_bootstrap``.  The
replay then builds a fresh ``StreamingQueueMonitor`` ->
``SnapshotStore`` -> ``HistoryWriter`` stack over an empty history
directory and drives the cleaned day through it with
``StreamReplayer(speedup=None)``, up to and including ``finish()`` and
the final history flush.  ``SnapshotStore.apply`` and
``HistoryWriter.absorb`` are timed as subscribers, the monitor's
``feed``/``finish`` from outside.

:func:`check` is its output check: every finalized slot passes
``check_streaming_labels`` and every spot-slot of the grid is finalized
exactly once.
"""

from __future__ import annotations

import time
from typing import Dict, List


def bootstrap(csv_path: str):
    """``(DayBootstrap, time-sorted cleaned records)`` as ``serve``
    builds them: engine from the records' bbox, tiers 1 and 2 on the
    cleaned day, a day-spanning grid."""
    from repro.conformance.canonical import day_grid, make_bootstrap
    from repro.core.engine import EngineConfig, QueueAnalyticEngine
    from repro.geo.bbox import BBox
    from repro.geo.point import LocalProjection
    from repro.geo.zones import four_zone_partition
    from repro.trace.log_store import MdtLogStore

    store = MdtLogStore.from_csv(csv_path)
    bbox = BBox.from_points(
        (r.lon, r.lat) for r in store.iter_records()
    ).expanded(0.01)
    engine = QueueAnalyticEngine(
        zones=four_zone_partition(bbox),
        projection=LocalProjection(*bbox.center),
        config=EngineConfig(observed_fraction=1.0),
        city_bbox=bbox,
    )
    cleaned = engine.preprocess(store)
    detection = engine.detect_spots(cleaned)
    analyses = engine.disambiguate(cleaned, detection)
    lo, hi = cleaned.time_span
    grid = day_grid(lo, hi, engine.config.slot_seconds)
    boot = make_bootstrap(engine, detection, analyses, grid)
    return boot, sorted(cleaned.iter_records(), key=lambda r: r.ts)


class _Timer:
    """Accumulates the wall time of wrapped calls."""

    def __init__(self):
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds += time.perf_counter() - start

        return timed


def replay_once(boot, records, history_dir, tracer) -> Dict:
    """One fresh stack, one full flat-out replay; returns its outputs
    for checking and its layer numbers."""
    from repro.core.features import AmplificationPolicy
    from repro.geo.point import LocalProjection
    from repro.history import HistoryWriter, SegmentStore
    from repro.service.metrics import MetricsRegistry
    from repro.service.replay import StreamReplayer
    from repro.service.snapshot import SnapshotStore
    from repro.stream.monitor import StreamingQueueMonitor

    results: List = []
    apply_t, absorb_t, feed_t = _Timer(), _Timer(), _Timer()
    metrics = MetricsRegistry()
    monitor = StreamingQueueMonitor(
        spots=list(boot.spots),
        thresholds=boot.stream_thresholds(),
        grid=boot.grid,
        projection=LocalProjection(*boot.bbox.center),
        amplification=AmplificationPolicy.for_coverage(boot.coverage),
        assign_radius_m=boot.assign_radius_m,
        grace_s=boot.grace_s,
    )
    snapshot = SnapshotStore(list(boot.spots), boot.grid, metrics=metrics)
    segments = SegmentStore(history_dir, metrics=metrics)
    writer = HistoryWriter(
        segments, boot.spots, boot.grid, day_of_week=0,
        metrics=metrics, tracer=tracer,
    )
    monitor.subscribe(results.extend)
    monitor.subscribe(apply_t.wrap(snapshot.apply))
    monitor.subscribe(absorb_t.wrap(writer.absorb))
    monitor.feed = feed_t.wrap(monitor.feed)
    monitor.finish = feed_t.wrap(monitor.finish)
    replayer = StreamReplayer(
        monitor, records, speedup=None, metrics=metrics, tracer=tracer
    )
    run_start = time.perf_counter()
    finalized = replayer.run()
    run_s = time.perf_counter() - run_start
    writer.flush_all()
    subscribers = apply_t.seconds + absorb_t.seconds
    return {
        "results": results,
        "error": replayer.error,
        "finished": replayer.finished.is_set(),
        "fed": metrics.counter("replay.records").value,
        "layers": {
            "stream.monitor_self_s": feed_t.seconds - subscribers,
            "stream.replayer_self_s": run_s - feed_t.seconds,
            "stream.records": len(records),
            "stream.slots_finalized": finalized,
            "service.snapshot_apply_s": apply_t.seconds,
            "service.snapshot_versions": snapshot.version,
            "history.absorb_s": absorb_t.seconds,
            "history.segment_bytes": segments.total_bytes(),
        },
    }


def check(out: Dict, boot, n_records: int) -> List[str]:
    """Problems with one replay's output (empty when it is correct)."""
    from repro.conformance.oracles import check_streaming_labels

    problems: List[str] = []
    if out["error"] is not None or not out["finished"]:
        problems.append(f"replay did not finish: {out['error']!r}")
    if out["fed"] != n_records:
        problems.append(f"fed {out['fed']} of {n_records} records")
    keys = {(r.spot_id, r.slot) for r in out["results"]}
    expected = len(boot.spots) * boot.grid.n_slots
    if len(keys) != expected or len(out["results"]) != expected:
        problems.append(
            f"{len(out['results'])} slot results ({len(keys)} distinct), "
            f"expected {expected}"
        )
    problems += check_streaming_labels(out["results"], boot)
    if not out["layers"]["history.segment_bytes"]:
        problems.append("no history segment written")
    return problems
