"""Canonical construction of the golden-regression pipeline.

Shared by the committed-fixture test (``test_golden_regression.py``) and
the regeneration script (``scripts/make_golden_fixture.py``) so both
always agree on engine parameters and on the JSON shape.

The engine is rebuilt *from the CSV alone* (bbox from the records, the
standard four-zone partition, fixed detection parameters), so the
fixture pins the full ingest -> clean -> PEA -> DBSCAN -> WTE ->
features -> thresholds -> QCD chain against any future refactor.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Tuple

from repro.conformance.canonical import streaming_state
from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.spots import SpotDetectionParams
from repro.core.types import TimeSlotGrid
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import four_zone_partition
from repro.service.app import DayBootstrap, make_bootstrap
from repro.service.replay import StreamReplayer, replay_order
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord

#: Simulation inputs of the committed day (regeneration script only).
GOLDEN_SEED = 1234
GOLDEN_FLEET = 40
GOLDEN_SPOTS = 6
GOLDEN_DECOYS = 4

#: Detection parameters sized for the small fixture day (the paper's
#: min_pts=50 assumes a far larger fleet).
GOLDEN_MIN_PTS = 20


def golden_engine(store: MdtLogStore) -> QueueAnalyticEngine:
    """The deterministic engine the golden pipeline runs."""
    bbox = BBox.from_points(
        (r.lon, r.lat) for r in store.iter_records()
    ).expanded(0.01)
    lon, lat = bbox.center
    return QueueAnalyticEngine(
        zones=four_zone_partition(bbox),
        projection=LocalProjection(lon, lat),
        config=EngineConfig(
            detection=SpotDetectionParams(min_pts=GOLDEN_MIN_PTS)
        ),
        city_bbox=bbox,
    )


def pipeline_snapshot(engine, store: MdtLogStore) -> Dict:
    """Run both tiers and reduce the output to a JSON-able snapshot.

    Floats are emitted verbatim (Python's shortest-roundtrip repr), so
    JSON round-trips are exact and equality means bit-for-bit identical
    spots and labels.
    """
    detection = engine.detect_spots(store)
    analyses = engine.disambiguate(store, detection)
    return {
        "noise_count": detection.noise_count,
        "per_zone_counts": dict(detection.per_zone_counts),
        "spots": [asdict(spot) for spot in detection.spots],
        "thresholds": {
            spot_id: (
                None
                if analysis.thresholds is None
                else asdict(analysis.thresholds)
            )
            for spot_id, analysis in analyses.items()
        },
        "labels": {
            spot_id: [
                {"slot": label.slot,
                 "label": label.label.value,
                 "routine": label.routine}
                for label in analysis.labels
            ]
            for spot_id, analysis in analyses.items()
        },
    }


def streaming_bootstrap(
    engine: QueueAnalyticEngine, store: MdtLogStore
) -> Tuple[DayBootstrap, List[MdtRecord]]:
    """The frozen context the streaming monitor is configured from, and
    the rows it replays.

    Runs tiers 1 and 2 exactly the way :meth:`QueueService.from_day`
    does (the spot set, the per-spot thresholds, a day-spanning slot
    grid, tier 1's cleaned rows in replay order).  The batch tiers
    dominate the cost, so tests bootstrap once and build many fresh
    stacks from the result via :meth:`DayBootstrap.build_stack`.
    """
    detection = engine.detect_spots(store)
    analyses = engine.disambiguate(store, detection)
    cleaned = detection.cleaned_for(store)
    lo, hi = cleaned.time_span
    grid = TimeSlotGrid.covering(lo, hi, engine.config.slot_seconds)
    boot = make_bootstrap(engine, detection, analyses, grid)
    return boot, replay_order(cleaned.iter_rows())


def streaming_snapshot(
    engine: QueueAnalyticEngine, store: MdtLogStore
) -> Dict:
    """Replay the whole day through the streaming monitor and return
    the final serving state (the streaming analogue of
    :func:`pipeline_snapshot`)."""
    boot, records = streaming_bootstrap(engine, store)
    monitor, snapshot = boot.build_stack()
    replayer = StreamReplayer(monitor, records, speedup=None)
    replayer.run()
    if replayer.error is not None:
        raise replayer.error
    return streaming_state(snapshot)


def prometheus_exposition(
    engine: QueueAnalyticEngine, store: MdtLogStore
) -> str:
    """The Prometheus exposition text after a full golden-day replay.

    Bootstraps the service stack the way ``taxiqueue serve`` does,
    replays the whole day synchronously, and renders the shared metrics
    registry.  The instrument set — and therefore the exposition's
    structure (names, labels, HELP/TYPE lines) — is a deterministic
    function of this code path; only the sample values vary run to run.
    """
    from repro.obs.prometheus import render_prometheus
    from repro.service.app import QueueService, ServiceConfig
    from repro.service.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    service = QueueService.from_day(
        store, engine, ServiceConfig(speedup=None), metrics=metrics
    )
    try:
        service.warm()
        return render_prometheus(metrics)
    finally:
        # The HTTP listener was bound but never started; release it.
        service.server._httpd.server_close()


def normalize_exposition(text: str) -> str:
    """Strip sample values from exposition text, keeping structure.

    Comment lines (HELP/TYPE) stay verbatim; every sample line keeps
    its metric name and label set but has the value replaced, so two
    expositions compare equal exactly when their structure matches.
    """
    lines = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            lines.append(line)
        else:
            name, _, _value = line.rpartition(" ")
            lines.append(name + " <value>")
    return "\n".join(lines) + "\n"
