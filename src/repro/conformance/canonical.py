"""Canonical, comparable forms of every execution path's output.

The **streaming class** — ordered replay, kill/restart replay and
buffered disordered replay — converges to one serving state, reduced by
:func:`streaming_state` and compared for exact equality (see
``docs/conformance.md``).  The batch class is the serial engine alone,
checked against the brute-force oracles instead.

Batch and streaming outputs are *not* cross-compared: the streaming
monitor finalizes each slot with a one-slot grid and a grace period, so
its features agree with batch only approximately (``test_stream.py``
pins ``rel=0.05``), never exactly.

:class:`DayBootstrap` is the frozen tier-1 context a streaming run is
configured from (spot set, thresholds, grid, projection).  It
serializes to JSON so a shrunk minimal day can be re-run against the
*original* day's spots — re-deriving them from a 30-record CSV would
find nothing and the repro would be vacuous.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.engine import EngineConfig, QueueAnalyticEngine, SpotAnalysis
from repro.core.features import AmplificationPolicy
from repro.core.spots import SpotDetectionParams, SpotDetectionResult
from repro.core.thresholds import QcdThresholds
from repro.core.types import QueueSpot, TimeSlotGrid
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import four_zone_partition
from repro.service.snapshot import SnapshotStore
from repro.stream.monitor import StreamingQueueMonitor

#: Format version stamped into every bootstrap JSON.
BOOTSTRAP_VERSION = 1


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace.

    Floats are emitted with Python's shortest-roundtrip repr, so equal
    text means bit-for-bit equal values.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def streaming_state(snapshot: SnapshotStore) -> Dict:
    """Reduce a snapshot store to its full serving state.

    Covers the version (resumed runs must converge to the same snapshot
    id, not just the same labels) and every payload the HTTP layer
    serves from the finalized slot results.
    """
    return {
        "version": snapshot.version,
        "citywide": snapshot.citywide_payload(),
        "spots": {
            spot_id: snapshot.spot_slots_payload(spot_id)
            for spot_id in sorted(snapshot.spot_ids)
        },
    }


@dataclass(frozen=True)
class DayBootstrap:
    """The frozen context a conformance day runs under.

    Everything needed to rebuild the engine and the streaming stack
    *without* the original full day: held fixed while shrinking, and
    serialized next to the minimal CSV so the repro script reconstructs
    the exact same run.
    """

    bbox: BBox
    min_pts: int
    coverage: float
    slot_seconds: float
    assign_radius_m: float
    grace_s: float
    grid: TimeSlotGrid
    spots: Tuple[QueueSpot, ...]
    thresholds: Dict[str, Optional[QcdThresholds]]

    # -- construction ------------------------------------------------------

    def build_engine(self) -> QueueAnalyticEngine:
        """The batch engine this bootstrap's day was analyzed with."""
        lon, lat = self.bbox.center
        return QueueAnalyticEngine(
            zones=four_zone_partition(self.bbox),
            projection=LocalProjection(lon, lat),
            config=EngineConfig(
                detection=SpotDetectionParams(min_pts=self.min_pts),
                slot_seconds=self.slot_seconds,
                assign_radius_m=self.assign_radius_m,
                observed_fraction=self.coverage,
            ),
            city_bbox=self.bbox,
        )

    def stream_thresholds(self) -> Dict[str, QcdThresholds]:
        """Per-spot thresholds with undecidable (None) spots dropped —
        the monitor labels those UNIDENTIFIED."""
        return {
            spot_id: th
            for spot_id, th in self.thresholds.items()
            if th is not None
        }

    def build_stack(self) -> Tuple[StreamingQueueMonitor, SnapshotStore]:
        """A fresh monitor + subscribed snapshot store."""
        lon, lat = self.bbox.center
        monitor = StreamingQueueMonitor(
            spots=list(self.spots),
            thresholds=self.stream_thresholds(),
            grid=self.grid,
            projection=LocalProjection(lon, lat),
            amplification=AmplificationPolicy.for_coverage(self.coverage),
            assign_radius_m=self.assign_radius_m,
            grace_s=self.grace_s,
        )
        snapshot = SnapshotStore(list(self.spots), self.grid)
        monitor.subscribe(lambda results: snapshot.apply(results))
        return monitor, snapshot

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> Dict:
        return {
            "version": BOOTSTRAP_VERSION,
            "bbox": asdict(self.bbox),
            "min_pts": self.min_pts,
            "coverage": self.coverage,
            "slot_seconds": self.slot_seconds,
            "assign_radius_m": self.assign_radius_m,
            "grace_s": self.grace_s,
            "grid": {
                "start_ts": self.grid.start_ts,
                "end_ts": self.grid.end_ts,
                "slot_seconds": self.grid.slot_seconds,
            },
            "spots": [asdict(spot) for spot in self.spots],
            "thresholds": {
                spot_id: None if th is None else asdict(th)
                for spot_id, th in self.thresholds.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data: Dict) -> "DayBootstrap":
        """Inverse of :meth:`to_json_dict`.

        Raises:
            ValueError: on an unknown format version or missing keys.
        """
        try:
            version = data["version"]
            if version != BOOTSTRAP_VERSION:
                raise ValueError(
                    f"unsupported bootstrap version {version!r}"
                )
            return cls(
                bbox=BBox(**data["bbox"]),
                min_pts=int(data["min_pts"]),
                coverage=float(data["coverage"]),
                slot_seconds=float(data["slot_seconds"]),
                assign_radius_m=float(data["assign_radius_m"]),
                grace_s=float(data["grace_s"]),
                grid=TimeSlotGrid(**data["grid"]),
                spots=tuple(
                    QueueSpot(**spot) for spot in data["spots"]
                ),
                thresholds={
                    spot_id: None if th is None else QcdThresholds(**th)
                    for spot_id, th in data["thresholds"].items()
                },
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed bootstrap JSON: {exc}")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "DayBootstrap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def make_bootstrap(
    engine: QueueAnalyticEngine,
    detection: SpotDetectionResult,
    analyses: Dict[str, SpotAnalysis],
    grid: TimeSlotGrid,
) -> DayBootstrap:
    """Freeze one batch run's tier-1/tier-2 context into a bootstrap."""
    if engine.city_bbox is None:
        raise ValueError("conformance engines must carry a city bbox")
    return DayBootstrap(
        bbox=engine.city_bbox,
        min_pts=engine.config.detection.min_pts,
        coverage=engine.config.observed_fraction,
        slot_seconds=engine.config.slot_seconds,
        assign_radius_m=engine.config.assign_radius_m,
        grace_s=900.0,
        grid=grid,
        spots=tuple(detection.spots),
        thresholds={
            spot_id: analysis.thresholds
            for spot_id, analysis in analyses.items()
        },
    )


def day_grid(lo: float, hi: float, slot_seconds: float) -> TimeSlotGrid:
    """The day-spanning slot grid used by every path of a case: the
    engine's and ``QueueService.from_day``'s :meth:`TimeSlotGrid.covering`.
    """
    return TimeSlotGrid.covering(lo, hi, slot_seconds)
