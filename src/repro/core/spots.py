"""Tier 1 — queue spot detection (paper section 4).

Pipeline: PEA over every taxi's trajectory -> one central GPS location per
pickup event -> per-zone DBSCAN over the location set -> cluster centroids
are the detected queue spots.

The per-zone split mirrors section 6.1.2: the paper divides Singapore into
the four rectangular zones of Fig. 5 and clusters each zone separately,
both for locality of parameters and to cut DBSCAN's cost.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.centroids import cluster_centroids
from repro.cluster.dbscan import dbscan
from repro.cluster.neighbors import GridNeighbors, NeighborsFactory
from repro.columnar import RecordBatch
from repro.core.pea import DEFAULT_SPEED_THRESHOLD_KMH, extract_all_pickup_events
from repro.core.types import QueueSpot
from repro.geo.point import LocalProjection
from repro.geo.zones import ZonePartition
from repro.trace.log_store import MdtLogStore
from repro.trace.trajectory import SubTrajectory


@dataclass(frozen=True)
class SpotDetectionParams:
    """Parameters of the detection tier (paper defaults)."""

    eps_m: float = 15.0
    """DBSCAN eps_d in metres (Fig. 6 sweeps 5..20; the paper picks 15)."""

    min_pts: int = 50
    """DBSCAN p_d (Fig. 6 sweeps 25..150; the paper picks 50 per day)."""

    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH
    """PEA's eta_sp (10 km/h in section 6.1.2)."""

    apply_state_filters: bool = True
    """PEA's three state-transition constraints (ablation knob)."""


@dataclass
class SpotDetectionResult:
    """Everything the detection tier produces."""

    spots: List[QueueSpot]
    pickup_events: List[SubTrajectory]
    centroids_lonlat: np.ndarray
    """``(n, 2)`` lon/lat of every pickup event centroid."""

    noise_count: int
    """Pickup events DBSCAN classified as noise (scattered street hails)."""

    per_zone_counts: Dict[str, int] = field(default_factory=dict)
    """Detected spots per zone (paper Fig. 8)."""

    _cleaned: Optional[Tuple[weakref.ref, int, RecordBatch]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def keep_cleaned(self, source, cleaned: RecordBatch) -> None:
        """Keep tier 1's cleaned rows for a tier 2 over ``source``.

        ``source`` is the store or batch tier 1 ran on; it is held
        weakly, so a detection kept around never pins its input.
        """
        self._cleaned = (weakref.ref(source), len(source), cleaned)

    def cleaned_for(self, data) -> Optional[RecordBatch]:
        """Tier 1's cleaned rows when ``data`` is the very object tier 1
        ran on, at the same length; None for any other input (another
        day must be cleaned on its own)."""
        if self._cleaned is None:
            return None
        source, length, cleaned = self._cleaned
        if data is not None and source() is data and len(data) == length:
            return cleaned
        return None

    def __getstate__(self):
        # A weak reference cannot be pickled, and a copy is not the
        # object tier 1 ran on anyway.
        state = dict(self.__dict__)
        state["_cleaned"] = None
        return state


def pickup_centroids(events: Sequence[SubTrajectory]) -> np.ndarray:
    """The central GPS location of every pickup event, ``(n, 2)`` lon/lat."""
    if not events:
        return np.empty((0, 2), dtype=np.float64)
    return np.asarray([sub.centroid() for sub in events], dtype=np.float64)


def detect_queue_spots(
    store: MdtLogStore,
    zones: ZonePartition,
    projection: LocalProjection,
    params: SpotDetectionParams = SpotDetectionParams(),
    neighbors_factory: NeighborsFactory = GridNeighbors,
    tracer=None,
) -> SpotDetectionResult:
    """Detect queue spots from a log store (the full tier-1 pipeline).

    Args:
        store: cleaned MDT logs (one or more days).
        zones: the Fig. 5 zone partition used to split the clustering.
        projection: lon/lat -> metre projection for the city.
        params: PEA/DBSCAN parameters.
        neighbors_factory: DBSCAN neighbour backend (grid index default).
        tracer: optional :class:`repro.obs.Tracer` recording the PEA
            and clustering stage spans (no-op by default).

    Returns:
        A :class:`SpotDetectionResult`; spots are ordered by descending
        pickup count and get ids ``QS001, QS002, ...``.
    """
    if tracer is None:
        from repro.obs.tracer import NULL_TRACER as tracer
    with tracer.span("stage.pea") as span:
        events = extract_all_pickup_events(
            store,
            speed_threshold_kmh=params.speed_threshold_kmh,
            apply_state_filters=params.apply_state_filters,
        )
        span.set(records=len(store), events=len(events))
    lonlat = pickup_centroids(events)
    return detect_from_centroids(
        lonlat,
        zones,
        projection,
        params,
        neighbors_factory=neighbors_factory,
        events=events,
        tracer=tracer,
    )


def cluster_zone(
    zone_lonlat: np.ndarray,
    projection: LocalProjection,
    params: SpotDetectionParams = SpotDetectionParams(),
    neighbors_factory: NeighborsFactory = GridNeighbors,
) -> Tuple[List[Tuple[float, float, int, float]], int]:
    """DBSCAN one zone's pickup centroids (the per-zone unit of work of
    :func:`detect_from_centroids`).

    Args:
        zone_lonlat: ``(n, 2)`` lon/lat of the zone's pickup centroids.

    Returns:
        ``(clusters, noise)`` where each cluster is a
        ``(lon, lat, size, radius_m)`` tuple in DBSCAN discovery order
        and ``noise`` counts unclustered centroids.
    """
    xy = projection.to_xy_array(zone_lonlat[:, 0], zone_lonlat[:, 1])
    result = dbscan(
        xy, eps=params.eps_m, min_pts=params.min_pts,
        neighbors_factory=neighbors_factory,
    )
    clusters: List[Tuple[float, float, int, float]] = []
    for summary in cluster_centroids(xy, result):
        lon, lat = projection.to_lonlat(summary.x, summary.y)
        clusters.append((lon, lat, summary.size, summary.radius_m))
    return clusters, int(len(result.noise_indices()))


def assemble_spots(
    raw_spots: List[Tuple[str, float, float, int, float]],
) -> List[QueueSpot]:
    """Order raw ``(zone, lon, lat, size, radius)`` clusters into spots.

    Spots are sorted by descending pickup count (stable, so zone order
    breaks ties) and assigned ids ``QS001, QS002, ...``.
    """
    ordered = sorted(raw_spots, key=lambda item: -item[3])
    return [
        QueueSpot(
            spot_id=f"QS{i + 1:03d}",
            lon=lon,
            lat=lat,
            zone=zone_name,
            pickup_count=size,
            radius_m=radius,
        )
        for i, (zone_name, lon, lat, size, radius) in enumerate(ordered)
    ]


def detect_from_centroids(
    lonlat: np.ndarray,
    zones: ZonePartition,
    projection: LocalProjection,
    params: SpotDetectionParams = SpotDetectionParams(),
    neighbors_factory: NeighborsFactory = GridNeighbors,
    events: Optional[List[SubTrajectory]] = None,
    tracer=None,
) -> SpotDetectionResult:
    """Cluster pre-computed pickup centroids into queue spots.

    Split out of :func:`detect_queue_spots` so parameter sweeps (the
    Fig. 6 bench) can reuse one PEA pass across many DBSCAN settings.
    """
    if tracer is None:
        from repro.obs.tracer import NULL_TRACER as tracer
    lonlat = np.asarray(lonlat, dtype=np.float64).reshape(-1, 2)
    raw_spots: List[Tuple[str, float, float, int, float]] = []
    noise = 0
    per_zone: Dict[str, int] = {zone.name: 0 for zone in zones}

    zone_names = np.asarray(
        [zones.classify_or_nearest(lon, lat) for lon, lat in lonlat]
    )
    with tracer.span("stage.cluster", points=int(len(lonlat))) as stage:
        for zone in zones:
            mask = zone_names == zone.name
            zone_lonlat = lonlat[mask]
            if len(zone_lonlat) == 0:
                continue
            with tracer.span(f"cluster.zone:{zone.name}") as span:
                clusters, zone_noise = cluster_zone(
                    zone_lonlat, projection, params, neighbors_factory
                )
                span.set(
                    points=int(len(zone_lonlat)),
                    clusters=len(clusters),
                    noise=zone_noise,
                )
            noise += zone_noise
            for lon, lat, size, radius in clusters:
                raw_spots.append((zone.name, lon, lat, size, radius))
                per_zone[zone.name] += 1
        stage.set(spots=len(raw_spots), noise=noise)

    return SpotDetectionResult(
        spots=assemble_spots(raw_spots),
        pickup_events=list(events) if events is not None else [],
        centroids_lonlat=lonlat,
        noise_count=noise,
        per_zone_counts=per_zone,
    )


def assign_events_to_spots(
    events: Sequence[SubTrajectory],
    spots: Sequence[QueueSpot],
    projection: LocalProjection,
    assign_radius_m: float = 30.0,
) -> Dict[str, List[SubTrajectory]]:
    """Build W(r): map pickup events to the nearest detected spot.

    An event belongs to the closest spot whose centroid lies within
    ``assign_radius_m`` of the event's central location (twice the
    detection eps by default, absorbing GPS jitter); unmatched events are
    dropped (scattered street pickups).

    Returns:
        ``spot_id -> list of sub-trajectories``; every spot id appears,
        possibly with an empty list.
    """
    buckets: Dict[str, List[SubTrajectory]] = {s.spot_id: [] for s in spots}
    if not spots or not events:
        return buckets
    spot_xy = projection.to_xy_array(
        np.asarray([s.lon for s in spots]), np.asarray([s.lat for s in spots])
    )
    lonlat = pickup_centroids(events)
    event_xy = projection.to_xy_array(lonlat[:, 0], lonlat[:, 1])
    # Brute-force over spots is fine: |spots| is O(100).
    for i, event in enumerate(events):
        diff = spot_xy - event_xy[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        j = int(np.argmin(d2))
        if d2[j] <= assign_radius_m * assign_radius_m:
            buckets[spots[j].spot_id].append(event)
    return buckets
