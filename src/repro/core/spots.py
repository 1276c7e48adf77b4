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
from repro.cluster.neighbors import NeighborsFactory
from repro.columnar import RecordBatch
from repro.core.pea import PickupEvent
from repro.core.types import QueueSpot
from repro.geo.point import LocalProjection
from repro.geo.zones import ZonePartition


@dataclass(frozen=True)
class SpotDetectionParams:
    """Parameters of the detection tier (paper defaults)."""

    eps_m: float = 15.0
    """DBSCAN eps_d in metres (Fig. 6 sweeps 5..20; the paper picks 15)."""

    min_pts: int = 50
    """DBSCAN p_d (Fig. 6 sweeps 25..150; the paper picks 50 per day)."""

    apply_state_filters: bool = True
    """PEA's three state-transition constraints (ablation knob)."""


@dataclass
class SpotDetectionResult:
    """Everything the detection tier produces."""

    spots: List[QueueSpot]
    pickup_events: List[PickupEvent]
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


def pickup_centroids(events: Sequence[PickupEvent]) -> np.ndarray:
    """The central GPS location of every pickup event, ``(n, 2)`` lon/lat."""
    if not events:
        return np.empty((0, 2), dtype=np.float64)
    return np.asarray([e.centroid() for e in events], dtype=np.float64)


def cluster_zone(
    zone_lonlat: np.ndarray,
    projection: LocalProjection,
    params: SpotDetectionParams = SpotDetectionParams(),
    neighbors_factory: Optional[NeighborsFactory] = None,
) -> Tuple[List[Tuple[float, float, int, float]], int]:
    """DBSCAN one zone's pickup centroids (the per-zone unit of work of
    :func:`detect_from_centroids`).

    Args:
        zone_lonlat: ``(n, 2)`` lon/lat of the zone's pickup centroids.
        neighbors_factory: None for the array DBSCAN kernel, or a
            neighbour backend for the sequential walk (see
            :func:`~repro.cluster.dbscan.dbscan`).

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
    neighbors_factory: Optional[NeighborsFactory] = None,
    events: Optional[List[PickupEvent]] = None,
    tracer=None,
) -> SpotDetectionResult:
    """Cluster pre-computed pickup centroids into queue spots.

    The clustering half of tier 1, apart from PEA so parameter sweeps
    (the Fig. 6 bench) can reuse one PEA pass across many DBSCAN
    settings.  ``neighbors_factory`` runs the sequential DBSCAN walk over
    that backend (the spot oracle's brute force, the index ablation);
    the default is the array kernel.
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


#: Events per block of the W(r) distance matrix: a block holds
#: ``_ASSIGN_BLOCK x spots`` distances.
_ASSIGN_BLOCK = 4096


def spots_to_xy(
    spots: Sequence[QueueSpot], projection: LocalProjection
) -> np.ndarray:
    """The spot centroids in metres, ``(n, 2)``."""
    return projection.to_xy_array(
        np.asarray([s.lon for s in spots], dtype=np.float64),
        np.asarray([s.lat for s in spots], dtype=np.float64),
    )


def nearest_spots(
    event_xy: np.ndarray, spot_xy: np.ndarray, assign_radius_m: float
) -> np.ndarray:
    """W(r) membership: each event's nearest spot within the radius.

    Args:
        event_xy: ``(n, 2)`` event central locations in metres.
        spot_xy: ``(m, 2)`` spot centroids in metres (see
            :func:`spots_to_xy`).
        assign_radius_m: the largest event-to-spot distance that joins.

    Returns:
        ``(n,)`` spot indices, -1 where no spot lies within
        ``assign_radius_m``.  Equidistant spots go to the lower index.
    """
    nearest = np.full(len(event_xy), -1, dtype=np.intp)
    if len(spot_xy) == 0:
        return nearest
    limit = assign_radius_m * assign_radius_m
    for lo in range(0, len(event_xy), _ASSIGN_BLOCK):
        block = event_xy[lo:lo + _ASSIGN_BLOCK]
        diff = (spot_xy[None, :, :] - block[:, None, :]).reshape(-1, 2)
        d2 = np.einsum("ij,ij->i", diff, diff).reshape(len(block), -1)
        j = np.argmin(d2, axis=1)
        within = d2[np.arange(len(block)), j] <= limit
        nearest[lo:lo + len(block)] = np.where(within, j, -1)
    return nearest


def assign_events_to_spots(
    events: Sequence[PickupEvent],
    spots: Sequence[QueueSpot],
    projection: LocalProjection,
    assign_radius_m: float = 30.0,
) -> Dict[str, List[PickupEvent]]:
    """Build W(r): map pickup events to the nearest detected spot.

    An event belongs to the closest spot whose centroid lies within
    ``assign_radius_m`` of the event's central location (twice the
    detection eps by default, absorbing GPS jitter); unmatched events are
    dropped (scattered street pickups).

    Returns:
        ``spot_id -> list of pickup events``; every spot id appears,
        possibly with an empty list.
    """
    buckets: Dict[str, List[PickupEvent]] = {s.spot_id: [] for s in spots}
    lonlat = pickup_centroids(events)
    nearest = nearest_spots(
        projection.to_xy_array(lonlat[:, 0], lonlat[:, 1]),
        spots_to_xy(spots, projection),
        assign_radius_m,
    )
    for event, j in zip(events, nearest.tolist()):
        if j >= 0:
            buckets[spots[j].spot_id].append(event)
    return buckets
