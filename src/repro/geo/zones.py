"""The four rectangular zones of paper Fig. 5.

Section 6.1.2 divides Singapore into 4 rectangular zones — Central, North,
West and East — "based on their different characteristics" and runs DBSCAN
per zone to tame the O(n^2) cost.  The Central zone covers the CBD and most
tourist attractions and occupies only ~6% of the total area (section 6.1.3).

:func:`four_zone_partition` reproduces that layout for any city bounding
box: a small central rectangle sized to ~6% of the area, a West strip to its
west, an East strip to its east, and the North band covering everything
above; the sliver directly below the central box is assigned to Central
(in Singapore that area is mostly sea).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.geo.bbox import BBox

#: Canonical zone names in the paper's reporting order.
ZONE_NAMES: Tuple[str, str, str, str] = ("Central", "North", "West", "East")


@dataclass(frozen=True)
class Zone:
    """A named rectangular zone."""

    name: str
    bbox: BBox

    def contains(self, lon: float, lat: float) -> bool:
        """True if the point lies inside the zone rectangle."""
        return self.bbox.contains(lon, lat)


class ZonePartition:
    """An ordered list of zones with first-match point classification.

    Zones are checked in order, so an earlier zone wins where rectangles
    overlap (the Central box is listed first and carved out of the others
    logically rather than geometrically).
    """

    def __init__(self, zones: List[Zone]):
        if not zones:
            raise ValueError("a partition needs at least one zone")
        self.zones = list(zones)
        self._by_name = {zone.name: zone for zone in self.zones}
        if len(self._by_name) != len(self.zones):
            raise ValueError("zone names must be unique")

    def __iter__(self):
        return iter(self.zones)

    def __len__(self) -> int:
        return len(self.zones)

    def zone_named(self, name: str) -> Zone:
        """Look a zone up by name.

        Raises:
            KeyError: if no zone has that name.
        """
        return self._by_name[name]

    def classify(self, lon: float, lat: float) -> Optional[str]:
        """Name of the first zone containing the point, or None."""
        for zone in self.zones:
            if zone.contains(lon, lat):
                return zone.name
        return None

    def classify_or_nearest(self, lon: float, lat: float) -> str:
        """Like :meth:`classify` but falls back to the nearest zone centre.

        Useful for GPS points that jitter just outside the city rectangle
        after noise injection.
        """
        name = self.classify(lon, lat)
        if name is not None:
            return name

        def _dist2(zone: Zone) -> float:
            clon, clat = zone.bbox.center
            return (clon - lon) ** 2 + (clat - lat) ** 2

        return min(self.zones, key=_dist2).name

    def classify_or_nearest_array(
        self, lon: np.ndarray, lat: np.ndarray
    ) -> np.ndarray:
        """:meth:`classify_or_nearest` of many points, as zone indices.

        Each point gets the index of the first zone containing it
        (edges inclusive); a point in no zone gets the scalar method's
        nearest zone centre (the first such zone on ties), looked up
        point by point since such points are few.

        Returns:
            ``(n,)`` indices into the partition's zone order.
        """
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        which = np.full(len(lon), -1, dtype=np.intp)
        for k, zone in enumerate(self.zones):
            box = zone.bbox
            which[
                (which < 0)
                & (box.west <= lon) & (lon <= box.east)
                & (box.south <= lat) & (lat <= box.north)
            ] = k
        outside = np.flatnonzero(which < 0)
        index = {zone.name: k for k, zone in enumerate(self.zones)}
        for i, x, y in zip(
            outside.tolist(), lon[outside].tolist(), lat[outside].tolist()
        ):
            which[i] = index[self.classify_or_nearest(x, y)]
        return which


def four_zone_partition(
    city: BBox, central_area_fraction: float = 0.06
) -> ZonePartition:
    """Build the Central/North/West/East partition of Fig. 5 for a city box.

    Args:
        city: the overall city bounding box.
        central_area_fraction: fraction of the total area covered by the
            Central zone (the paper reports ~6% for Singapore's CBD box).

    Returns:
        A :class:`ZonePartition` whose four rectangles jointly cover the
        whole city box (Central is checked first where boxes overlap).
    """
    if not 0.0 < central_area_fraction < 1.0:
        raise ValueError("central_area_fraction must be in (0, 1)")

    lon_span = city.east - city.west
    lat_span = city.north - city.south
    # The central box keeps the city's aspect ratio, scaled to the target
    # area, and sits slightly south of the geometric centre (as the CBD
    # does in Singapore).
    scale = central_area_fraction ** 0.5
    c_lon_span = lon_span * scale
    c_lat_span = lat_span * scale
    c_lon_mid = city.west + lon_span * 0.55
    c_lat_mid = city.south + lat_span * 0.35

    central = BBox(
        c_lon_mid - c_lon_span / 2.0,
        c_lat_mid - c_lat_span / 2.0,
        c_lon_mid + c_lon_span / 2.0,
        c_lat_mid + c_lat_span / 2.0,
    )
    # West and East strips span the full latitude range beside the central
    # column; North covers the band above the central box within the column;
    # the column below the central box belongs to Central (mostly sea in
    # the Singapore layout, so assignment there is inconsequential).
    west = BBox(city.west, city.south, central.west, city.north)
    east = BBox(central.east, city.south, city.east, city.north)
    north = BBox(central.west, central.north, central.east, city.north)
    central_column = BBox(central.west, city.south, central.east, central.north)

    return ZonePartition(
        [
            Zone("Central", central_column),
            Zone("North", north),
            Zone("West", west),
            Zone("East", east),
        ]
    )
