"""Geospatial substrate: distances, projections, zones and spatial indexes.

Everything the analytics engine needs to reason about GPS coordinates:

* :mod:`repro.geo.point` — haversine distance and a local equirectangular
  projection that maps lon/lat to metres around a reference latitude.
* :mod:`repro.geo.bbox` — axis-aligned bounding boxes in lon/lat space.
* :mod:`repro.geo.zones` — the four rectangular zones of paper Fig. 5.
* :mod:`repro.geo.grid_index` — a grid index for radius queries (section
  4.3 recommends "the R-Tree based or grid based spatial index" to tame
  DBSCAN's cost); it serves DBSCAN's reference walk.
* :mod:`repro.geo.hausdorff` — the modified Hausdorff distance [Dubuisson &
  Jain 1994] used for the stability study of paper Table 5.
"""

from repro.geo.point import (
    EARTH_RADIUS_M,
    haversine_m,
    equirectangular_m,
    LocalProjection,
    destination_point,
)
from repro.geo.bbox import BBox
from repro.geo.zones import Zone, ZonePartition, four_zone_partition
from repro.geo.grid_index import GridIndex
from repro.geo.hausdorff import (
    directed_hausdorff,
    hausdorff_distance,
    directed_modified_hausdorff,
    modified_hausdorff,
)

__all__ = [
    "EARTH_RADIUS_M",
    "haversine_m",
    "equirectangular_m",
    "LocalProjection",
    "destination_point",
    "BBox",
    "Zone",
    "ZonePartition",
    "four_zone_partition",
    "GridIndex",
    "directed_hausdorff",
    "hausdorff_distance",
    "directed_modified_hausdorff",
    "modified_hausdorff",
]
