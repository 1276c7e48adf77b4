"""Neighbour-query backends for DBSCAN.

All backends expose the same interface: ``query_radius_index(i, radius)``
returns the indices of points within ``radius`` of point ``i`` (including
``i`` itself).  Two implementations are provided:

* :class:`BruteForceNeighbors` — O(n) per query, the reference baseline
  (and the configuration the paper calls "significantly slow").
* :class:`GridNeighbors` — uniform grid, expected O(1) per query.

The ablation bench ``bench_ablation_index`` compares the two walks with
the array kernel that :func:`repro.cluster.dbscan.dbscan` runs by default.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.geo.grid_index import GridIndex

#: DBSCAN label for noise points.
NOISE = -1
#: DBSCAN label for points not yet visited (internal).
UNCLASSIFIED = -2


class BruteForceNeighbors:
    """Reference backend: scans every point for each query."""

    def __init__(self, points: np.ndarray, radius: float):
        self.points = np.asarray(points, dtype=np.float64)
        self.radius = float(radius)

    def query_radius_index(self, i: int, radius: float) -> np.ndarray:
        """All indices within ``radius`` of point ``i`` (self included)."""
        diff = self.points - self.points[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        return np.flatnonzero(d2 <= radius * radius).astype(np.int64)


class GridNeighbors:
    """Grid-index backend; cell size defaults to the query radius."""

    def __init__(self, points: np.ndarray, radius: float):
        self._index = GridIndex(points, cell_size=radius)

    def query_radius_index(self, i: int, radius: float) -> np.ndarray:
        return self._index.query_radius_index(i, radius)


#: Factory signature: ``(points, radius) -> backend``.
NeighborsFactory = Callable[[np.ndarray, float], object]
