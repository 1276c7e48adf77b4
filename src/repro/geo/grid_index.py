"""A uniform-grid spatial index for fixed-radius neighbour queries.

Section 4.3 of the paper notes that running DBSCAN on the full pickup
location set is slow and recommends "the R-Tree based or grid based spatial
index".  This grid index serves the sequential DBSCAN walk, the reference
that the default array kernel (:mod:`repro.cluster.dbscan`) is checked
against: with cell size equal to the query radius, a radius query inspects
at most the 3x3 block of cells around the probe point, giving expected
O(1) work per query on city-scale point densities.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np


class GridIndex:
    """Bucket points of an ``(n, 2)`` metre-plane array into square cells.

    Args:
        points: ``(n, 2)`` array of x/y coordinates in metres.
        cell_size: edge length of a grid cell in metres.  For fixed-radius
            queries, pass the query radius (the classic choice).
    """

    def __init__(self, points: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        keys_x = np.floor(self.points[:, 0] / self.cell_size).astype(np.int64)
        keys_y = np.floor(self.points[:, 1] / self.cell_size).astype(np.int64)
        for i in range(len(self.points)):
            self._cells[(int(keys_x[i]), int(keys_y[i]))].append(i)

    def __len__(self) -> int:
        return len(self.points)

    def query_radius(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of points within ``radius`` metres of ``(x, y)``.

        The result includes the probe point itself when it is part of the
        indexed set (DBSCAN's neighbourhood definition includes the point).
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        # Candidate cells are every cell overlapping the query square,
        # widened by a float-rounding slack: a point just outside the
        # square can still satisfy the rounded `d2 <= radius**2` test
        # below, and cell membership must not prune what the distance
        # test would accept (the DBSCAN backends must agree exactly).
        slack = 1e-9 * (abs(x) + abs(y) + radius) + 1e-30
        gx_lo = int(np.floor((x - radius - slack) / self.cell_size))
        gx_hi = int(np.floor((x + radius + slack) / self.cell_size))
        gy_lo = int(np.floor((y - radius - slack) / self.cell_size))
        gy_hi = int(np.floor((y + radius + slack) / self.cell_size))
        candidates: List[int] = []
        for gx in range(gx_lo, gx_hi + 1):
            for gy in range(gy_lo, gy_hi + 1):
                bucket = self._cells.get((gx, gy))
                if bucket:
                    candidates.extend(bucket)
        if not candidates:
            return np.empty(0, dtype=np.int64)
        idx = np.asarray(candidates, dtype=np.int64)
        diff = self.points[idx] - np.array([x, y])
        within = np.einsum("ij,ij->i", diff, diff) <= radius * radius
        return idx[within]

    def query_radius_index(self, i: int, radius: float) -> np.ndarray:
        """Radius query centred on the ``i``-th indexed point."""
        x, y = self.points[i]
        return self.query_radius(float(x), float(y), radius)
