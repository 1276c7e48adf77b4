"""DBSCAN, implemented from scratch (Ester et al., KDD 1996).

The classic density-based clustering used in paper section 4.3 to turn the
set of pickup-event centroids into queue-spot clusters:

* a point with at least ``min_pts`` neighbours within ``eps`` is a *core*
  point;
* clusters are the connected components of core points under the
  eps-neighbourhood relation, plus the border points they reach;
* everything else is noise.

Two implementations give the same labels, core mask and cluster count:

* the array kernel (the default) finds every neighbour pair from a sorted
  cell index, block by block, and derives core points, components and
  border points with array operations.  Section 4.3 warns that DBSCAN
  over the daily pickup set is "significantly slow"; the kernel keeps
  the grid index's cell pruning without a per-point Python loop.
* the sequential neighbour walk, with neighbour queries served by a
  pluggable backend (see :mod:`repro.cluster.neighbors`).  It runs only
  when a caller passes ``neighbors_factory``, and it is the reference the
  kernel is checked against (``tests/test_dbscan.py``, the
  ``oracle-spots`` conformance oracle with brute-force neighbours, the
  index ablation bench).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.neighbors import NOISE, UNCLASSIFIED, NeighborsFactory

#: Candidate pairs the kernel examines per block: the bound on its pair
#: and edge memory (about 1 MB), whatever the neighbourhood sizes.
PAIR_BLOCK = 1 << 14


@dataclass
class DbscanResult:
    """Outcome of a DBSCAN run.

    Attributes:
        labels: per-point cluster id (0..n_clusters-1) or ``NOISE`` (-1).
        n_clusters: number of clusters found.
        core_mask: boolean array marking core points.
    """

    labels: np.ndarray
    n_clusters: int
    core_mask: np.ndarray

    def cluster_indices(self, cluster_id: int) -> np.ndarray:
        """Indices of the points belonging to one cluster."""
        return np.flatnonzero(self.labels == cluster_id)

    def noise_indices(self) -> np.ndarray:
        """Indices of the noise points."""
        return np.flatnonzero(self.labels == NOISE)


def dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    neighbors_factory: Optional[NeighborsFactory] = None,
) -> DbscanResult:
    """Cluster an ``(n, 2)`` metre-plane point array with DBSCAN.

    Clusters are numbered in the order the sequential walk discovers
    them, by their smallest core-point index; a border point reached by
    several clusters belongs to the lowest-numbered one.

    Args:
        points: finite point coordinates; eps is measured in the same
            unit.
        eps: neighbourhood radius (``eps_d``; the paper settles on 15 m).
        min_pts: minimum neighbourhood size for a core point, the point
            itself included (``p_d``; the paper settles on 50 for a
            full-fleet day).
        neighbors_factory: a backend constructor ``(points, eps) ->
            index`` selects the sequential neighbour walk over that
            index; None (the default) runs the array kernel.

    Returns:
        A :class:`DbscanResult` with labels, cluster count and core mask.

    Raises:
        ValueError: for non-positive ``eps`` or ``min_pts``, or (array
            kernel) for non-finite points.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts <= 0:
        raise ValueError("min_pts must be positive")
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return DbscanResult(
            np.full(0, UNCLASSIFIED, dtype=np.int64), 0, np.zeros(0, dtype=bool)
        )
    if neighbors_factory is not None:
        return _walk(points, eps, min_pts, neighbors_factory)
    return _array_dbscan(points, eps, min_pts)


def _walk(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    neighbors_factory: NeighborsFactory,
) -> DbscanResult:
    """The sequential DBSCAN: grow each cluster by a breadth-first walk
    over its neighbourhoods, one index query per point."""
    n = len(points)
    labels = np.full(n, UNCLASSIFIED, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    index = neighbors_factory(points, eps)
    cluster_id = 0
    for i in range(n):
        if labels[i] != UNCLASSIFIED:
            continue
        seeds = index.query_radius_index(i, eps)
        if len(seeds) < min_pts:
            labels[i] = NOISE
            continue
        # i is a core point: grow a new cluster from it (BFS expansion).
        core_mask[i] = True
        labels[i] = cluster_id
        queue = deque(int(s) for s in seeds if labels[s] in (UNCLASSIFIED, NOISE))
        for s in seeds:
            if labels[s] in (UNCLASSIFIED, NOISE):
                labels[s] = cluster_id
        while queue:
            j = queue.popleft()
            neighborhood = index.query_radius_index(j, eps)
            if len(neighborhood) < min_pts:
                continue  # border point: belongs to the cluster, not grown
            core_mask[j] = True
            for k in neighborhood:
                k = int(k)
                if labels[k] == UNCLASSIFIED:
                    labels[k] = cluster_id
                    queue.append(k)
                elif labels[k] == NOISE:
                    labels[k] = cluster_id  # noise becomes a border point
        cluster_id += 1
    return DbscanResult(labels, cluster_id, core_mask)


# -- the array kernel ----------------------------------------------------------


class _SortedCells:
    """The points sorted by eps-cell key, with each point's candidate
    cells as key ranges of the sorted array.

    A point's candidate cells are those :meth:`GridIndex.query_radius
    <repro.geo.grid_index.GridIndex.query_radius>` scans: the cells
    overlapping its eps-square, widened by the same rounding slack, so
    cell membership never prunes a pair the distance test accepts.
    """

    def __init__(self, points: np.ndarray, eps: float):
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        self.eps = eps
        x, y = points[:, 0], points[:, 1]
        slack = 1e-9 * (np.abs(x) + np.abs(y) + eps) + 1e-30
        cx = np.floor(x / eps).astype(np.int64)
        cy = np.floor(y / eps).astype(np.int64)
        x_lo = np.floor((x - eps - slack) / eps).astype(np.int64)
        x_hi = np.floor((x + eps + slack) / eps).astype(np.int64)
        y_lo = np.floor((y - eps - slack) / eps).astype(np.int64)
        y_hi = np.floor((y + eps + slack) / eps).astype(np.int64)
        # key = column * width + row, over a frame holding every cell a
        # point sits in or scans, so one column's rows are contiguous.
        x0, y0 = int(x_lo.min()), int(y_lo.min())
        width = int(y_hi.max()) - y0 + 1
        if (int(x_hi.max()) - x0 + 1) * width >= 1 << 62:
            raise ValueError("points span too many eps cells to index")
        key = (cx - x0) * width + (cy - y0)
        self.order = np.argsort(key, kind="stable")
        keys = key[self.order]
        self.xy = points[self.order]
        o = self.order
        cx, x_lo, x_hi = cx[o], x_lo[o], x_hi[o]
        row_lo, row_hi = y_lo[o] - y0, y_hi[o] - y0
        # One (lo, hi) range per scanned column; columns a point does not
        # scan (only at cell edges) get empty ranges.
        offsets = range(int((x_lo - cx).min()), int((x_hi - cx).max()) + 1)
        self.lo = np.empty((len(keys), len(offsets)), dtype=np.int64)
        self.hi = np.empty_like(self.lo)
        for k, dx in enumerate(offsets):
            column = (cx + dx - x0) * width
            lo = np.searchsorted(keys, column + row_lo, side="left")
            hi = np.searchsorted(keys, column + row_hi, side="right")
            scanned = (cx + dx >= x_lo) & (cx + dx <= x_hi)
            self.lo[:, k] = lo
            self.hi[:, k] = np.where(scanned, hi, lo)

    def pairs(
        self,
        queries: np.ndarray,
        after: bool,
        among: Optional[np.ndarray] = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Neighbour pairs ``(p, q)`` of the sorted positions
        ``queries``, block by block.  A block examines at most
        :data:`PAIR_BLOCK` candidate pairs, or one query's candidates
        when those alone are more.

        Args:
            queries: ascending sorted positions to find neighbours of.
            after: only neighbours at later sorted positions (each
                unordered pair once, from its earlier end); self is
                never a pair.
            among: a mask over sorted positions that neighbours must
                satisfy, applied before the distance test.
        """
        lo, hi = self.lo[queries], self.hi[queries]
        if after:
            lo = np.maximum(lo, (queries + 1)[:, None])
            hi = np.maximum(hi, lo)
        per_query = (hi - lo).sum(axis=1)
        ends = np.cumsum(per_query)
        eps2 = self.eps * self.eps
        start = 0
        while start < len(queries):
            done = ends[start - 1] if start else 0
            stop = max(
                start + 1,
                int(np.searchsorted(ends, done + PAIR_BLOCK, side="right")),
            )
            b_lo = lo[start:stop].ravel()
            sizes = hi[start:stop].ravel() - b_lo
            q = np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(
                b_lo - (np.cumsum(sizes) - sizes), sizes
            )
            p = np.repeat(queries[start:stop], per_query[start:stop])
            if among is not None or not after:
                keep = q != p
                if among is not None:
                    keep &= among[q]
                p, q = p[keep], q[keep]
            # np.take: a row gather several times faster than xy[q].
            diff = np.take(self.xy, q, axis=0) - np.take(self.xy, p, axis=0)
            within = np.einsum("ij,ij->i", diff, diff) <= eps2
            yield p[within], q[within]
            start = stop


def _array_dbscan(points: np.ndarray, eps: float, min_pts: int) -> DbscanResult:
    """DBSCAN as array passes over neighbour-pair blocks.

    1. Count every point's neighbours (self included); core points have
       at least ``min_pts``.
    2. Join core–core pairs with a union-find whose roots are the
       smallest core index of their component; number the clusters by
       that index, the order in which the walk discovers them.
    3. Give each border point the smallest cluster id among its core
       neighbours: in the walk, the first cluster to reach it keeps it.
    """
    n = len(points)
    cells = _SortedCells(points, eps)
    order = cells.order
    everyone = np.arange(n, dtype=np.int64)

    counts = np.ones(n, dtype=np.int64)
    for p, q in cells.pairs(everyone, after=True):
        counts += np.bincount(p, minlength=n) + np.bincount(q, minlength=n)
    core_sorted = counts >= min_pts

    parent = np.arange(n, dtype=np.int64)
    for p, q in cells.pairs(
        np.flatnonzero(core_sorted), after=True, among=core_sorted
    ):
        _union(parent, order[p], order[q])

    core_mask = np.zeros(n, dtype=bool)
    core_mask[order] = core_sorted
    labels = np.full(n, NOISE, dtype=np.int64)
    roots, cluster = np.unique(parent[core_mask], return_inverse=True)
    labels[core_mask] = cluster.ravel()

    border = np.full(n, len(roots), dtype=np.int64)
    for p, q in cells.pairs(
        np.flatnonzero(~core_sorted), after=False, among=core_sorted
    ):
        np.minimum.at(border, order[p], labels[order[q]])
    reached = border < len(roots)
    labels[reached] = border[reached]
    return DbscanResult(labels, len(roots), core_mask)


def _union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of every edge ``a[i]``--``b[i]``.

    Each step hooks the larger root of an unjoined edge under the
    smaller, so ``parent[x] <= x`` holds throughout and a root is the
    smallest index of its component.  ``parent`` is left flat: every
    entry points at its root.
    """
    while True:
        _flatten(parent)
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        # Several edges may hook one root in a step; any of the writes
        # is a smaller root, and the next step joins the rest.
        parent[np.maximum(ra, rb)] = np.minimum(ra, rb)


def _flatten(parent: np.ndarray) -> None:
    """Point every entry of a union-find forest at its root, by pointer
    jumping (each jump halves every path)."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return
        parent[:] = up


def cluster_sizes(result: DbscanResult) -> List[int]:
    """Sizes of the clusters, ordered by cluster id."""
    return [
        int(np.count_nonzero(result.labels == cid))
        for cid in range(result.n_clusters)
    ]
