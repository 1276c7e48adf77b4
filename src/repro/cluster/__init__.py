"""Clustering substrate: DBSCAN and its neighbour-query backends.

Section 4.3 clusters pickup-event centroids with DBSCAN [Ester et al. 1996]
and recommends an R-tree or grid spatial index to avoid the naive O(n^2)
neighbourhood cost.  This package provides a faithful from-scratch DBSCAN
(:mod:`repro.cluster.dbscan`), whose default array kernel prunes pairs by
a sorted grid-cell index and whose reference walk is served by one of two
backends (:mod:`repro.cluster.neighbors`), plus cluster centroiding
(:mod:`repro.cluster.centroids`) and OPTICS (:mod:`repro.cluster.optics`).

The ``dbscan`` and ``optics`` functions are imported from their
submodules, so that ``repro.cluster.dbscan`` stays the module.
"""

from repro.cluster.neighbors import (
    NOISE,
    UNCLASSIFIED,
    BruteForceNeighbors,
    GridNeighbors,
)
from repro.cluster.dbscan import DbscanResult
from repro.cluster.centroids import cluster_centroids, ClusterSummary
from repro.cluster.optics import OpticsResult

__all__ = [
    "NOISE",
    "UNCLASSIFIED",
    "BruteForceNeighbors",
    "GridNeighbors",
    "DbscanResult",
    "cluster_centroids",
    "ClusterSummary",
    "OpticsResult",
]
