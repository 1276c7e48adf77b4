"""Tests for the from-scratch DBSCAN (section 4.3).

Two oracles:

* a tiny set-based reference: every implementation must produce the
  same partition (same noise set and the same point groupings, up to
  cluster-id renaming) on random data, for every neighbour backend;
* the sequential neighbour walk: the array kernel must equal it exactly
  (labels with border assignment, core mask, cluster count), on point
  sets with ties at exactly eps and points on cell edges.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.cluster.dbscan as dbscan_module
from repro.cluster.dbscan import DbscanResult, dbscan
from repro.cluster.neighbors import NOISE, BruteForceNeighbors, GridNeighbors

BACKENDS = [BruteForceNeighbors, GridNeighbors]


def reference_dbscan(points: np.ndarray, eps: float, min_pts: int):
    """Set-based reference: clusters = connected components of core points
    under eps-adjacency, plus reachable border points."""
    n = len(points)
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2 * points @ points.T
        + np.sum(points**2, axis=1)[None, :]
    )
    adj = d2 <= eps * eps
    core = adj.sum(axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=int)
    cid = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        stack = [i]
        labels[i] = cid
        while stack:
            j = stack.pop()
            if not core[j]:
                continue
            for k in np.flatnonzero(adj[j]):
                if labels[k] == NOISE:
                    labels[k] = cid
                    stack.append(int(k))
        cid += 1
    return labels, cid


def partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same noise set and same groupings up to label renaming."""
    if not np.array_equal(a == NOISE, b == NOISE):
        return False
    mapping = {}
    for la, lb in zip(a, b):
        if la == NOISE:
            continue
        if la in mapping and mapping[la] != lb:
            return False
        mapping[la] = lb
    return len(set(mapping.values())) == len(mapping)


def three_blobs(seed=0, spread=0.5, sep=20.0, n=40):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [
            rng.normal(loc=(i * sep, 0.0), scale=spread, size=(n, 2))
            for i in range(3)
        ]
    )


class TestBasics:
    def test_three_well_separated_blobs(self):
        points = three_blobs()
        result = dbscan(points, eps=2.0, min_pts=5)
        assert result.n_clusters == 3
        assert len(result.noise_indices()) == 0
        assert np.bincount(result.labels).tolist() == [40, 40, 40]

    def test_noise_points_detected(self):
        points = np.vstack([three_blobs(), [[1000.0, 1000.0]]])
        result = dbscan(points, eps=2.0, min_pts=5)
        assert result.labels[-1] == NOISE

    def test_min_pts_larger_than_blob_gives_noise(self):
        points = three_blobs(n=10)
        result = dbscan(points, eps=2.0, min_pts=50)
        assert result.n_clusters == 0
        assert len(result.noise_indices()) == len(points)

    def test_eps_merges_clusters(self):
        points = three_blobs(sep=5.0)
        few = dbscan(points, eps=1.0, min_pts=5).n_clusters
        many = dbscan(points, eps=6.0, min_pts=5).n_clusters
        assert many <= few or many == 1

    def test_empty_input(self):
        result = dbscan(np.empty((0, 2)), eps=1.0, min_pts=3)
        assert result.n_clusters == 0
        assert len(result.labels) == 0

    def test_invalid_parameters(self):
        points = np.zeros((5, 2))
        with pytest.raises(ValueError):
            dbscan(points, eps=0.0, min_pts=3)
        with pytest.raises(ValueError):
            dbscan(points, eps=1.0, min_pts=0)

    def test_core_mask_marks_interior(self):
        points = three_blobs()
        result = dbscan(points, eps=2.0, min_pts=5)
        assert result.core_mask.sum() > 0
        # Every core point must be in a cluster.
        assert (result.labels[result.core_mask] != NOISE).all()

    def test_cluster_indices(self):
        points = three_blobs()
        result = dbscan(points, eps=2.0, min_pts=5)
        total = sum(len(result.cluster_indices(c)) for c in range(3))
        assert total == len(points)


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_blobs_same_for_all_backends(self, backend):
        points = three_blobs(seed=3)
        base = dbscan(points, eps=2.0, min_pts=5)
        other = dbscan(points, eps=2.0, min_pts=5, neighbors_factory=backend)
        assert partitions_equal(base.labels, other.labels)


class TestAgainstReference:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=-50, max_value=50),
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.5, max_value=20.0),
        st.integers(min_value=1, max_value=8),
    )
    # Regression: a point exactly `eps` away whose coordinate sits one
    # ulp below a grid-cell boundary — the rounded distance test accepts
    # it, so cell pruning must not drop it.
    @example(
        coords=[(1.0, 0.0), (-3.4327220035756265e-135, 0.0)],
        eps=1.0,
        min_pts=1,
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_matches_reference(self, coords, eps, min_pts):
        # Border-point assignment is order-dependent in DBSCAN, so the
        # oracle comparison covers the order-independent parts: the noise
        # set, the cluster count, and the partition restricted to core
        # points.
        points = np.asarray(coords, dtype=np.float64)
        ref_labels, ref_n = reference_dbscan(points, eps, min_pts)
        d2 = (
            np.sum(points**2, axis=1)[:, None]
            - 2 * points @ points.T
            + np.sum(points**2, axis=1)[None, :]
        )
        core = (d2 <= eps * eps).sum(axis=1) >= min_pts
        for backend in BACKENDS:
            result = dbscan(points, eps, min_pts, neighbors_factory=backend)
            assert result.n_clusters == ref_n
            assert np.array_equal(result.core_mask, core)
            assert np.array_equal(
                result.labels == NOISE, ref_labels == NOISE
            )
            assert partitions_equal(result.labels[core], ref_labels[core])


# -- the array kernel against the walk -----------------------------------------


@st.composite
def point_sets(draw):
    """``(points, eps)``: float coordinates, integer metres (distance
    ties at exactly eps), or multiples of eps nudged by an ulp (points
    on and beside cell edges)."""
    eps = draw(st.one_of(st.floats(0.5, 20.0), st.sampled_from([1.0, 2.0, 5.0, 15.0])))
    kind = draw(st.sampled_from(["float", "integer", "cell-edge"]))
    if kind == "float":
        coord = st.floats(-50, 50)
    elif kind == "integer":
        coord = st.integers(-12, 12).map(float)
    else:
        coord = st.builds(
            lambda k, nudge: float(np.nextafter(k * eps, nudge * np.inf))
            if nudge else k * eps,
            st.integers(-6, 6),
            st.sampled_from([0, 0, -1, 1]),
        )
    coords = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=80))
    return np.asarray(coords, dtype=np.float64), eps


def assert_same_result(kernel: DbscanResult, walk: DbscanResult) -> None:
    assert kernel.n_clusters == walk.n_clusters
    assert np.array_equal(kernel.core_mask, walk.core_mask)
    assert np.array_equal(kernel.labels, walk.labels)


class TestArrayKernelEqualsWalk:
    @given(point_sets(), st.integers(min_value=1, max_value=10))
    # The ulp boundary of TestAgainstReference: the kernel's cell
    # ranges must keep the pair the rounded distance test accepts.
    @example(
        (np.array([(1.0, 0.0), (-3.4327220035756265e-135, 0.0)]), 1.0), 1
    )
    # The same pair with the far point a border point: only its own
    # query, whose cell range needs the rounding slack, can reach the
    # core point.
    @example(
        (
            np.array(
                [(1.0, 0.0), (-3.4327220035756265e-135, 0.0), (-0.5, 0.0)]
            ),
            1.0,
        ),
        3,
    )
    @settings(max_examples=300, deadline=None)
    def test_labels_core_mask_and_count(self, points_eps, min_pts):
        points, eps = points_eps
        kernel = dbscan(points, eps, min_pts)
        for backend in (BruteForceNeighbors, GridNeighbors):
            assert_same_result(
                kernel, dbscan(points, eps, min_pts, neighbors_factory=backend)
            )

    def test_border_point_joins_the_first_cluster(self):
        # Two dense columns 2 apart and one point between them, within
        # eps of both: it is a border point of each, and the walk gives
        # it to cluster 0, which it discovers first.
        left = [(0.0, 0.1 * i) for i in range(5)]
        right = [(2.0, 0.1 * i) for i in range(5)]
        points = np.array(right + [(1.0, 0.2)] + left)
        result = dbscan(points, eps=1.0, min_pts=5)
        assert result.n_clusters == 2
        assert not result.core_mask[5]
        assert result.labels[5] == 0
        assert_same_result(
            result, dbscan(points, 1.0, 5, neighbors_factory=BruteForceNeighbors)
        )

    def test_pair_blocks_stay_bounded(self, monkeypatch):
        # A blob where every point neighbours every other: far more
        # neighbour pairs than one block may hold.
        points = three_blobs(seed=5, spread=0.2, n=60)
        expected = dbscan(points, 2.0, 5)
        monkeypatch.setattr(dbscan_module, "PAIR_BLOCK", 16)
        sizes = []
        pairs = dbscan_module._SortedCells.pairs

        def recording(self, queries, after, among=None):
            for p, q in pairs(self, queries, after, among):
                sizes.append(len(p))
                yield p, q

        monkeypatch.setattr(dbscan_module._SortedCells, "pairs", recording)
        assert_same_result(dbscan(points, 2.0, 5), expected)
        # A block holds at most one query beyond the budget: here each
        # point has < 60 candidates.
        assert sum(sizes) > 30 * 16
        assert max(sizes) < 16 + 60

    def test_rejects_non_finite_points(self):
        with pytest.raises(ValueError, match="finite"):
            dbscan(np.array([[0.0, 0.0], [np.nan, 1.0]]), eps=1.0, min_pts=1)
