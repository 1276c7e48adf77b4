"""Tests for the grid index (section 4.3's spatial index).

The index must agree exactly with a brute-force radius scan; hypothesis
drives the comparison over random point clouds and probes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid_index import GridIndex


def brute_force(points: np.ndarray, x: float, y: float, r: float) -> set:
    diff = points - np.array([x, y])
    d2 = np.einsum("ij,ij->i", diff, diff)
    return set(np.flatnonzero(d2 <= r * r).tolist())


@st.composite
def point_cloud(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=-500, max_value=500),
                st.floats(min_value=-500, max_value=500),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(coords, dtype=np.float64)


class TestGridIndex:
    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((3, 2)), cell_size=0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((3, 3)), cell_size=1.0)

    def test_rejects_bad_radius(self):
        index = GridIndex(np.zeros((3, 2)), cell_size=1.0)
        with pytest.raises(ValueError):
            index.query_radius(0.0, 0.0, -1.0)

    def test_includes_probe_point(self):
        points = np.array([[0.0, 0.0], [10.0, 10.0]])
        index = GridIndex(points, cell_size=5.0)
        assert 0 in index.query_radius_index(0, 5.0)

    def test_empty_region(self):
        points = np.array([[0.0, 0.0]])
        index = GridIndex(points, cell_size=1.0)
        assert len(index.query_radius(100.0, 100.0, 1.0)) == 0

    def test_radius_larger_than_cell(self):
        points = np.array([[0.0, 0.0], [9.0, 0.0], [25.0, 0.0]])
        index = GridIndex(points, cell_size=2.0)
        found = set(index.query_radius(0.0, 0.0, 10.0).tolist())
        assert found == {0, 1}

    @given(point_cloud(), st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, points, radius):
        index = GridIndex(points, cell_size=radius)
        probe = points[0]
        got = set(
            index.query_radius(float(probe[0]), float(probe[1]), radius).tolist()
        )
        assert got == brute_force(points, probe[0], probe[1], radius)
