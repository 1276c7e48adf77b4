"""Property-based tests of Little's law.

Pins the algebraic edges the example-based tests skate over: a zero
arrival rate, and a negative rate or wait.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.littles_law import little_queue_length


class TestLittlesLaw:
    @given(wait=st.floats(min_value=0.0, max_value=1e9,
                          allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_zero_arrival_rate_means_empty_queue(self, wait):
        assert little_queue_length(0.0, wait) == 0.0

    def test_negative_inputs_raise(self):
        with pytest.raises(ValueError):
            little_queue_length(-1.0, 1.0)
        with pytest.raises(ValueError):
            little_queue_length(1.0, -1.0)
