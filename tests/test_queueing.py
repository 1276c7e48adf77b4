"""Tests for the queueing substrate (Little's law)."""

import pytest

from repro.queueing.littles_law import little_queue_length


class TestLittlesLaw:
    def test_basic_identity(self):
        assert little_queue_length(0.5, 10.0) == 5.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            little_queue_length(-1.0, 1.0)
