"""Exact-value pins of the load harness's percentile semantics.

``nearest_rank`` takes the value at rank ``ceil(q * N)`` (1-based),
which has observable edge behaviour at tiny sample counts — p50 of two
samples is the *lower* one, and p99 equals the max until 100 samples.
These pins freeze that contract so a drive-by "fix" to interpolation or
rounding shows up as a failure here, not as a silent SLO-gate shift.
"""

from __future__ import annotations

import pytest

from repro.load.recorder import LatencyRecorder
from repro.service.metrics import nearest_rank


class TestNearestRankExact:
    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert nearest_rank([7.5], q) == 7.5

    def test_two_samples(self):
        data = [1.0, 2.0]
        # ceil(0.5 * 2) = rank 1: p50 is the LOWER sample.
        assert nearest_rank(data, 0.50) == 1.0
        assert nearest_rank(data, 0.95) == 2.0
        assert nearest_rank(data, 0.99) == 2.0
        assert nearest_rank(data, 0.0) == 1.0
        assert nearest_rank(data, 1.0) == 2.0

    def test_p99_equals_max_below_100_samples(self):
        # ceil(0.99 * n) == n for n < 100: the tail quantile cannot
        # resolve below the max until the sample is large.
        for n in (2, 10, 50):
            data = [float(i) for i in range(n)]
            assert nearest_rank(data, 0.99) == data[-1]

    def test_p99_first_resolves_below_max_at_100_samples(self):
        # ceil(0.99 * 99) = rank 99 of 99: still the max ...
        assert nearest_rank([float(i) for i in range(99)], 0.99) == 98.0
        # ... ceil(0.99 * 100) = rank 99 of 100: second-from-max.
        assert nearest_rank([float(i) for i in range(100)], 0.99) == 98.0

    def test_median_of_odd_sample_is_the_middle(self):
        data = [float(i) for i in range(5)]
        assert nearest_rank(data, 0.5) == 2.0

    def test_errors(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], -0.1)


class TestRecorderExact:
    def test_single_request_pins_all_percentiles(self):
        rec = LatencyRecorder()
        rec.record(200, 0.25)
        report = rec.report(duration_s=1.0)
        assert report.requests == 1
        assert report.latency_p50_s == 0.25
        assert report.latency_p95_s == 0.25
        assert report.latency_p99_s == 0.25
        assert report.latency_max_s == 0.25

    def test_two_requests_p50_is_the_lower_sample(self):
        rec = LatencyRecorder()
        rec.record(200, 0.2)
        rec.record(200, 0.1)
        report = rec.report(duration_s=1.0)
        assert report.latency_p50_s == 0.1
        assert report.latency_p95_s == 0.2
        assert report.latency_p99_s == 0.2

    def test_shed_latency_is_excluded_from_percentiles(self):
        rec = LatencyRecorder()
        rec.record(200, 0.1)
        rec.record(429, 5.0)  # fast-by-construction shed answer
        report = rec.report(duration_s=1.0)
        assert report.requests == 2
        assert report.shed == 1
        assert report.latency_p99_s == 0.1
        assert report.latency_max_s == 0.1

    def test_warmup_is_discarded_entirely(self):
        rec = LatencyRecorder()
        rec.record(200, 9.9, warmup=True)
        rec.record_error(warmup=True)
        report = rec.report(duration_s=1.0)
        assert report.requests == 0
        assert report.errors == 0
        assert report.warmup_discarded == 2
        assert report.latency_p99_s is None

    def test_5xx_counts_as_error_but_latency_still_measured(self):
        rec = LatencyRecorder()
        rec.record(500, 0.3)
        report = rec.report(duration_s=1.0)
        assert report.errors == 1
        assert report.latency_p99_s == 0.3
