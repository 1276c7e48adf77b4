"""Tests for street/booking job segmentation (sections 2.2 and 6.2.1).

They check the row reference in ``tests/_row_jobs.py``; the production
job counts, the array kernel of ``zone_street_job_ratios``, are pinned
to it in ``tests/test_day_kernels.py``.
"""

from repro.states.states import TaxiState

from tests._row_jobs import Job, JobKind, job_counts, segment_jobs

S = TaxiState


def _tl(*states):
    """Timeline with 1-second spacing."""
    return [(float(i), state) for i, state in enumerate(states)]


class TestSegmentJobs:
    def test_street_job(self):
        jobs = segment_jobs(
            _tl(S.FREE, S.POB, S.STC, S.PAYMENT, S.FREE)
        )
        assert len(jobs) == 1
        assert jobs[0].kind is JobKind.STREET
        assert jobs[0].pickup_ts == 1.0
        assert jobs[0].dropoff_ts == 4.0

    def test_booking_job(self):
        jobs = segment_jobs(
            _tl(S.FREE, S.ONCALL, S.ARRIVED, S.POB, S.PAYMENT, S.FREE)
        )
        assert len(jobs) == 1
        assert jobs[0].kind is JobKind.BOOKING

    def test_booking_without_arrived_record(self):
        # Drivers skip the ARRIVED button; still a booking job.
        jobs = segment_jobs(_tl(S.FREE, S.ONCALL, S.POB, S.FREE))
        assert [j.kind for j in jobs] == [JobKind.BOOKING]

    def test_noshow_resets_dispatch(self):
        # NOSHOW cancels the booking; the next pickup is a street job.
        jobs = segment_jobs(
            _tl(S.ONCALL, S.ARRIVED, S.NOSHOW, S.FREE, S.POB, S.FREE)
        )
        assert [j.kind for j in jobs] == [JobKind.STREET]

    def test_two_jobs_in_sequence(self):
        jobs = segment_jobs(
            _tl(
                S.FREE, S.POB, S.PAYMENT, S.FREE,  # street
                S.ONCALL, S.POB, S.STC, S.PAYMENT, S.FREE,  # booking
            )
        )
        assert [j.kind for j in jobs] == [JobKind.STREET, JobKind.BOOKING]

    def test_incomplete_trip_dropped(self):
        jobs = segment_jobs(_tl(S.FREE, S.POB, S.STC))
        assert jobs == []

    def test_break_clears_dispatch_flag(self):
        jobs = segment_jobs(
            _tl(S.ONCALL, S.BREAK, S.FREE, S.POB, S.FREE)
        )
        assert [j.kind for j in jobs] == [JobKind.STREET]

    def test_payment_to_oncall_chains_booking(self):
        # A taxi accepting a booking while finishing the previous trip.
        jobs = segment_jobs(
            _tl(S.FREE, S.POB, S.PAYMENT, S.ONCALL, S.ARRIVED, S.POB, S.FREE)
        )
        assert [j.kind for j in jobs] == [JobKind.STREET, JobKind.BOOKING]

    def test_empty_timeline(self):
        assert segment_jobs([]) == []

    def test_jobs_are_frozen_records(self):
        job = segment_jobs(_tl(S.FREE, S.POB, S.FREE))[0]
        assert isinstance(job, Job)
        assert job.pickup_index == 1


class TestRatios:
    def test_job_counts(self):
        street, total = job_counts(
            _tl(S.FREE, S.POB, S.FREE, S.ONCALL, S.POB, S.FREE)
        )
        assert (street, total) == (1, 2)
