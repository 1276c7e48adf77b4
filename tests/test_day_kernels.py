"""The whole-day array kernels against their row references.

Each kernel reads a whole day in any row order, so each property runs
it on random multi-taxi days, half of them with shuffled rows, and
compares it with a row-at-a-time reference that walks each taxi's rows
in canonical order.  That order is written out here (Python ``sorted``
on ``(taxi_id, ts)``), so the references share no code with
:func:`repro.trace.partition.canonical_order`:

* cleaning (:func:`~repro.trace.cleaning.clean_batch`) against
  ``tests/_row_cleaning.py``;
* PEA (:func:`~repro.core.pea.extract_pickup_events_batch`) against the
  oracle's :func:`~repro.conformance.oracles.row_pickup_events`;
* τ_ratio (:func:`~repro.core.thresholds.zone_street_job_ratios`)
  against ``tests/test_loose_ends.py::_row_zone_ratios`` on the row
  ``job_counts`` of ``tests/_row_jobs.py``;
* the array zone lookup against
  :meth:`~repro.geo.zones.ZonePartition.classify_or_nearest`.

Rows are compared by ``repr``, so ``-0.0`` and ``0.0`` count as
different values even where ``==`` calls them equal.
"""

from __future__ import annotations

from dataclasses import astuple, replace
from itertools import groupby

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import RecordBatch
from repro.conformance.oracles import row_pickup_events
from repro.core.pea import PeaStats, extract_pickup_events_batch
from repro.core.thresholds import zone_street_job_ratios
from repro.geo.bbox import BBox
from repro.geo.zones import Zone, ZonePartition, four_zone_partition
from repro.states.machine import ALLOWED_TRANSITIONS
from repro.states.states import TaxiState
from repro.trace.cleaning import CleaningReport, clean_batch
from repro.trace.record import MdtRecord
from repro.trace.trajectory import Trajectory

from tests._row_cleaning import clean_records
from tests._rows import event_rows
from tests.test_loose_ends import _row_zone_ratios

S = TaxiState
#: Ids that differ only by trailing NULs sort apart in Python but
#: collapse in a NumPy ``U`` array.
IDS = ["A", "A\x00", "A\x00\x00", "B", "Z"]
SPEEDS = [0.0, -0.0, 5.0, 10.0, 10.000000000000002, 40.0]

CITY = BBox(103.6, 1.2, 104.0, 1.5)
WATER = BBox(103.7, 1.2, 103.8, 1.3)
#: Points inside the city, on its edges and on the water's, just
#: outside them, and the two zeros.
CITY_POINTS = [
    (103.85, 1.35), (103.65, 1.45), (103.75, 1.25),
    (103.6, 1.35), (104.0, 1.2), (103.8, 1.3), (103.7, 1.5),
    (103.59999999999999, 1.35), (104.00000000000001, 1.5),
    (0.0, 1.35), (-0.0, 1.35),
]

#: Three zones with a shared edge (lon 1.0: the first zone wins) and
#: points inside, on edges and outside every zone (nearest centre).
GRID = ZonePartition([
    Zone("West", BBox(0.0, 0.0, 1.0, 1.0)),
    Zone("East", BBox(1.0, 0.0, 2.0, 1.0)),
    Zone("North", BBox(0.0, 1.0, 2.0, 2.0)),
])
GRID_POINTS = [
    (0.5, 0.5), (1.5, 0.5), (1.0, 0.5), (1.0, 1.5), (0.0, 0.0),
    (2.0, 2.0), (1.0, -1.0), (2.5, 0.5), (-0.5, 3.0),
]
FOUR = four_zone_partition(CITY)


@st.composite
def taxi_rows(draw, taxi_id, points):
    """One taxi's rows in time order: mostly valid Fig. 3 transitions,
    some random (improper) states, ts ties and duplicate runs."""
    rows = []
    ts = float(draw(st.integers(0, 3)))
    state = draw(st.sampled_from(list(S)))
    for _ in range(draw(st.integers(0, draw(st.sampled_from([8, 30, 60]))))):
        step = draw(st.sampled_from(["next", "next", "next", "jump", "dup"]))
        if step == "dup" and rows:
            # A re-transmission; a zero speed may come back as -0.0.
            rows.append(replace(rows[-1], speed=-rows[-1].speed))
            continue
        ts += draw(st.sampled_from([0.0, 1.0, 30.0]))
        if step == "jump":
            state = draw(st.sampled_from(list(S)))
        else:
            state = draw(st.sampled_from(sorted(
                ALLOWED_TRANSITIONS[state], key=lambda s: s.value
            )))
        lon, lat = draw(st.sampled_from(points))
        rows.append(MdtRecord(
            ts, taxi_id, lon, lat, draw(st.sampled_from(SPEEDS)), state
        ))
    return rows


@st.composite
def days(draw, points=CITY_POINTS):
    """A multi-taxi day, grouped by taxi or in a shuffled row order."""
    ids = draw(st.lists(st.sampled_from(IDS), unique=True, max_size=4))
    rows = [row for tid in ids for row in draw(taxi_rows(tid, points))]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return rows


def by_taxi(rows):
    """``(taxi_id, rows)`` per taxi in canonical order, written out:
    taxis by sorted id, each taxi's rows stably by ts."""
    ordered = sorted(rows, key=lambda r: (r.taxi_id, r.ts))
    return [
        (taxi_id, list(group))
        for taxi_id, group in groupby(ordered, key=lambda r: r.taxi_id)
    ]


def exact(records):
    return [repr(r) for r in records]


def rec(ts, state, taxi="A", speed=0.0, lon=103.85, lat=1.35):
    return MdtRecord(float(ts), taxi, lon, lat, speed, state)


class _Taxis:
    """The one store method ``_row_zone_ratios`` reads, over the
    written-out canonical order."""

    def __init__(self, rows):
        self.rows = rows

    def iter_trajectories(self):
        for taxi_id, rows in by_taxi(self.rows):
            yield Trajectory(taxi_id, rows)


class TestCleaning:
    @settings(max_examples=250, deadline=None)
    @given(days(), st.sampled_from([None, CITY]), st.booleans())
    @example(  # an improper stretch starting right after a taxi boundary
        [rec(0, S.FREE, "A"), rec(1, S.POB, "B"), rec(2, S.PAYMENT, "B"),
         rec(3, S.ONCALL, "B"), rec(4, S.ARRIVED, "B"), rec(5, S.FREE, "B")],
        None, False,
    )
    @example(  # a GPS-removed row inside a chain, and -0.0 duplicates
        [rec(0, S.POWEROFF), rec(1, S.OFFLINE), rec(2, S.BREAK, lon=150.0),
         rec(3, S.FREE), rec(3, S.FREE, speed=-0.0), rec(4, S.POB)],
        CITY, True,
    )
    def test_equals_row_reference(self, rows, city, water):
        inaccessible = [WATER] if water else []
        report = CleaningReport()
        expected = []
        for _, taxi in by_taxi(rows):
            expected += clean_records(taxi, city, inaccessible, report)
        cleaned, got = clean_batch(
            RecordBatch.from_rows(rows), city, inaccessible
        )
        assert exact(cleaned.to_rows()) == exact(expected)
        assert got == report
        assert cleaned.taxi_table == tuple(
            sorted({r.taxi_id for r in expected})
        )


class TestPea:
    @settings(max_examples=250, deadline=None)
    @given(days(), st.booleans())
    @example(  # a low run cut by a BREAK, and a speed of exactly 10.0
        [rec(0, S.FREE, speed=40.0), rec(1, S.FREE, speed=10.0),
         rec(2, S.POB, speed=10.0), rec(3, S.BREAK, speed=0.0),
         rec(4, S.FREE, speed=5.0), rec(5, S.POB, speed=5.0)],
        True,
    )
    def test_equals_row_reference(self, rows, apply_state_filters):
        expected, totals = [], [0] * 5
        for taxi_id, taxi in by_taxi(rows):
            events, stats = row_pickup_events(
                Trajectory(taxi_id, taxi), apply_state_filters
            )
            expected += [(e.taxi_id, exact(event_rows(e))) for e in events]
            totals = [a + b for a, b in zip(totals, astuple(stats))]
        events, stats = extract_pickup_events_batch(
            RecordBatch.from_rows(rows), apply_state_filters
        )
        assert [(e.taxi_id, exact(event_rows(e))) for e in events] == expected
        assert stats == PeaStats(*totals)


class TestStreetJobRatios:
    @settings(max_examples=250, deadline=None)
    @given(days(GRID_POINTS))
    @example(  # a vote tie: East is voted first, West has the lower index
        [rec(0, S.FREE, lon=1.5, lat=0.5), rec(1, S.POB, lon=0.5, lat=0.5),
         rec(2, S.FREE, lon=1.5, lat=0.5), rec(3, S.POB, lon=0.5, lat=0.5)]
    )
    @example(  # STC before the first POB; NOSHOW clears a dispatch; a
        # trip cut by the taxi's end
        [rec(0, S.ONCALL, lon=0.5, lat=0.5), rec(1, S.NOSHOW),
         rec(2, S.STC), rec(3, S.POB), rec(4, S.FREE),
         rec(5, S.ARRIVED), rec(6, S.PAYMENT), rec(7, S.POB),
         rec(8, S.BUSY), rec(9, S.ONCALL), rec(10, S.POB)]
    )
    def test_equals_row_reference(self, rows):
        assert zone_street_job_ratios(
            RecordBatch.from_rows(rows), GRID
        ) == _row_zone_ratios(_Taxis(rows), GRID)


_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 2.5, -1.0, 103.6, 104.0,
                     1.2, 1.5, 1.0000000000000002]),
    st.floats(-1.0, 105.0),
)


class TestZoneLookup:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_coordinate, _coordinate), max_size=30),
        st.sampled_from([GRID, FOUR]),
    )
    def test_equals_scalar_lookup(self, points, zones):
        lon = np.array([x for x, _ in points], dtype=np.float64)
        lat = np.array([y for _, y in points], dtype=np.float64)
        got = zones.classify_or_nearest_array(lon, lat)
        assert [zones.zones[k].name for k in got.tolist()] == [
            zones.classify_or_nearest(x, y) for x, y in points
        ]
