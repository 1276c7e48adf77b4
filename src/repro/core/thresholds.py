"""Threshold selection for the QCD algorithm (section 6.2.1).

QCD needs six thresholds per queue spot; the paper derives them from the
spot's own data:

* ``eta_wait`` — mean of the spot's top 20% *shortest* street wait times
  ("which can commonly depict taxi wait ... when the passenger queue
  exists");
* ``eta_dep``  — mean of the top 20% shortest departure intervals;
* ``tau_arr``  = slot_length / eta_wait;
* ``tau_dep``  = slot_length / eta_dep;
* ``eta_dur``  = 90% of the slot length (1620 s for 30-minute slots);
* ``tau_ratio`` — the daily ratio of street jobs to all jobs in the
  spot's zone and day of week (e.g. 0.84 in the Central zone on Sunday),
  derived from the logs via taxi-state job segmentation
  (:func:`zone_street_job_ratios`).

Multipliers (default 1.0) allow the sensitivity ablation of DESIGN.md
without touching the faithful defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.columnar import RecordBatch
from repro.core.wte import WaitEvent
from repro.geo.zones import ZonePartition
from repro.states.states import (
    OCCUPIED_STATES,
    STATE_CODES,
    TaxiState,
    code_mask,
)
from repro.trace.partition import canonical_order, ordered_column

#: Street-job ratio used where a zone has no completed jobs to estimate
#: one from (the paper's Central-zone Sunday figure, section 6.2.1).
DEFAULT_STREET_JOB_RATIO = 0.84


@dataclass(frozen=True)
class QcdThresholds:
    """The six thresholds consumed by the QCD algorithm."""

    eta_wait: float
    eta_dep: float
    tau_arr: float
    tau_dep: float
    eta_dur: float
    tau_ratio: float


@dataclass(frozen=True)
class ThresholdPolicy:
    """How thresholds are derived (section 6.2.1, plus one robustness knob).

    ``granularity`` selects what the shortest-20% statistic runs over:

    * ``"slot"`` (default) — per-slot *mean* waits and *mean* departure
      intervals.  This is a documented deviation from the paper's literal
      wording (see DESIGN.md): with event-level gaps, Poisson clumping
      drives the shortest quintile towards zero and makes the C1/C2
      branches unreachable; slot means measure the cadence the QCD
      comparisons actually use.
    * ``"event"`` — the paper's literal raw-value statistic (kept for the
      threshold-sensitivity ablation bench).
    """

    shortest_fraction: float = 0.2
    """Quantile of shortest waits / departure intervals averaged."""

    duration_fraction: float = 0.9
    """eta_dur as a fraction of the slot length."""

    eta_wait_multiplier: float = 3.0
    """Scales eta_wait (and hence 1/tau_arr).  The paper's literal value
    is 1.0; section 6.2.1 notes thresholds "need to be properly set" per
    deployment, and the calibration pass against simulator ground truth
    (DESIGN.md) selects 3.0: it places eta_wait between the short
    passenger-queue waits and the long no-queue waits, which is what the
    C2/C4 comparison needs."""

    eta_dep_multiplier: float = 2.2
    """Scales eta_dep (and hence 1/tau_dep); calibrated like
    ``eta_wait_multiplier`` (paper-literal: 1.0).  Places eta_dep between
    the fast passenger-queue departure cadence and the slow taxi-queue
    cadence, separating C1 from C3."""

    granularity: str = "slot"
    """``"slot"`` or ``"event"`` (see class docstring)."""

    def __post_init__(self) -> None:
        if not 0.0 < self.shortest_fraction <= 1.0:
            raise ValueError("shortest_fraction must be in (0, 1]")
        if not 0.0 < self.duration_fraction <= 1.0:
            raise ValueError("duration_fraction must be in (0, 1]")
        if self.granularity not in ("slot", "event"):
            raise ValueError("granularity must be 'slot' or 'event'")


def _mean_of_shortest(values: List[float], fraction: float) -> float:
    """Mean of the shortest ``fraction`` of the values.

    Raises:
        ValueError: on an empty input.
    """
    if not values:
        raise ValueError("cannot derive a threshold from zero values")
    ordered = sorted(values)
    k = max(1, math.ceil(len(ordered) * fraction))
    head = ordered[:k]
    return sum(head) / len(head)


def derive_thresholds_from_features(
    features: Iterable,
    slot_seconds: float,
    street_job_ratio: float,
    policy: ThresholdPolicy = ThresholdPolicy(),
) -> QcdThresholds:
    """Derive thresholds from per-slot aggregate features (default policy).

    Args:
        features: the spot's :class:`~repro.core.types.SlotFeatures`.
        slot_seconds: time-slot length.
        street_job_ratio: zone/day street-to-total job ratio (tau_ratio).
        policy: derivation policy.

    Raises:
        ValueError: when no slot carries a wait or departure cadence.
    """
    slot_waits: List[float] = []
    slot_deps: List[float] = []
    for f in features:
        if f.mean_wait_s is not None:
            slot_waits.append(f.mean_wait_s)
        # Slots with fewer than two departures carry the slot length as a
        # placeholder interval; exclude them from the cadence statistic.
        if f.n_departures > 0 and f.mean_departure_interval_s < slot_seconds:
            slot_deps.append(f.mean_departure_interval_s)
    if not slot_waits:
        raise ValueError("no slot has a street wait to derive eta_wait")
    if not slot_deps:
        raise ValueError("no slot has a departure cadence to derive eta_dep")
    eta_wait = max(
        1.0,
        _mean_of_shortest(slot_waits, policy.shortest_fraction)
        * policy.eta_wait_multiplier,
    )
    eta_dep = max(
        1.0,
        _mean_of_shortest(slot_deps, policy.shortest_fraction)
        * policy.eta_dep_multiplier,
    )
    return QcdThresholds(
        eta_wait=eta_wait,
        eta_dep=eta_dep,
        tau_arr=slot_seconds / eta_wait,
        tau_dep=slot_seconds / eta_dep,
        eta_dur=slot_seconds * policy.duration_fraction,
        tau_ratio=street_job_ratio,
    )


def derive_thresholds(
    events: Iterable[WaitEvent],
    slot_seconds: float,
    street_job_ratio: float,
    policy: ThresholdPolicy = ThresholdPolicy(),
) -> QcdThresholds:
    """Derive a spot's QCD thresholds from raw wait events (event-level).

    This is the paper's literal statistic; the engine defaults to the
    slot-level variant (:func:`derive_thresholds_from_features`) per the
    ``ThresholdPolicy.granularity`` discussion.

    Args:
        events: the spot's wait events over the analysis window.
        slot_seconds: time-slot length (1800 s in the paper).
        street_job_ratio: the zone/day street-to-total job ratio for
            ``tau_ratio`` (see :func:`zone_street_job_ratios`).
        policy: derivation policy (paper defaults).

    Returns:
        The six thresholds.

    Raises:
        ValueError: when the spot has no street waits or fewer than two
            departures (no cadence to derive thresholds from).
    """
    events = list(events)
    street_waits = [e.wait_s for e in events if e.is_street]
    eta_wait = (
        _mean_of_shortest(street_waits, policy.shortest_fraction)
        * policy.eta_wait_multiplier
    )
    departures = sorted(e.end_ts for e in events)
    if len(departures) < 2:
        raise ValueError("need at least two departures to derive eta_dep")
    gaps = [b - a for a, b in zip(departures, departures[1:]) if b > a]
    if not gaps:
        raise ValueError("all departures are simultaneous")
    eta_dep = (
        _mean_of_shortest(gaps, policy.shortest_fraction)
        * policy.eta_dep_multiplier
    )
    eta_wait = max(eta_wait, 1.0)
    eta_dep = max(eta_dep, 1.0)
    return QcdThresholds(
        eta_wait=eta_wait,
        eta_dep=eta_dep,
        tau_arr=slot_seconds / eta_wait,
        tau_dep=slot_seconds / eta_dep,
        eta_dur=slot_seconds * policy.duration_fraction,
        tau_ratio=street_job_ratio,
    )


_S = TaxiState
_OCCUPIED = code_mask(OCCUPIED_STATES)
#: Dispatches: a pickup after one of these, with no other setter
#: between, is a booking job.
_DISPATCH = code_mask([_S.ONCALL, _S.ARRIVED])
#: States that set or clear the dispatch outside a trip.
_SETTER = code_mask(
    [_S.ONCALL, _S.ARRIVED, _S.NOSHOW, _S.BREAK, _S.OFFLINE, _S.POWEROFF]
)
_POB = STATE_CODES[_S.POB]
#: Home-zone votes per taxi: about this many evenly spaced rows.
_VOTES = 25


def zone_street_job_ratios(
    batch: RecordBatch, zones: ZonePartition
) -> Dict[str, float]:
    """The street-to-total job ratio of every zone of a cleaned batch.

    Section 6.2.1 computes "the daily ratio of the total street job
    number to the total job number (street jobs + booking jobs) in
    different zones and days of week" and uses it as ``tau_ratio``.

    A taxi counts toward the zone where most of its records lie, judged
    on about 25 evenly spaced records (every ``max(1, n // 25)``-th of
    its ``n`` rows in time order); a tie goes to the zone voted first.
    This keeps job segmentation whole-trajectory while still giving
    zone-level ratios.  Zones without completed jobs get the neutral
    default, the paper's Central-zone Sunday value
    (:data:`DEFAULT_STREET_JOB_RATIO`).

    Jobs are counted over the whole day at once, in canonical order:

    * a trip starts at the first POB of each maximal run of occupied
      rows (POB, STC, PAYMENT) of one taxi, and completes when a row of
      the same taxi follows the run;
    * it is a booking job when the last *setter* row before it in its
      taxi is ONCALL or ARRIVED.  Setters are ONCALL, ARRIVED, NOSHOW,
      BREAK, OFFLINE and POWEROFF rows, plus the row that ends each
      completed trip (so a FREE or BUSY row that ends a trip clears
      the dispatch).
    """
    street = total = np.zeros(len(zones), dtype=np.intp)
    if len(batch):
        order = canonical_order(batch)
        taxi = ordered_column(batch.taxi, order)
        same = taxi[1:] == taxi[:-1]  # row i + 1 continues row i's taxi
        del taxi
        first = np.append(True, ~same)  # a taxi's first row
        owner = np.cumsum(first, dtype=np.int32) - 1  # each row's taxi
        home = _home_zones(batch, order, np.flatnonzero(first), zones)
        del first
        street_trips, trips = _jobs(
            ordered_column(batch.state, order), same, owner
        )
        street = np.bincount(home[owner[street_trips]], minlength=len(zones))
        total = np.bincount(home[owner[trips]], minlength=len(zones))
    return {
        zone.name: _street_ratio(s, t)
        for zone, s, t in zip(zones, street.tolist(), total.tolist())
    }


def _home_zones(
    batch: RecordBatch,
    order: Optional[np.ndarray],
    starts: np.ndarray,
    zones: ZonePartition,
) -> np.ndarray:
    """Each taxi's home-zone index from its sampled rows' votes
    (``starts``: each taxi's first row in canonical order)."""
    sizes = np.diff(np.append(starts, len(batch)))
    step = np.maximum(1, sizes // _VOTES)
    votes = -(-sizes // step)
    offsets = np.cumsum(votes)
    ordinal = np.arange(offsets[-1]) - np.repeat(offsets - votes, votes)
    rows = np.repeat(starts, votes) + np.repeat(step, votes) * ordinal
    if order is not None:
        rows = order[rows]
    zone = zones.classify_or_nearest_array(batch.lon[rows], batch.lat[rows])
    # Tally per (taxi, zone); each pair's first vote breaks ties.
    pair = np.repeat(np.arange(len(starts)), votes) * len(zones) + zone
    tally = np.bincount(pair, minlength=len(starts) * len(zones))
    first = np.full(len(tally), len(pair))
    present, at = np.unique(pair, return_index=True)
    first[present] = at
    tally = tally.reshape(len(starts), len(zones))
    first = first.reshape(len(starts), len(zones))
    best = tally == tally.max(axis=1, keepdims=True)
    return np.where(best, first, len(pair)).argmin(axis=1)


def _jobs(state: np.ndarray, same: np.ndarray, owner: np.ndarray):
    """``(street, all)``: the pickup rows of the completed street jobs
    and of all completed jobs, from one day's state column in canonical
    order (``same[i]``: row ``i + 1`` continues row ``i``'s taxi;
    ``owner``: each row's taxi ordinal)."""
    occupied = _OCCUPIED[state]
    joined = occupied[1:] & occupied[:-1] & same  # rows i, i + 1 in a run
    begins, ends = occupied.copy(), occupied
    begins[1:] &= ~joined
    ends[:-1] &= ~joined
    run = np.cumsum(begins, dtype=np.int32)  # 1-based run of a row
    end = np.flatnonzero(ends)
    # The first POB of each occupied run starts its trip.
    pob = np.flatnonzero(state == _POB)
    first = np.ones(len(pob), dtype=bool)
    first[1:] = run[pob[1:]] != run[pob[:-1]]
    trip = pob[first]
    last = end[run[trip] - 1]
    complete = last < len(state) - 1
    complete[complete] = same[last[complete]]
    trip, dropoff = trip[complete], last[complete] + 1
    setter = _SETTER[state]
    setter[dropoff] = True
    latest = np.where(setter, np.arange(len(state), dtype=np.int32), -1)
    np.maximum.accumulate(latest, out=latest)
    before = latest[trip]
    booking = before >= 0
    booking[booking] = (owner[before[booking]] == owner[trip[booking]]) & (
        _DISPATCH[state[before[booking]]]
    )
    return trip[~booking], trip


def _street_ratio(street: int, total: int) -> float:
    if total == 0:
        return DEFAULT_STREET_JOB_RATIO
    return street / total
