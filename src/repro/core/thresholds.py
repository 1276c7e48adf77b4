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
  derived from the logs via taxi-state job segmentation.

Multipliers (default 1.0) allow the sensitivity ablation of DESIGN.md
without touching the faithful defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.columnar import RecordBatch
from repro.core.wte import WaitEvent
from repro.geo.zones import ZonePartition
from repro.states.jobs import job_counts
from repro.states.states import STATES_BY_CODE

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


def zone_street_job_ratios(
    batch: RecordBatch, zones: ZonePartition
) -> Dict[str, float]:
    """The street-to-total job ratio of every zone of a cleaned batch.

    Section 6.2.1 computes "the daily ratio of the total street job
    number to the total job number (street jobs + booking jobs) in
    different zones and days of week" and uses it as ``tau_ratio``.

    A taxi counts toward the zone where most of its records lie, judged
    on about 25 evenly spaced records; this keeps job segmentation
    whole-trajectory while still giving zone-level ratios.  Zones
    without completed jobs get the neutral default, the paper's
    Central-zone Sunday value (:data:`DEFAULT_STREET_JOB_RATIO`).
    """
    from repro.trace.partition import partition_batch_by_taxi

    counts = {zone.name: [0, 0] for zone in zones}
    for _, sub in partition_batch_by_taxi(batch):
        lon, lat = sub.lon, sub.lat
        votes: Dict[str, int] = {}
        for i in range(0, len(sub), max(1, len(sub) // 25)):
            name = zones.classify_or_nearest(lon[i], lat[i])
            votes[name] = votes.get(name, 0) + 1
        street, total = job_counts(
            list(zip(sub.ts, map(STATES_BY_CODE.__getitem__, sub.state)))
        )
        home = counts[max(votes, key=votes.get)]
        home[0] += street
        home[1] += total
    return {
        name: _street_ratio(street, total)
        for name, (street, total) in counts.items()
    }


def _street_ratio(street: int, total: int) -> float:
    if total == 0:
        return DEFAULT_STREET_JOB_RATIO
    return street / total
