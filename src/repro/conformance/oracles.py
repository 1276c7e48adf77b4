"""Brute-force reference oracles.

Each oracle recomputes part of a run's output with the slowest, most
obviously correct method available and returns a list of human-readable
divergence strings (empty = conformant):

* :func:`check_bruteforce_spots` — tier-1 spots against the oracle's own
  tier 1: the row PEA of :func:`row_pickup_events` (an independent copy
  of Algorithm 1 and its section-4.2 constraints, on
  :class:`~repro.states.states.TaxiState` sets) and DBSCAN over the
  O(n^2) :class:`~repro.cluster.neighbors.BruteForceNeighbors` backend
  (no grid index, no R-tree — a plain radius scan);
* :func:`check_batch_recompute` — every spot's 5-tuple features
  recomputed directly from its wait events, and every slot label
  recomputed by applying QCD to those features;
* :func:`check_streaming_labels` — every finalized
  :class:`~repro.stream.monitor.SlotResult` relabelled from its own
  features and the bootstrap thresholds.  This is the oracle that
  catches a corrupted streaming QCD stage (see
  :mod:`repro.conformance.faults`): the batch paths never see it
  because streaming output is not exactly comparable to batch output.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster.neighbors import BruteForceNeighbors
from repro.conformance.canonical import DayBootstrap
from repro.conformance.diff import diff_values
from repro.core.engine import QueueAnalyticEngine, SpotAnalysis
from repro.core.features import compute_slot_features
from repro.core.pea import DEFAULT_SPEED_THRESHOLD_KMH, PeaStats, PickupEvent
from repro.core.qcd import disambiguate as qcd_disambiguate
from repro.core.qcd import label_slot
from repro.core.spots import (
    SpotDetectionResult,
    detect_from_centroids,
    pickup_centroids,
)
from repro.core.types import QueueType, TimeSlotGrid
from repro.states.states import (
    NON_OPERATIONAL_STATES,
    OCCUPIED_STATES,
    TaxiState,
    UNOCCUPIED_STATES,
)
from repro.stream.monitor import SlotResult
from repro.trace.log_store import MdtLogStore
from repro.trace.trajectory import Trajectory


def row_pickup_events(
    trajectory: Trajectory, apply_state_filters: bool = True
) -> Tuple[List[PickupEvent], PeaStats]:
    """Algorithm 1 over one taxi's records, one row at a time.

    The oracle's reference PEA.  It keeps its own copy of the
    section-4.2 constraints on :class:`TaxiState` sets and never calls
    the engine's :func:`~repro.core.pea.candidate_rejection`, so a bug
    in the shared rule shows up as a divergence.
    """
    records = trajectory.records
    events: List[PickupEvent] = []
    rejected = {"alight": 0, "oncall_leave": 0, "no_transition": 0}

    def finalize(start: int, end: int) -> None:
        candidate = records[start:end + 1]
        if apply_state_filters:
            first, last = candidate[0].state, candidate[-1].state
            if first in OCCUPIED_STATES and last in UNOCCUPIED_STATES:
                rejected["alight"] += 1
                return
            if first is TaxiState.FREE and last is TaxiState.ONCALL:
                rejected["oncall_leave"] += 1
                return
            if all(r.state is first for r in candidate):
                rejected["no_transition"] += 1
                return
        events.append(PickupEvent(trajectory.taxi_id, tuple(candidate)))

    phi1 = False
    phi2 = False
    start = -1  # index of p_{i-1} when the candidate opened
    for i, record in enumerate(records):
        if record.state in NON_OPERATIONAL_STATES:
            # TAG1: drop any open candidate and restart the scan.
            phi1 = False
            phi2 = False
            continue
        if record.speed <= DEFAULT_SPEED_THRESHOLD_KMH:
            if not phi1:
                phi1 = True
            elif not phi2:
                start = i - 1
                phi2 = True
        else:
            if phi2:
                finalize(start, i - 1)
            phi1 = False
            phi2 = False
    if phi2:
        finalize(start, len(records) - 1)

    stats = PeaStats(
        candidates=len(events) + sum(rejected.values()),
        kept=len(events),
        rejected_alight=rejected["alight"],
        rejected_oncall_leave=rejected["oncall_leave"],
        rejected_no_transition=rejected["no_transition"],
    )
    return events, stats


def check_bruteforce_spots(
    engine: QueueAnalyticEngine,
    cleaned: MdtLogStore,
    detection: SpotDetectionResult,
) -> List[str]:
    """Compare tier-1 output against the oracle's own tier 1: the row
    PEA over ``cleaned`` and naive-radius DBSCAN."""
    params = engine.config.detection
    events: List[PickupEvent] = []
    for trajectory in cleaned.iter_trajectories():
        events.extend(
            row_pickup_events(trajectory, params.apply_state_filters)[0]
        )
    reference = detect_from_centroids(
        pickup_centroids(events),
        engine.zones,
        engine.projection,
        params,
        neighbors_factory=BruteForceNeighbors,
    )
    problems: List[str] = []
    if detection.noise_count != reference.noise_count:
        problems.append(
            f"noise_count {detection.noise_count} != brute-force "
            f"{reference.noise_count}"
        )
    from dataclasses import asdict

    problems.extend(
        diff_values(
            [asdict(s) for s in detection.spots],
            [asdict(s) for s in reference.spots],
            path="spots",
        )
    )
    return problems


def check_batch_recompute(
    analyses: Dict[str, SpotAnalysis], grid: TimeSlotGrid, amplification
) -> List[str]:
    """Recompute WTE-derived features and QCD labels from first
    principles for every spot and compare exactly."""
    problems: List[str] = []
    for spot_id in sorted(analyses):
        analysis = analyses[spot_id]
        expected = compute_slot_features(
            analysis.wait_events, grid, amplification
        )
        if expected != analysis.features:
            problems.append(
                f"{spot_id}: stored 5-tuple features differ from direct "
                f"recomputation over the spot's wait events"
            )
            continue
        if analysis.thresholds is None:
            bad = [
                label
                for label in analysis.labels
                if label.label is not QueueType.UNIDENTIFIED
                or label.routine != 0
            ]
            if bad:
                problems.append(
                    f"{spot_id}: no thresholds derivable but "
                    f"{len(bad)} slots carry a decided label"
                )
            continue
        expected_labels = qcd_disambiguate(expected, analysis.thresholds)
        if expected_labels != analysis.labels:
            problems.append(
                f"{spot_id}: stored labels differ from QCD applied "
                f"directly to the recomputed features"
            )
    return problems


def check_streaming_labels(
    results: Sequence[SlotResult], boot: DayBootstrap
) -> List[str]:
    """Relabel every finalized slot from its own features."""
    thresholds = boot.stream_thresholds()
    problems: List[str] = []
    for result in results:
        th = thresholds.get(result.spot_id)
        if th is None:
            if (
                result.label.label is not QueueType.UNIDENTIFIED
                or result.label.routine != 0
            ):
                problems.append(
                    f"{result.spot_id} slot {result.slot}: labelled "
                    f"{result.label.label.value} with no thresholds"
                )
            continue
        expected = label_slot(result.features, th)
        if expected != result.label:
            problems.append(
                f"{result.spot_id} slot {result.slot}: streaming label "
                f"{result.label.label.value}/r{result.label.routine} != "
                f"QCD oracle {expected.label.value}/r{expected.routine}"
            )
    return problems
