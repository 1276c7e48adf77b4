"""Algorithm 1 — the Pickup Extraction Algorithm (PEA).

PEA scans one taxi's trajectory and extracts *slow pickup events*:
sub-trajectories with at least two consecutive low-speed records (the taxi
inching forward in a waiting line) whose taxi states show a genuine pickup.

The algorithm keeps two flags while scanning:

* ``phi1`` — the previous record was low-speed;
* ``phi2`` — a candidate sub-trajectory R_k is currently open (at least
  two consecutive low-speed records seen).

Records with a non-operational state (BREAK/OFFLINE/POWEROFF) reset the
scan (the paper's TAG1).  When speed rises back above the threshold with a
candidate open, the candidate is kept unless one of the three state
constraints of section 4.2 rejects it:

1. it starts occupied and ends unoccupied (a passenger-alight event);
2. it starts FREE and ends ONCALL (the taxi left for a booking elsewhere);
3. its state never changes (a traffic jam or red light).

Two deliberate clarifications of the published pseudocode, documented in
DESIGN.md: the candidate state is fully reset after a keep decision (the
paper resets it only on the discard paths, which would leak state), and a
candidate still open at the end of the trajectory is finalized with the
same constraints (the paper leaves end-of-input unspecified).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.columnar import RecordBatch
from repro.states.states import (
    STATE_CODES,
    TaxiState,
    OCCUPIED_CODES,
    OCCUPIED_STATES,
    UNOCCUPIED_CODES,
    UNOCCUPIED_STATES,
    NON_OPERATIONAL_CODES,
    NON_OPERATIONAL_STATES,
)
from repro.trace.trajectory import SubTrajectory, Trajectory

#: The paper's speed threshold eta_sp: 10 km/h (section 6.1.2).
DEFAULT_SPEED_THRESHOLD_KMH = 10.0


@dataclass(frozen=True)
class PeaStats:
    """Bookkeeping of one PEA run (useful for ablations and tests)."""

    candidates: int = 0
    kept: int = 0
    rejected_alight: int = 0
    rejected_oncall_leave: int = 0
    rejected_no_transition: int = 0


def extract_pickup_events(
    trajectory: Trajectory,
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> List[SubTrajectory]:
    """Run PEA over one taxi's trajectory.

    Args:
        trajectory: the taxi's full (cleaned) trajectory.
        speed_threshold_kmh: eta_sp; records at or below it are low-speed.
        apply_state_filters: disable to ablate the three state-transition
            constraints (bench ``ablation_state_filters``).

    Returns:
        The sub-trajectory set omega of slow pickup events, in temporal
        order.
    """
    events, _ = extract_pickup_events_with_stats(
        trajectory, speed_threshold_kmh, apply_state_filters
    )
    return events


def extract_pickup_events_with_stats(
    trajectory: Trajectory,
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> tuple:
    """Like :func:`extract_pickup_events` but also returns :class:`PeaStats`."""
    if speed_threshold_kmh <= 0:
        raise ValueError("speed threshold must be positive")

    omega: List[SubTrajectory] = []
    candidates = 0
    rejected_alight = 0
    rejected_oncall_leave = 0
    rejected_no_transition = 0

    phi1 = False
    phi2 = False
    start_idx = -1  # index of p_{i-1} when the candidate opened

    def finalize(end_idx: int) -> None:
        """Apply the section-4.2 constraints to R_k = R(start_idx, end_idx)."""
        nonlocal candidates, rejected_alight, rejected_oncall_leave
        nonlocal rejected_no_transition
        candidates += 1
        sub = trajectory.sub(start_idx, end_idx)
        if apply_state_filters:
            first_state = sub.first.state
            last_state = sub.last.state
            if first_state in OCCUPIED_STATES and last_state in UNOCCUPIED_STATES:
                rejected_alight += 1
                return
            if first_state is TaxiState.FREE and last_state is TaxiState.ONCALL:
                rejected_oncall_leave += 1
                return
            states = sub.states()
            if all(state is states[0] for state in states):
                rejected_no_transition += 1
                return
        omega.append(sub)

    records = trajectory.records
    for i, record in enumerate(records):
        if record.state in NON_OPERATIONAL_STATES:
            # TAG1: drop any open candidate and restart the scan.
            phi1 = False
            phi2 = False
            continue
        low = record.speed <= speed_threshold_kmh
        if low:
            if not phi1:
                phi1 = True
            elif not phi2:
                start_idx = i - 1
                phi2 = True
            # with phi1 and phi2 the record simply extends the candidate
        else:
            if phi2:
                finalize(i - 1)
            phi1 = False
            phi2 = False
    if phi2:
        finalize(len(records) - 1)

    stats = PeaStats(
        candidates=candidates,
        kept=len(omega),
        rejected_alight=rejected_alight,
        rejected_oncall_leave=rejected_oncall_leave,
        rejected_no_transition=rejected_no_transition,
    )
    return omega, stats


def extract_pickup_events_from_columns(
    taxi_id: str,
    batch: RecordBatch,
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> Tuple[List[SubTrajectory], PeaStats]:
    """Algorithm 1 as a cursor over one taxi's columns.

    The scan and the section-4.2 constraints run on the speed and
    state-code columns alone.  Record objects are materialized only for
    the kept event spans, each event as its own one-segment
    :class:`Trajectory`, so the rest of the taxi's day never becomes
    rows.  Events hold the same records and :class:`PeaStats` the same
    counts as :func:`extract_pickup_events` over the same rows (pinned
    by parity tests and the conformance matrix).

    Args:
        taxi_id: the taxi the rows belong to.
        batch: the taxi's cleaned rows, time-ordered.
    """
    if speed_threshold_kmh <= 0:
        raise ValueError("speed threshold must be positive")
    speed_col, state_col = batch.speed, batch.state
    free_code = STATE_CODES[TaxiState.FREE]
    oncall_code = STATE_CODES[TaxiState.ONCALL]

    kept: List[Tuple[int, int]] = []
    candidates = 0
    rejected_alight = 0
    rejected_oncall_leave = 0
    rejected_no_transition = 0

    def finalize(start_idx: int, end_idx: int) -> None:
        nonlocal candidates, rejected_alight, rejected_oncall_leave
        nonlocal rejected_no_transition
        candidates += 1
        if apply_state_filters:
            first_code = state_col[start_idx]
            last_code = state_col[end_idx]
            if first_code in OCCUPIED_CODES and last_code in UNOCCUPIED_CODES:
                rejected_alight += 1
                return
            if first_code == free_code and last_code == oncall_code:
                rejected_oncall_leave += 1
                return
            if all(
                state_col[j] == first_code
                for j in range(start_idx + 1, end_idx + 1)
            ):
                rejected_no_transition += 1
                return
        kept.append((start_idx, end_idx))

    phi1 = False
    phi2 = False
    start_idx = -1
    n = len(batch)
    for i in range(n):
        if state_col[i] in NON_OPERATIONAL_CODES:
            # TAG1: drop any open candidate and restart the scan.
            phi1 = False
            phi2 = False
            continue
        low = speed_col[i] <= speed_threshold_kmh
        if low:
            if not phi1:
                phi1 = True
            elif not phi2:
                start_idx = i - 1
                phi2 = True
        else:
            if phi2:
                finalize(start_idx, i - 1)
            phi1 = False
            phi2 = False
    if phi2:
        finalize(start_idx, n - 1)

    events = [
        Trajectory(taxi_id, list(batch.iter_rows(s, e + 1))).sub(0, e - s)
        for s, e in kept
    ]
    stats = PeaStats(
        candidates=candidates,
        kept=len(events),
        rejected_alight=rejected_alight,
        rejected_oncall_leave=rejected_oncall_leave,
        rejected_no_transition=rejected_no_transition,
    )
    return events, stats


def extract_pickup_events_batch(
    batch: RecordBatch,
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> List[SubTrajectory]:
    """Run PEA over every taxi in a batch (columnar sibling of
    :func:`extract_all_pickup_events`).

    Taxis are visited in sorted-id order, so the event list is
    identical to the store path's.
    """
    from repro.trace.partition import partition_batch_by_taxi

    events: List[SubTrajectory] = []
    for taxi_id, sub in partition_batch_by_taxi(batch):
        taxi_events, _ = extract_pickup_events_from_columns(
            taxi_id, sub, speed_threshold_kmh, apply_state_filters
        )
        events.extend(taxi_events)
    return events


def extract_all_pickup_events(
    store,
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> List[SubTrajectory]:
    """Run PEA over every taxi in a log store (the multi-taxi set W).

    Args:
        store: an :class:`~repro.trace.log_store.MdtLogStore`.

    Returns:
        The union of all taxis' pickup-event sub-trajectories.
    """
    events: List[SubTrajectory] = []
    for trajectory in store.iter_trajectories():
        events.extend(
            extract_pickup_events(
                trajectory, speed_threshold_kmh, apply_state_filters
            )
        )
    return events
