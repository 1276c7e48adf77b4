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
constraints of section 4.2 rejects it (:func:`candidate_rejection`):

1. it starts occupied and ends unoccupied (a passenger-alight event);
2. it starts FREE and ends ONCALL (the taxi left for a booking elsewhere);
3. its state never changes (a traffic jam or red light).

Two scans drive the constraints: :func:`extract_pickup_events_from_columns`
walks a taxi's columns (the batch engine), and
:class:`~repro.stream.pea_stream.StreamingPea` is fed one record at a
time (the live monitor).  Both call :func:`candidate_rejection` and emit
:class:`PickupEvent`.

Two deliberate clarifications of the published pseudocode, documented in
DESIGN.md: the candidate state is fully reset after a keep decision (the
paper resets it only on the discard paths, which would leak state), and a
candidate still open at the end of the trajectory is finalized with the
same constraints (the paper leaves end-of-input unspecified).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.columnar import RecordBatch
from repro.states.states import (
    STATE_CODES,
    TaxiState,
    OCCUPIED_CODES,
    UNOCCUPIED_CODES,
    NON_OPERATIONAL_CODES,
)
from repro.trace.record import MdtRecord

#: The paper's speed threshold eta_sp: 10 km/h (section 6.1.2).  Records
#: at or below it are low-speed.
DEFAULT_SPEED_THRESHOLD_KMH = 10.0

_FREE = STATE_CODES[TaxiState.FREE]
_ONCALL = STATE_CODES[TaxiState.ONCALL]


@dataclass(frozen=True)
class PeaStats:
    """Bookkeeping of one PEA run (useful for ablations and tests)."""

    candidates: int = 0
    kept: int = 0
    rejected_alight: int = 0
    rejected_oncall_leave: int = 0
    rejected_no_transition: int = 0


@dataclass(frozen=True)
class PickupEvent:
    """A slow pickup event: one taxi's kept candidate, as its own records.

    Iterating yields the records in time order, which is all WTE needs;
    :meth:`centroid` is the event's central GPS location (section 4.3).
    """

    taxi_id: str
    records: Tuple[MdtRecord, ...]

    def __iter__(self) -> Iterator[MdtRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def first(self) -> MdtRecord:
        return self.records[0]

    @property
    def last(self) -> MdtRecord:
        return self.records[-1]

    def states(self) -> List[TaxiState]:
        return [r.state for r in self.records]

    def centroid(self) -> Tuple[float, float]:
        """The mean of lon and lat over the event's records."""
        n = len(self.records)
        return (
            sum(r.lon for r in self.records) / n,
            sum(r.lat for r in self.records) / n,
        )


def candidate_rejection(codes: Sequence[int]) -> Optional[str]:
    """The section-4.2 constraint a PEA candidate fails.

    Args:
        codes: the candidate's state codes in time order (at least two).

    Returns:
        The :class:`PeaStats` counter the candidate fails — ``"alight"``,
        ``"oncall_leave"`` or ``"no_transition"`` — or None to keep it.
    """
    first, last = codes[0], codes[-1]
    if first in OCCUPIED_CODES and last in UNOCCUPIED_CODES:
        return "alight"
    if first == _FREE and last == _ONCALL:
        return "oncall_leave"
    if all(code == first for code in codes):
        return "no_transition"
    return None


def extract_pickup_events_from_columns(
    taxi_id: str,
    batch: RecordBatch,
    apply_state_filters: bool = True,
) -> Tuple[List[PickupEvent], PeaStats]:
    """Algorithm 1 as a cursor over one taxi's columns.

    The scan and the section-4.2 constraints run on the speed and
    state-code columns alone.  Record objects are materialized only for
    the kept event spans, so the rest of the taxi's day never becomes
    rows.  Events and :class:`PeaStats` equal those of the conformance
    oracle's independent row reference over the same rows
    (:func:`repro.conformance.oracles.row_pickup_events`; pinned by
    property tests and the conformance matrix).

    Args:
        taxi_id: the taxi the rows belong to.
        batch: the taxi's cleaned rows, time-ordered.
        apply_state_filters: disable to ablate the three state-transition
            constraints (bench ``ablation_state_filters``).
    """
    speed_col, state_col = batch.speed, batch.state
    kept: List[Tuple[int, int]] = []
    rejected = {"alight": 0, "oncall_leave": 0, "no_transition": 0}

    def finalize(start_idx: int, end_idx: int) -> None:
        if apply_state_filters:
            reason = candidate_rejection(state_col[start_idx:end_idx + 1])
            if reason is not None:
                rejected[reason] += 1
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
        low = speed_col[i] <= DEFAULT_SPEED_THRESHOLD_KMH
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
        PickupEvent(taxi_id, tuple(batch.iter_rows(s, e + 1)))
        for s, e in kept
    ]
    stats = PeaStats(
        candidates=len(events) + sum(rejected.values()),
        kept=len(events),
        rejected_alight=rejected["alight"],
        rejected_oncall_leave=rejected["oncall_leave"],
        rejected_no_transition=rejected["no_transition"],
    )
    return events, stats


def extract_pickup_events_batch(
    batch: RecordBatch,
    apply_state_filters: bool = True,
) -> List[PickupEvent]:
    """Run PEA over every taxi in a batch (the multi-taxi set W).

    Taxis are visited in sorted-id order, each in time order.
    """
    from repro.trace.partition import partition_batch_by_taxi

    events: List[PickupEvent] = []
    for taxi_id, sub in partition_batch_by_taxi(batch):
        taxi_events, _ = extract_pickup_events_from_columns(
            taxi_id, sub, apply_state_filters
        )
        events.extend(taxi_events)
    return events
