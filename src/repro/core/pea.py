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

Two implementations apply the constraints:
:func:`extract_pickup_events_batch` finds every candidate of a day at
once with array passes over its columns (the batch engine), and
:class:`~repro.stream.pea_stream.StreamingPea` is fed one record at a
time (the live monitor).  Both emit :class:`PickupEvent`; the stream
calls :func:`candidate_rejection`, and the batch kernel applies the
same three rules to the first and last state of each candidate and to
a count of its state changes.

Two deliberate clarifications of the published pseudocode, documented in
DESIGN.md: the candidate state is fully reset after a keep decision (the
paper resets it only on the discard paths, which would leak state), and a
candidate still open at the end of the trajectory is finalized with the
same constraints (the paper leaves end-of-input unspecified).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar import RecordBatch
from repro.columnar.batch import column_view
from repro.states.states import (
    NON_OPERATIONAL_STATES,
    OCCUPIED_CODES,
    OCCUPIED_STATES,
    STATE_CODES,
    STATES_BY_CODE,
    TaxiState,
    UNOCCUPIED_CODES,
    UNOCCUPIED_STATES,
    code_mask,
)
from repro.trace.partition import canonical_order, ordered_column
from repro.trace.record import MdtRecord

#: The paper's speed threshold eta_sp: 10 km/h (section 6.1.2).  Records
#: at or below it are low-speed.
DEFAULT_SPEED_THRESHOLD_KMH = 10.0

_FREE = STATE_CODES[TaxiState.FREE]
_ONCALL = STATE_CODES[TaxiState.ONCALL]
_OPERATIONAL = ~code_mask(NON_OPERATIONAL_STATES)
_OCCUPIED = code_mask(OCCUPIED_STATES)
_UNOCCUPIED = code_mask(UNOCCUPIED_STATES)

#: Events whose fields are sliced together: the column tuples of one
#: chunk are alive at a time.
_EVENT_CHUNK = 2048


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
    """A slow pickup event: one taxi's kept candidate, as column tuples.

    One tuple per record field, each in time order: the PEA kernel
    slices them from whole-chunk column tuples, and
    :meth:`from_records` packs the rows the stream and the oracle
    collect.  Events hash and compare over these tuples.  WTE reads
    ``ts`` and ``state``; :meth:`centroid` is the event's central GPS
    location (section 4.3).  :attr:`records` and iteration build the
    rows on demand.
    """

    taxi_id: str
    ts: Tuple[float, ...]
    lon: Tuple[float, ...]
    lat: Tuple[float, ...]
    speed: Tuple[float, ...]
    state: Tuple[TaxiState, ...]

    @classmethod
    def from_records(
        cls, taxi_id: str, records: Iterable[MdtRecord]
    ) -> "PickupEvent":
        """The event of one taxi's own records, in time order."""
        rows = tuple(records)
        return cls(
            taxi_id,
            tuple(r.ts for r in rows),
            tuple(r.lon for r in rows),
            tuple(r.lat for r in rows),
            tuple(r.speed for r in rows),
            tuple(r.state for r in rows),
        )

    @property
    def records(self) -> Tuple[MdtRecord, ...]:
        """The event's records, built from the columns."""
        return tuple(
            map(
                MdtRecord,
                self.ts,
                repeat(self.taxi_id),
                self.lon,
                self.lat,
                self.speed,
                self.state,
            )
        )

    def __iter__(self) -> Iterator[MdtRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def first(self) -> MdtRecord:
        return self.records[0]

    @property
    def last(self) -> MdtRecord:
        return self.records[-1]

    def states(self) -> List[TaxiState]:
        return list(self.state)

    def centroid(self) -> Tuple[float, float]:
        """The mean of lon and lat over the event's records.

        Python's ``sum`` over the tuples in time order, so the batch
        engine and the stream get the same bits for one event.
        """
        n = len(self.ts)
        return sum(self.lon) / n, sum(self.lat) / n


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


def extract_pickup_events_batch(
    batch: RecordBatch,
    apply_state_filters: bool = True,
) -> Tuple[List[PickupEvent], PeaStats]:
    """Algorithm 1 over every taxi of a day (the multi-taxi set W), in
    any row order.

    The scan's outcome is found with array passes over the columns in
    canonical order:

    * a candidate is a maximal run of at least two consecutive rows of
      one taxi that are low speed (at most
      :data:`DEFAULT_SPEED_THRESHOLD_KMH`) and operational;
    * a run that the taxi's next row, a non-operational one, cuts off
      is dropped and not counted (TAG1);
    * a run that ends at a fast operational row or at the taxi's last
      row is judged by the section-4.2 rules, where "no transition"
      means no state change inside the run.

    The kept events' fields are sliced from column tuples, one chunk of
    events at a time; no record is built.  Events and
    :class:`PeaStats` equal those of the
    conformance oracle's row reference over each taxi's rows in
    canonical order (:func:`repro.conformance.oracles.row_pickup_events`;
    pinned by property tests and the conformance matrix).

    Args:
        batch: the day's cleaned rows.
        apply_state_filters: disable to ablate the three state-transition
            constraints (bench ``ablation_state_filters``).

    Returns:
        ``(events, stats)``: events with taxis in sorted-id order, each
        taxi's in time order, and the day's counts.
    """
    order = canonical_order(batch)
    taxi = ordered_column(batch.taxi, order)
    state = ordered_column(batch.state, order)
    same = taxi[1:] == taxi[:-1]  # row i + 1 continues row i's taxi
    low = ordered_column(batch.speed, order) <= DEFAULT_SPEED_THRESHOLD_KMH
    low &= _OPERATIONAL[state]
    joined = low[1:] & low[:-1] & same  # rows i and i + 1 share a run
    begins, ends = low.copy(), low
    begins[1:] &= ~joined
    ends[:-1] &= ~joined
    start, end = np.flatnonzero(begins), np.flatnonzero(ends)
    del begins, ends, low, joined
    candidate = end > start
    start, end = start[candidate], end[candidate]
    # TAG1: the taxi's next row is non-operational.
    cut = end < len(state) - 1
    cut[cut] = same[end[cut]] & ~_OPERATIONAL[state[end[cut] + 1]]
    start, end = start[~cut], end[~cut]

    first, last = state[start], state[end]
    changes = np.zeros(len(state), dtype=np.int32)
    np.cumsum(state[1:] != state[:-1], out=changes[1:])
    # The three rules exclude each other: the first two need a state
    # change, and FREE is not occupied.
    alight = _OCCUPIED[first] & _UNOCCUPIED[last]
    oncall_leave = (first == _FREE) & (last == _ONCALL)
    no_transition = changes[end] == changes[start]
    del first, last, changes, state, same
    if apply_state_filters:
        kept = ~(alight | oncall_leave | no_transition)
        stats = PeaStats(
            candidates=len(start),
            kept=int(np.count_nonzero(kept)),
            rejected_alight=int(np.count_nonzero(alight)),
            rejected_oncall_leave=int(np.count_nonzero(oncall_leave)),
            rejected_no_transition=int(np.count_nonzero(no_transition)),
        )
        start, end = start[kept], end[kept]
    else:
        stats = PeaStats(candidates=len(start), kept=len(start))
    ids = [batch.taxi_table[code] for code in taxi[start].tolist()]
    del taxi
    events: List[PickupEvent] = []
    for lo in range(0, len(start), _EVENT_CHUNK):
        hi = lo + _EVENT_CHUNK
        events.extend(
            _events(batch, order, ids[lo:hi], start[lo:hi], end[lo:hi])
        )
    return events, stats


def _events(
    batch: RecordBatch,
    order: Optional[np.ndarray],
    ids: List[str],
    start: np.ndarray,
    end: np.ndarray,
) -> Iterator[PickupEvent]:
    """The events of the canonical row spans ``[start, end]``, each
    field a slice of one column tuple."""
    sizes = end - start + 1
    offsets = np.cumsum(sizes)
    rows = np.arange(offsets[-1]) + np.repeat(start - offsets + sizes, sizes)
    if order is not None:
        rows = order[rows]
    ts, lon, lat, speed = (
        tuple(column_view(column)[rows].tolist())
        for column in (batch.ts, batch.lon, batch.lat, batch.speed)
    )
    codes = column_view(batch.state)[rows].tolist()
    state = tuple(map(STATES_BY_CODE.__getitem__, codes))
    stop = 0
    for taxi_id, size in zip(ids, sizes.tolist()):
        lo, stop = stop, stop + size
        yield PickupEvent(
            taxi_id, ts[lo:stop], lon[lo:stop], lat[lo:stop],
            speed[lo:stop], state[lo:stop],
        )
