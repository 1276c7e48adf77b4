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

One scan, :func:`pea_scan`, applies TAG1 and the constraints with array
passes over rows grouped by taxi.  It has two callers: the batch
engine's :func:`extract_pickup_events_batch` runs it over a whole day
in canonical order, and the live monitor
(:class:`~repro.stream.monitor.StreamingQueueMonitor`) over the rows
it has buffered, each taxi's in arrival order, behind the runs it held
at its last absorb.  Both emit :class:`PickupEvent`, a row range of
the batch the scan read.

Two deliberate clarifications of the published pseudocode, documented in
DESIGN.md: the candidate state is fully reset after a keep decision (the
paper resets it only on the discard paths, which would leak state), and a
candidate still open at the end of the trajectory is finalized with the
same constraints (the paper leaves end-of-input unspecified).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar import RecordBatch
from repro.states.states import (
    NON_OPERATIONAL_STATES,
    OCCUPIED_STATES,
    STATE_CODES,
    TaxiState,
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


@dataclass(frozen=True)
class PeaStats:
    """Bookkeeping of one PEA run (useful for ablations and tests)."""

    candidates: int = 0
    kept: int = 0
    rejected_alight: int = 0
    rejected_oncall_leave: int = 0
    rejected_no_transition: int = 0


class PickupEvent:
    """A slow pickup event: one taxi's kept candidate, as the row range
    ``[lo, hi)`` of ``day``.

    ``day`` is the :class:`~repro.columnar.RecordBatch` that
    :func:`pea_scan` read, grouped by taxi, so the range holds the
    taxi's rows in scan order: for the PEA kernel, the cleaned day in
    canonical order (time order); for the live monitor, the batch one
    absorb scanned (arrival order).  A batch never changes, so the range's
    fields — ``ts``, ``lon``, ``lat``, ``speed`` and the ``state`` codes
    — are views of its columns that stay valid for as long as the event
    is held.  WTE reads ``ts`` and ``state``
    (:func:`~repro.core.wte.extract_wait_times`);
    :func:`~repro.core.spots.pickup_centroids` gives the central GPS
    location (section 4.3).  Events compare and hash by taxi and field
    values.  A pickled event carries only its own rows.
    """

    __slots__ = ("taxi_id", "day", "lo", "hi")

    def __init__(self, taxi_id: str, day: RecordBatch, lo: int, hi: int):
        self.taxi_id = taxi_id
        self.day = day
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_records(
        cls, taxi_id: str, records: Iterable[MdtRecord]
    ) -> "PickupEvent":
        """The event of one taxi's own records, in time order: the whole
        of a batch packed from them."""
        day = RecordBatch.from_rows(records)
        return cls(taxi_id, day, 0, len(day))

    @property
    def ts(self) -> np.ndarray:
        return self.day.ts[self.lo:self.hi]

    @property
    def lon(self) -> np.ndarray:
        return self.day.lon[self.lo:self.hi]

    @property
    def lat(self) -> np.ndarray:
        return self.day.lat[self.lo:self.hi]

    @property
    def speed(self) -> np.ndarray:
        return self.day.speed[self.lo:self.hi]

    @property
    def state(self) -> np.ndarray:
        """State codes (see :data:`~repro.states.states.STATES_BY_CODE`)."""
        return self.day.state[self.lo:self.hi]

    def __len__(self) -> int:
        return self.hi - self.lo

    def __eq__(self, other) -> bool:
        if not isinstance(other, PickupEvent):
            return NotImplemented
        return self.taxi_id == other.taxi_id and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("ts", "lon", "lat", "speed", "state")
        )

    def __hash__(self) -> int:
        return hash((self.taxi_id, tuple(self.ts.tolist())))

    def __reduce__(self):
        own = self.day.take(np.arange(self.lo, self.hi))
        return (PickupEvent, (self.taxi_id, own, 0, len(own)))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"PickupEvent({self.taxi_id!r}, rows {self.lo}..{self.hi})"


def event_columns(
    events: Sequence[PickupEvent], names: Sequence[str]
) -> Tuple[List[np.ndarray], np.ndarray]:
    """The named columns over every event's rows, event after event
    (``events`` must not be empty).

    Events of one day are gathered together, and the rows of a single
    event are a slice of its day's columns, not a copy.

    Returns:
        ``(columns, bounds)``: one array per name holding the events'
        rows back to back, and the ``len(events) + 1`` offsets where
        each event's rows start (the last is the total).
    """
    sizes = np.fromiter(
        (event.hi - event.lo for event in events), np.intp, len(events)
    )
    bounds = np.zeros(len(events) + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    parts: List[List[np.ndarray]] = [[] for _ in names]
    k = 0
    while k < len(events):
        day = events[k].day
        j = k + 1
        while j < len(events) and events[j].day is day:
            j += 1
        if j == k + 1:
            rows = slice(events[k].lo, events[k].hi)
        else:
            lo = np.fromiter((e.lo for e in events[k:j]), np.intp, j - k)
            # Each event's rows: its lo, then one step per row.
            rows = np.arange(bounds[j] - bounds[k]) + np.repeat(
                lo - (bounds[k:j] - bounds[k]), sizes[k:j]
            )
        for part, name in zip(parts, names):
            part.append(getattr(day, name)[rows])
        k = j
    return [
        part[0] if len(part) == 1 else np.concatenate(part) for part in parts
    ], bounds


def pea_scan(
    taxi: np.ndarray,
    speed: np.ndarray,
    state: np.ndarray,
    apply_state_filters: bool = True,
    hold_open: bool = False,
) -> Tuple[np.ndarray, np.ndarray, PeaStats, Optional[np.ndarray]]:
    """Algorithm 1 over rows grouped by taxi, each taxi's rows in scan
    order, by array passes over their columns:

    * a candidate is a maximal run of at least two consecutive rows of
      one taxi that are low speed (at most
      :data:`DEFAULT_SPEED_THRESHOLD_KMH`) and operational;
    * a run that the taxi's next row, a non-operational one, cuts off
      is dropped and not counted (TAG1);
    * a run that ends at a fast operational row or at the taxi's last
      row is judged by the section-4.2 rules, where "no transition"
      means no state change inside the run.

    With ``hold_open``, a run that reaches its taxi's last row is held
    instead, a one-row run included: the scan cannot yet tell how it
    ends, so it is neither judged nor counted.

    Args:
        taxi, speed, state: the rows' taxi codes, speeds and state codes.
        apply_state_filters: disable to ablate the three state-transition
            constraints (bench ``ablation_state_filters``).
        hold_open: hold the runs that reach their taxi's last row.

    Returns:
        ``(start, end, stats, held)``: the first and last row of each
        kept candidate, in row order; the counts; and, with
        ``hold_open``, a mask of the held runs' rows (else None).
    """
    same = taxi[1:] == taxi[:-1]  # row i + 1 continues row i's taxi
    low = speed <= DEFAULT_SPEED_THRESHOLD_KMH
    low &= _OPERATIONAL[state]
    joined = low[1:] & low[:-1] & same  # rows i and i + 1 share a run
    begins, ends = low.copy(), low
    begins[1:] &= ~joined
    ends[:-1] &= ~joined
    start, end = np.flatnonzero(begins), np.flatnonzero(ends)
    del begins, ends, low, joined
    held = None
    if hold_open:
        follows = end < len(state) - 1
        follows[follows] = same[end[follows]]  # the taxi has a row after it
        edges = np.zeros(len(state) + 1, dtype=np.int8)
        edges[start[~follows]] = 1
        edges[end[~follows] + 1] -= 1
        held = np.cumsum(edges[:-1]) > 0
        start, end = start[follows], end[follows]
    candidate = end > start
    start, end = start[candidate], end[candidate]
    # TAG1: the taxi's next row is non-operational.
    cut = end < len(state) - 1
    cut[cut] = same[end[cut]] & ~_OPERATIONAL[state[end[cut] + 1]]
    start, end = start[~cut], end[~cut]
    del same

    first, last = state[start], state[end]
    changes = np.zeros(len(state), dtype=np.int32)
    np.cumsum(state[1:] != state[:-1], out=changes[1:])
    # The three rules exclude each other: the first two need a state
    # change, and FREE is not occupied.
    alight = _OCCUPIED[first] & _UNOCCUPIED[last]
    oncall_leave = (first == _FREE) & (last == _ONCALL)
    no_transition = changes[end] == changes[start]
    del first, last, changes
    if not apply_state_filters:
        stats = PeaStats(candidates=len(start), kept=len(start))
        return start, end, stats, held
    kept = ~(alight | oncall_leave | no_transition)
    stats = PeaStats(
        candidates=len(start),
        kept=int(np.count_nonzero(kept)),
        rejected_alight=int(np.count_nonzero(alight)),
        rejected_oncall_leave=int(np.count_nonzero(oncall_leave)),
        rejected_no_transition=int(np.count_nonzero(no_transition)),
    )
    return start[kept], end[kept], stats, held


def extract_pickup_events_batch(
    batch: RecordBatch,
    apply_state_filters: bool = True,
) -> Tuple[List[PickupEvent], PeaStats]:
    """Algorithm 1 over every taxi of a day (the multi-taxi set W), in
    any row order: :func:`pea_scan` over the day in canonical order.

    Each kept event is a row range of the day in canonical order: of
    ``batch`` itself when it is in that order (the cleaned day always
    is), else of a canonical copy made once.  No record is built and no
    field is copied.  Events and :class:`PeaStats` equal those of the
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
    start, end, stats, _ = pea_scan(
        taxi,
        ordered_column(batch.speed, order),
        ordered_column(batch.state, order),
        apply_state_filters,
    )
    table = batch.taxi_table
    ids = [table[code] for code in taxi[start].tolist()]
    del taxi
    day = batch if order is None else batch.take(order)
    events = [
        PickupEvent(taxi_id, day, lo, hi)
        for taxi_id, lo, hi in zip(ids, start.tolist(), (end + 1).tolist())
    ]
    return events, stats
