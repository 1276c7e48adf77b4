"""Trajectories (paper Definition 1).

* Definition 1 — an individual taxi's *trajectory* is the temporally
  ordered sequence of its trimmed MDT records ``p_1 -> ... -> p_n``.
* Definition 2 — a *sub-trajectory* ``R(s, e)`` is a contiguous segment;
  the ones the pipeline uses are PEA's pickup events,
  :class:`repro.core.pea.PickupEvent`.
* Definitions 3/4 — per-taxi and multi-taxi sub-trajectory sets are plain
  Python lists in this implementation.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.states.states import TaxiState
from repro.trace.record import MdtRecord


class Trajectory:
    """One taxi's temporally ordered MDT records (Definition 1)."""

    def __init__(self, taxi_id: str, records: Sequence[MdtRecord]):
        self.taxi_id = taxi_id
        self.records: List[MdtRecord] = list(records)
        for rec in self.records:
            if rec.taxi_id != taxi_id:
                raise ValueError(
                    f"record for taxi {rec.taxi_id!r} in trajectory of "
                    f"{taxi_id!r}"
                )
        for a, b in zip(self.records, self.records[1:]):
            if b.ts < a.ts:
                raise ValueError("trajectory records must be time-ordered")

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i: int) -> MdtRecord:
        return self.records[i]

    def __iter__(self) -> Iterator[MdtRecord]:
        return iter(self.records)

    def timeline(self) -> List[Tuple[float, TaxiState]]:
        """``(timestamp, state)`` pairs, as consumed by job segmentation."""
        return [(rec.ts, rec.state) for rec in self.records]
