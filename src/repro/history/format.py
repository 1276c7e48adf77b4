"""Binary on-disk format of the durable queue history.

One **segment file** holds one day of finalized ``(spot, slot, label,
5-tuple feature)`` records.  The layout is deliberately simple enough to
be re-derived from this docstring:

```
MAGIC                 b"TQHSEG1\\n"
header JSON + "\\n"    day metadata + spot table (UTF-8, one line)
record block          n_records fixed-size packed structs
footer                64 hex chars: SHA-256 of everything above
```

Records are packed with :data:`RECORD_STRUCT` — spot index and slot as
unsigned shorts, label/routine as bytes, the five slot features as
float64 (``mean_wait_s`` is NaN-encoded when absent) — so a day of 30
spots × 48 slots is ~66 KiB and decoding is one ``iter_unpack``.

Every write goes through :func:`write_bytes_atomic` (temp file in the
same directory, ``fsync``, ``os.replace``), the protocol the resilience
checkpoints already use: a reader never observes a half-written file
and a crash mid-write leaves the previous version intact.  A truncated
or bit-flipped file fails the SHA-256 footer check in
:func:`decode_segment` and is reported as corrupt by the segment store,
never raised through a query path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.types import QueueSpot, QueueType

#: Segment file magic; bump when the layout changes.
SEGMENT_MAGIC = b"TQHSEG1\n"

#: One packed record: spot index, slot-in-day, label code, routine,
#: then the 5-tuple (mean_wait_s NaN-encoded when None).
RECORD_STRUCT = struct.Struct("<HHBBddddd")

#: Stable wire codes of the queue contexts (never reorder).
LABEL_CODES: Dict[QueueType, int] = {
    QueueType.C1: 1,
    QueueType.C2: 2,
    QueueType.C3: 3,
    QueueType.C4: 4,
    QueueType.UNIDENTIFIED: 0,
}
CODE_LABELS: Dict[int, QueueType] = {v: k for k, v in LABEL_CODES.items()}

#: Unix epoch day 0 (1970-01-01) was a Thursday; Monday = 0.
EPOCH_DAY_WEEKDAY = 3


def day_of_week_of(day: int) -> int:
    """Calendar weekday (0=Mon..6=Sun) of a Unix epoch-day number."""
    return (day + EPOCH_DAY_WEEKDAY) % 7


@dataclass(frozen=True)
class SlotRecord:
    """One finalized spot-slot as persisted in a day segment.

    ``slot`` is the index *within the day* (0..47 on the paper's grid),
    not the global grid index of a multi-day stream.
    """

    spot_id: str
    slot: int
    label: QueueType
    routine: int
    mean_wait_s: Optional[float]
    n_arrivals: float
    queue_length: float
    mean_departure_interval_s: float
    n_departures: float


class SegmentFormatError(ValueError):
    """A segment file failed structural validation."""


# -- record block codec ------------------------------------------------------------


def encode_records(
    records: Sequence[SlotRecord], spot_index: Dict[str, int]
) -> bytes:
    """Pack records against a spot-id -> index table.

    Raises:
        SegmentFormatError: for a spot id missing from the table or a
            field outside its wire range.
    """
    out = bytearray()
    for record in records:
        index = spot_index.get(record.spot_id)
        if index is None:
            raise SegmentFormatError(
                f"record spot {record.spot_id!r} not in the segment's "
                "spot table"
            )
        if not 0 <= record.slot <= 0xFFFF:
            raise SegmentFormatError(f"slot {record.slot} out of range")
        if not 0 <= record.routine <= 0xFF:
            raise SegmentFormatError(f"routine {record.routine} out of range")
        wait = (
            float("nan")
            if record.mean_wait_s is None
            else float(record.mean_wait_s)
        )
        out += RECORD_STRUCT.pack(
            index,
            record.slot,
            LABEL_CODES[record.label],
            record.routine,
            wait,
            float(record.n_arrivals),
            float(record.queue_length),
            float(record.mean_departure_interval_s),
            float(record.n_departures),
        )
    return bytes(out)


def decode_records(
    block: bytes, spot_ids: Sequence[str]
) -> List[SlotRecord]:
    """Unpack a record block written by :func:`encode_records`.

    Raises:
        SegmentFormatError: for a ragged block, an unknown label code
            or a spot index outside the table.
    """
    if len(block) % RECORD_STRUCT.size:
        raise SegmentFormatError(
            f"record block length {len(block)} is not a multiple of "
            f"{RECORD_STRUCT.size}"
        )
    records: List[SlotRecord] = []
    for fields in RECORD_STRUCT.iter_unpack(block):
        index, slot, code, routine, wait, arr, length, dep_iv, dep = fields
        if index >= len(spot_ids):
            raise SegmentFormatError(f"spot index {index} out of table")
        label = CODE_LABELS.get(code)
        if label is None:
            raise SegmentFormatError(f"unknown label code {code}")
        records.append(
            SlotRecord(
                spot_id=spot_ids[index],
                slot=slot,
                label=label,
                routine=routine,
                mean_wait_s=None if math.isnan(wait) else wait,
                n_arrivals=arr,
                queue_length=length,
                mean_departure_interval_s=dep_iv,
                n_departures=dep,
            )
        )
    return records


# -- whole-segment codec -----------------------------------------------------------


def spot_to_header(spot: QueueSpot) -> dict:
    """One spot as a JSON object (the segment header's spot table and
    the ``spot`` lines of a history dump)."""
    return {
        "spot_id": spot.spot_id,
        "lon": spot.lon,
        "lat": spot.lat,
        "zone": spot.zone,
        "pickup_count": spot.pickup_count,
        "radius_m": spot.radius_m,
    }


def spot_from_header(entry: dict) -> QueueSpot:
    """Inverse of :func:`spot_to_header`; extra keys are ignored."""
    return QueueSpot(
        spot_id=entry["spot_id"],
        lon=entry["lon"],
        lat=entry["lat"],
        zone=entry["zone"],
        pickup_count=entry["pickup_count"],
        radius_m=entry["radius_m"],
    )


def encode_segment(
    day: int,
    day_of_week: int,
    slot_seconds: float,
    spots: Sequence[QueueSpot],
    records: Sequence[SlotRecord],
) -> bytes:
    """Serialize one day segment (header + record block + footer)."""
    spot_index = {spot.spot_id: i for i, spot in enumerate(spots)}
    header = {
        "version": 1,
        "day": int(day),
        "day_of_week": int(day_of_week),
        "slot_seconds": float(slot_seconds),
        "spots": [spot_to_header(s) for s in spots],
        "n_records": len(records),
    }
    body = (
        SEGMENT_MAGIC
        + json.dumps(header, sort_keys=True).encode("utf-8")
        + b"\n"
        + encode_records(records, spot_index)
    )
    return body + hashlib.sha256(body).hexdigest().encode("ascii")


def decode_segment(raw: bytes) -> Tuple[dict, List[QueueSpot], List[SlotRecord]]:
    """Parse and verify a segment file's bytes.

    Returns:
        ``(header, spots, records)``.

    Raises:
        SegmentFormatError: on a bad magic, failed digest, or any
            structural violation.
    """
    header, payload = _verify_envelope(raw, SEGMENT_MAGIC)
    try:
        spots = [spot_from_header(e) for e in header["spots"]]
    except (KeyError, TypeError) as exc:
        raise SegmentFormatError(f"bad spot table: {exc}") from exc
    records = decode_records(payload, [s.spot_id for s in spots])
    if header.get("n_records") != len(records):
        raise SegmentFormatError(
            f"header claims {header.get('n_records')} records, block "
            f"holds {len(records)}"
        )
    return header, spots, records


def _verify_envelope(raw: bytes, magic: bytes) -> Tuple[dict, bytes]:
    """Magic + header + SHA-256 footer validation."""
    if not raw.startswith(magic):
        raise SegmentFormatError("bad magic")
    if len(raw) < len(magic) + 64:
        raise SegmentFormatError("file too short for a footer")
    body, digest = raw[:-64], raw[-64:]
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        raise SegmentFormatError("SHA-256 footer mismatch")
    rest = body[len(magic):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise SegmentFormatError("missing header line")
    try:
        header = json.loads(rest[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SegmentFormatError(f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise SegmentFormatError("header must be an object")
    return header, rest[newline + 1:]


# -- atomic file IO ----------------------------------------------------------------


def write_bytes_atomic(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename).

    The temporary file lives in the target directory so the rename is
    a same-filesystem atomic replace; the directory entry is fsynced so
    the rename itself is durable.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}-", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return path
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path
