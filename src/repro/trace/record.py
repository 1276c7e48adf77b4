"""A single MDT log record (paper Table 2).

The paper selects six fields from the raw MDT log: timestamp, taxi ID,
longitude, latitude, instantaneous speed and taxi state.  The sample record
reads::

    01/08/2008 19:04:51  SH0001A  103.7999  1.33795  54  POB

Timestamps are stored internally as POSIX seconds (float) for cheap
arithmetic; the paper's ``dd/mm/yyyy HH:MM:SS`` text form is supported for
CSV round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from math import isfinite
from typing import Dict, Sequence

from repro.states.states import TaxiState, parse_state

#: The timestamp format used in the paper's sample log line.
TIMESTAMP_FORMAT = "%d/%m/%Y %H:%M:%S"


def parse_timestamp(text: str) -> float:
    """Parse a ``dd/mm/yyyy HH:MM:SS`` timestamp into POSIX seconds (UTC).

    Raises:
        ValueError: when the text does not match the format, or when it
            parses but yields a non-finite POSIX value — a NaN or
            infinite timestamp would silently poison every downstream
            time-slot and duration computation, so it is rejected here
            with the same error class as a syntactically bad field.
    """
    dt = datetime.strptime(text.strip(), TIMESTAMP_FORMAT)
    ts = dt.replace(tzinfo=timezone.utc).timestamp()
    if not isfinite(ts):
        raise ValueError(f"non-finite POSIX timestamp from {text!r}")
    return ts


def parse_timestamp_cached(text: str, midnights: Dict[str, float]) -> float:
    """:func:`parse_timestamp` with a per-date cache, for bulk ingest.

    A canonical ``dd/mm/yyyy HH:MM:SS`` text (ASCII digits, hour < 24,
    minute and second < 60) whose date is already in ``midnights`` costs
    one dict lookup and three ``int`` calls.  Every other text — a new
    date, surrounding spaces, non-ASCII digits, a leap second — goes
    through :func:`parse_timestamp`, so results and errors are the same.
    A successful canonical parse caches its date's midnight: whole
    seconds since the epoch are exact in a double, so ``midnight +
    seconds`` is the very float ``strptime`` would give.

    Args:
        text: the timestamp field.
        midnights: the caller's cache, ``dd/mm/yyyy`` -> POSIX midnight.
    """
    if len(text) == 19 and text[10:17:3] == " ::" and text.isascii():
        hh, mm, ss = text[11:13], text[14:16], text[17:19]
        if hh.isdigit() and mm.isdigit() and ss.isdigit():
            seconds = int(hh) * 3600 + int(mm) * 60 + int(ss)
            if hh < "24" and mm < "60" and ss < "60":
                midnight = midnights.get(text[:10])
                if midnight is not None:
                    return midnight + seconds
                ts = parse_timestamp(text)
                midnights[text[:10]] = ts - seconds
                return ts
    return parse_timestamp(text)


def format_timestamp(ts: float) -> str:
    """Format POSIX seconds as ``dd/mm/yyyy HH:MM:SS`` (UTC)."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.strftime(TIMESTAMP_FORMAT)


@dataclass(frozen=True, slots=True)
class MdtRecord:
    """One event-driven MDT log record with the six selected fields.

    Attributes:
        ts: POSIX timestamp in seconds.
        taxi_id: operator-assigned vehicle identifier, e.g. ``"SH0001A"``.
        lon: GPS longitude in degrees.
        lat: GPS latitude in degrees.
        speed: instantaneous speed in km/h.
        state: one of the 11 :class:`~repro.states.states.TaxiState` values.
    """

    ts: float
    taxi_id: str
    lon: float
    lat: float
    speed: float
    state: TaxiState

    CSV_HEADER = "timestamp,taxi_id,longitude,latitude,speed,state"

    def to_csv_row(self) -> str:
        """Serialize to one CSV line in the paper's field order."""
        return (
            f"{format_timestamp(self.ts)},{self.taxi_id},"
            f"{self.lon:.6f},{self.lat:.6f},{self.speed:.1f},"
            f"{self.state.value}"
        )

    @classmethod
    def from_csv_row(cls, row: str) -> "MdtRecord":
        """Parse one CSV line produced by :meth:`to_csv_row`.

        Raises:
            ValueError: on a malformed line (wrong arity, bad timestamp,
                unknown state, non-numeric or non-finite coordinates and
                speeds — a NaN longitude would otherwise poison every
                distance computation downstream).
        """
        parts = row.rstrip("\n").split(",")
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}: {row!r}")
        ts_text, taxi_id, lon_text, lat_text, speed_text, state = parts
        lon = float(lon_text)
        lat = float(lat_text)
        speed = float(speed_text)
        if not (isfinite(lon) and isfinite(lat) and isfinite(speed)):
            raise ValueError(f"non-finite coordinate or speed: {row!r}")
        if not taxi_id:
            raise ValueError(f"empty taxi id: {row!r}")
        return cls(
            ts=parse_timestamp(ts_text),
            taxi_id=taxi_id,
            lon=lon,
            lat=lat,
            speed=speed,
            state=parse_state(state),
        )

    @classmethod
    def from_fields(cls, fields: Sequence[str]) -> "MdtRecord":
        """Build a record from already-split string fields."""
        return cls.from_csv_row(",".join(fields))

    def replace_ts(self, ts: float) -> "MdtRecord":
        """Copy with a different timestamp (used by the noise injector)."""
        return MdtRecord(ts, self.taxi_id, self.lon, self.lat, self.speed, self.state)
