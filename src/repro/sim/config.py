"""Simulation configuration.

All simulator knobs live in two frozen dataclasses so that every experiment
records exactly what produced its data.  Defaults follow DESIGN.md's
scale-down policy: a 1,500-taxi fleet over a Singapore-sized city, with the
paper's 60% observed-fleet fraction (section 6.2.1) so the amplification
code path is always exercised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class DayKind(enum.Enum):
    """Weekday/weekend classification used by the demand profiles."""

    WEEKDAY = "weekday"
    SATURDAY = "saturday"
    SUNDAY = "sunday"


#: Monday-first weekday names used throughout reports.
DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def day_kind_of(day_of_week: int) -> DayKind:
    """Map Monday=0..Sunday=6 to a :class:`DayKind`.

    Raises:
        ValueError: for values outside 0..6.
    """
    if not 0 <= day_of_week <= 6:
        raise ValueError("day_of_week must be in 0..6 (Monday=0)")
    if day_of_week <= 4:
        return DayKind.WEEKDAY
    return DayKind.SATURDAY if day_of_week == 5 else DayKind.SUNDAY


@dataclass(frozen=True)
class NoiseConfig:
    """Log-noise rates reproducing section 6.1.1's three error classes.

    Defaults are tuned so the combined error fraction lands near the
    paper's reported ~2.8% of all records.
    """

    duplicate_prob: float = 0.011
    """Probability a record is followed by a GPRS re-transmission copy."""

    spurious_free_prob: float = 0.10
    """Probability a PAYMENT record gains a spurious FREE + PAYMENT pair
    (the clock-synchronisation MDT bug the paper describes)."""

    gps_outlier_prob: float = 0.005
    """Probability a record's GPS fix jumps far off (urban canyon)."""

    gps_outlier_km: float = 30.0
    """How far an outlier fix lands from the true position, in km."""

    drop_arrived_prob: float = 0.25
    """Probability the ARRIVED record of a booking job is never logged
    (driver skipped the button)."""

    drop_stc_prob: float = 0.3
    """Probability the STC record of a trip is never logged."""

    gps_jitter_m: float = 4.0
    """Standard deviation of everyday GPS jitter applied to every record."""

    enabled: bool = True
    """Master switch; disable for noise-free unit-test datasets."""


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level knobs of one simulated day.

    Attributes mirror the dataset facts of paper section 6.1.1 where they
    exist, scaled per DESIGN.md.
    """

    seed: int = 7
    """Root RNG seed; every derived stream is seeded from it."""

    fleet_size: int = 1500
    """Number of simulated taxis (paper: ~15,000; see DESIGN.md scale-down)."""

    day_of_week: int = 0
    """Monday=0 .. Sunday=6; selects demand profiles."""

    day_index: int = 0
    """Absolute day number; offsets timestamps so multi-day runs don't
    overlap (day d spans ``d*86400 .. (d+1)*86400`` plus the epoch)."""

    epoch_ts: float = 1_217_548_800.0
    """POSIX timestamp of day 0 midnight (2008-08-01 UTC, a Friday in the
    paper's sample record; purely cosmetic)."""

    observed_fraction: float = 0.6
    """Fraction of the fleet whose MDT logs the analyst receives (the
    paper's dataset covers ~60% of Singapore's taxis)."""

    n_queue_spots: int = 60
    """Ground-truth queue spots across the city (paper detects ~180 with
    a 10x larger fleet over a full-size city)."""

    n_decoy_landmarks: int = 40
    """Landmarks without queue activity (no spot should be detected)."""

    cruise_record_interval_s: float = 150.0
    """Period of FREE cruising records while a taxi is idle."""

    drive_record_interval_s: float = 90.0
    """Period of GPS-update records while a taxi is driving."""

    crawl_record_interval_s: float = 30.0
    """Period of low-speed records while a taxi waits in a spot queue."""

    low_speed_max_kmh: float = 8.0
    """Upper bound of crawl speeds (below the paper's 10 km/h threshold)."""

    drive_speed_kmh: float = 38.0
    """Average driving speed used for travel times."""

    boarding_mean_s: float = 75.0
    """Mean bay occupancy per pickup (pull in + board + pull out)."""

    taxi_queue_patience_s: float = 800.0
    """How long a taxi waits in a spot queue before reneging (mean)."""

    passenger_patience_s: float = 900.0
    """How long a passenger waits before abandoning (mean)."""

    booking_noshow_prob: float = 0.05
    """Probability a booked passenger never shows up (NOSHOW)."""

    busy_cherry_pick_prob: float = 0.03
    """Probability a taxi joins a spot queue in BUSY state and leaves with
    POB (the driver behaviour of section 7.2)."""

    queue_poach_prob: float = 0.05
    """Probability a queued FREE taxi accepts a booking and leaves
    (produces the FREE -> ONCALL sub-trajectories PEA must filter)."""

    jam_prob: float = 0.06
    """Probability a driving leg contains a traffic-jam crawl (low-speed
    records with no state change, which PEA must filter)."""

    dispatch_radius_m: float = 1000.0
    """Booking dispatch circle radius (paper: 1 km)."""

    booking_retry_prob: float = 0.6
    """Probability a failed booking is re-booked and served by a taxi
    beyond the dispatch circle (passengers retry; a farther taxi bids)."""

    monitor_interval_s: float = 60.0
    """Vehicle-monitor sampling period (paper: 60 s)."""

    truth_taxi_queue_len: float = 1.0
    """Ground truth: a taxi queue exists when the slot's time-average taxi
    queue length reaches this value (paper's L >= 1 semantics)."""

    truth_pax_queue_len: float = 1.0
    """Ground truth: a passenger queue exists when the slot's time-average
    passenger queue length reaches this value."""

    slot_seconds: float = 1800.0
    """Time-slot length for ground-truth labels (paper: 48 x 30 min)."""

    use_road_network: bool = False
    """Route driving legs over a generated road graph instead of straight
    lines (slower; see :mod:`repro.sim.roads`)."""

    road_spacing_m: float = 800.0
    """Grid spacing of the road network when enabled."""

    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self) -> None:
        if self.fleet_size <= 0:
            raise ValueError("fleet_size must be positive")
        if not 0.0 < self.observed_fraction <= 1.0:
            raise ValueError("observed_fraction must be in (0, 1]")
        if not 0 <= self.day_of_week <= 6:
            raise ValueError("day_of_week must be in 0..6")
        if self.n_queue_spots < 1:
            raise ValueError("need at least one queue spot")

    @property
    def day_kind(self) -> DayKind:
        """Weekday/Saturday/Sunday classification of the simulated day."""
        return day_kind_of(self.day_of_week)

    @property
    def day_start_ts(self) -> float:
        """POSIX timestamp of the simulated day's midnight."""
        return self.epoch_ts + self.day_index * 86400.0

    @property
    def day_end_ts(self) -> float:
        """POSIX timestamp of the simulated day's end (exclusive)."""
        return self.day_start_ts + 86400.0
