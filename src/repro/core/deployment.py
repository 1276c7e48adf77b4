"""The deployed system's update policy (paper section 7.1).

The production deployment keeps two detection datasets:

* queue spots for a *week day* come from the most recent 5 week days'
  logs;
* queue spots for a *weekend day* come from the most recent 2 weekend
  days' logs;

and the context module "mainly runs on the short-term historical dataset"
(the current day).  :class:`DeploymentScheduler` implements that policy
over a rolling window of daily log stores.

Note on DBSCAN parameters: section 6.1.2 warns that multi-day datasets
need re-tuned parameters (more days, more pickups per spot).  The
scheduler scales ``min_pts`` linearly with the number of pooled days,
which keeps "50 pickups within 15 m per day" invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.engine import EngineConfig, QueueAnalyticEngine, SpotAnalysis
from repro.core.spots import SpotDetectionResult
from repro.core.types import TimeSlotGrid
from repro.trace.log_store import MdtLogStore, merge_stores


def _is_weekend(day_of_week: int) -> bool:
    """Saturday/Sunday check (Monday=0), kept local so :mod:`repro.core`
    stays independent of the simulator package."""
    if not 0 <= day_of_week <= 6:
        raise ValueError("day_of_week must be in 0..6 (Monday=0)")
    return day_of_week >= 5


@dataclass
class DailyLog:
    """One day's logs with its calendar position."""

    day_of_week: int
    store: MdtLogStore

    @property
    def is_weekend(self) -> bool:
        return _is_weekend(self.day_of_week)


class DeploymentScheduler:
    """Rolling-window spot detection + daily context labelling.

    Args:
        engine: a configured :class:`QueueAnalyticEngine`.
        weekday_window: how many recent week days feed weekday detection
            (paper: 5).
        weekend_window: how many recent weekend days feed weekend
            detection (paper: 2).
    """

    def __init__(
        self,
        engine: QueueAnalyticEngine,
        weekday_window: int = 5,
        weekend_window: int = 2,
    ):
        if weekday_window < 1 or weekend_window < 1:
            raise ValueError("windows must hold at least one day")
        self.engine = engine
        self.weekday_window = weekday_window
        self.weekend_window = weekend_window
        self._weekdays: List[DailyLog] = []
        self._weekends: List[DailyLog] = []
        self._detections: Dict[str, Optional[SpotDetectionResult]] = {}

    # -- ingestion -------------------------------------------------------------

    def ingest(self, day: DailyLog) -> None:
        """Add a finished day's logs and refresh the affected detection."""
        if day.is_weekend:
            self._weekends.append(day)
            self._weekends = self._weekends[-self.weekend_window :]
        else:
            self._weekdays.append(day)
            self._weekdays = self._weekdays[-self.weekday_window :]
        self._refresh(day.is_weekend)

    def _refresh(self, weekend: bool) -> None:
        days = self._weekends if weekend else self._weekdays
        if not days:
            return
        pooled = merge_stores(day.store for day in days)
        # Scale min_pts with the pooled-day count (section 6.1.2's note
        # that multi-day datasets need re-tuned DBSCAN parameters).
        base = self.engine.config.detection
        scaled = replace(base, min_pts=base.min_pts * len(days))
        engine_config = EngineConfig(
            detection=scaled,
            thresholds=self.engine.config.thresholds,
            slot_seconds=self.engine.config.slot_seconds,
            assign_radius_m=self.engine.config.assign_radius_m,
            observed_fraction=self.engine.config.observed_fraction,
        )
        engine = QueueAnalyticEngine(
            zones=self.engine.zones,
            projection=self.engine.projection,
            config=engine_config,
            city_bbox=self.engine.city_bbox,
            inaccessible=self.engine.inaccessible,
        )
        self._detections["weekend" if weekend else "weekday"] = (
            engine.detect_spots(pooled)
        )

    # -- queries ----------------------------------------------------------------

    def detection_for(self, day_of_week: int) -> Optional[SpotDetectionResult]:
        """The current spot set applicable to a given day of week."""
        key = "weekend" if _is_weekend(day_of_week) else "weekday"
        return self._detections.get(key)

    def label_day(
        self, day: DailyLog, grid: Optional[TimeSlotGrid] = None
    ) -> Dict[str, SpotAnalysis]:
        """Tier 2 for one day, against the applicable spot set.

        Raises:
            RuntimeError: when no detection exists yet for the day kind.
        """
        detection = self.detection_for(day.day_of_week)
        if detection is None:
            raise RuntimeError(
                "no spot detection available for this day kind yet; "
                "ingest at least one matching day first"
            )
        # The pooled detection ran on several days, not on this one, so
        # tier 2 extracts the day's own events.
        return self.engine.disambiguate(day.store, detection, grid)

    @property
    def window_sizes(self) -> Dict[str, int]:
        """Current number of days held per day kind."""
        return {"weekday": len(self._weekdays), "weekend": len(self._weekends)}
