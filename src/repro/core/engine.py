"""The two-tier Queue Analytic Engine (paper section 3, Fig. 4).

Ties the pieces together the way the deployed system does (section 7.1):

* **tier 1** (:meth:`QueueAnalyticEngine.detect_spots`) runs on the
  long-term dataset — preprocessing, PEA, per-zone DBSCAN — and yields the
  queue spots;
* **tier 2** (:meth:`QueueAnalyticEngine.disambiguate`) runs on a
  short-term dataset — W(r) assembly, WTE, 5-tuple features, threshold
  derivation, QCD — and yields per-slot context labels for each spot.

The engine is substrate-agnostic: it consumes any
:class:`~repro.trace.log_store.MdtLogStore`, whether simulated or loaded
from CSV, or a :class:`~repro.columnar.RecordBatch` parsed straight
from CSV.  Either way both tiers run on cleaned batch columns, and a
tier 2 over the very input tier 1 ran on reuses tier 1's cleaned rows.
A caller that holds the raw day can clean it first
(:meth:`QueueAnalyticEngine.clean`), let the raw day go, and hand both
tiers the :class:`CleanedDay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.columnar import RecordBatch
from repro.core.features import AmplificationPolicy, compute_slot_features
from repro.core.pea import PickupEvent, extract_pickup_events_batch
from repro.core.qcd import disambiguate
from repro.core.spots import (
    SpotDetectionParams,
    SpotDetectionResult,
    assign_events_to_spots,
    detect_from_centroids,
    pickup_centroids,
)
from repro.core.thresholds import (
    DEFAULT_STREET_JOB_RATIO,
    QcdThresholds,
    ThresholdPolicy,
    derive_thresholds,
    derive_thresholds_from_features,
    zone_street_job_ratios,
)
from repro.core.types import QueueSpot, SlotFeatures, SlotLabel, TimeSlotGrid
from repro.core.wte import WaitEvent, extract_wait_times
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import ZonePartition
from repro.trace.cleaning import CleaningReport, clean_batch
from repro.trace.log_store import MdtLogStore


@dataclass(frozen=True, eq=False)
class CleanedDay:
    """A day after its one cleaning pass (:meth:`QueueAnalyticEngine.clean`).

    Both tiers take it in place of the raw day and do not clean it
    again, so a caller can keep this and let the raw day go.  It holds
    the cleaned rows and the facts about the raw day that are reported
    after the run.
    """

    rows: RecordBatch
    """The surviving rows, in canonical order."""
    raw_span: Optional[Tuple[float, float]]
    """``(min_ts, max_ts)`` of the raw day; None when it had no record."""
    skipped_lines: int
    """Malformed CSV lines dropped before the raw day was built."""


@dataclass
class SpotAnalysis:
    """Tier-2 output for one queue spot."""

    spot: QueueSpot
    wait_events: List[WaitEvent]
    features: List[SlotFeatures]
    labels: List[SlotLabel]
    thresholds: Optional[QcdThresholds]

    def label_of(self, slot: int) -> SlotLabel:
        """The label of one slot.

        Raises:
            IndexError: for an out-of-range slot.
        """
        return self.labels[slot]


def analyze_spot(
    spot: QueueSpot,
    events: List[PickupEvent],
    grid: TimeSlotGrid,
    amplification: AmplificationPolicy,
    policy: ThresholdPolicy,
    slot_seconds: float,
    street_job_ratio: float,
) -> SpotAnalysis:
    """Tier-2 analysis of one spot: WTE -> features -> thresholds -> QCD.

    The per-spot unit of work of :meth:`QueueAnalyticEngine.disambiguate`.

    Args:
        spot: the detected queue spot.
        events: the spot's W(r) bucket of pickup events.
        grid: the time-slot grid.
        amplification: observed-fraction correction policy.
        policy: threshold derivation policy.
        slot_seconds: slot length in seconds.
        street_job_ratio: the zone's tau_ratio input.
    """
    wait_events = extract_wait_times(events)
    features = compute_slot_features(wait_events, grid, amplification)
    thresholds: Optional[QcdThresholds]
    try:
        if policy.granularity == "slot":
            thresholds = derive_thresholds_from_features(
                features,
                slot_seconds=slot_seconds,
                street_job_ratio=street_job_ratio,
                policy=policy,
            )
        else:
            thresholds = derive_thresholds(
                wait_events,
                slot_seconds=slot_seconds,
                street_job_ratio=street_job_ratio,
                policy=policy,
            )
    except ValueError:
        thresholds = None
    if thresholds is None:
        from repro.core.types import QueueType

        labels = [
            SlotLabel(slot=f.slot, label=QueueType.UNIDENTIFIED, routine=0)
            for f in features
        ]
    else:
        labels = disambiguate(features, thresholds)
    return SpotAnalysis(
        spot=spot,
        wait_events=wait_events,
        features=features,
        labels=labels,
        thresholds=thresholds,
    )


@dataclass
class EngineConfig:
    """Engine-wide configuration."""

    detection: SpotDetectionParams = field(default_factory=SpotDetectionParams)
    thresholds: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    slot_seconds: float = 1800.0
    assign_radius_m: float = 30.0
    observed_fraction: float = 1.0
    """Fraction of the fleet the logs cover; <1 turns on the section-6.2.1
    amplification."""


class QueueAnalyticEngine:
    """The deployable queue detection and analysis engine.

    Args:
        zones: Fig. 5 zone partition of the city.
        projection: lon/lat -> metre projection for the city.
        config: engine configuration.
        city_bbox: optional city rectangle for GPS-error cleaning.
        inaccessible: optional inaccessible rectangles (water) for
            GPS-error cleaning.
        tracer: optional :class:`repro.obs.Tracer`; stage spans
            (cleaning, PEA, clustering, tier 2) are recorded into it.
            Defaults to the no-op tracer — tracing never changes
            detection output, only observes it.
    """

    def __init__(
        self,
        zones: ZonePartition,
        projection: LocalProjection,
        config: Optional[EngineConfig] = None,
        city_bbox: Optional[BBox] = None,
        inaccessible: Optional[List[BBox]] = None,
        tracer=None,
    ):
        from repro.obs.tracer import NULL_TRACER

        self.zones = zones
        self.projection = projection
        self.config = config or EngineConfig()
        self.city_bbox = city_bbox
        self.inaccessible = list(inaccessible or [])
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.last_cleaning_report: Optional[CleaningReport] = None

    # -- shared -----------------------------------------------------------------

    def clean(self, data) -> CleanedDay:
        """Section-6.1.1 cleaning of a raw day (a store or a batch), in
        one pass over its columns, traced as ``stage.clean``.

        The report lands in :attr:`last_cleaning_report`.  Cleaning is
        not idempotent, so the result is a :class:`CleanedDay`, which
        both tiers take as it is.
        """
        batch = _as_batch(data)
        with self.tracer.span("stage.clean") as span:
            cleaned, report = clean_batch(
                batch,
                city_bbox=self.city_bbox,
                inaccessible=self.inaccessible,
            )
            span.set(records=report.total_in, removed=report.total_removed)
        self.last_cleaning_report = report
        return CleanedDay(
            rows=cleaned,
            raw_span=batch.time_span if len(batch) else None,
            skipped_lines=batch.skipped_lines,
        )

    def preprocess(self, store: MdtLogStore) -> MdtLogStore:
        """Section-6.1.1 cleaning of a store, for row consumers.

        The same cleaning tier 1 runs (one ``stage.clean`` span), with
        the survivors grouped by taxi in sorted-id order, time-ordered
        within each taxi.  Both tiers clean their own input, and
        cleaning is not idempotent, so the result must not be passed
        back into :meth:`detect_spots` or :meth:`disambiguate`: give
        them the raw day, or the :class:`CleanedDay` of :meth:`clean`.
        """
        return MdtLogStore.from_batch(self.clean(store).rows)

    @property
    def amplification(self) -> AmplificationPolicy:
        """The observed-fraction correction policy."""
        return AmplificationPolicy.for_coverage(self.config.observed_fraction)

    # -- tier 1 -----------------------------------------------------------------

    def detect_spots(self, data) -> SpotDetectionResult:
        """Run the queue spot detection tier on a (long-term) dataset.

        Accepts an :class:`MdtLogStore`, a
        :class:`~repro.columnar.RecordBatch` or a :class:`CleanedDay`
        (which is not cleaned again); either way the tier runs on the
        columnar data plane — cleaning and PEA as whole-day array
        passes, pickup events as row ranges of the cleaned day — and
        builds no row.  Outputs are byte-identical to the historical
        row-at-a-time path (pinned by the conformance matrix and the
        golden fixture).  The result keeps the cleaned batch, so
        :meth:`disambiguate` over the same ``data`` does not clean it
        again.
        """
        cleaned = self._cleaned(data)
        with self.tracer.span("stage.pea") as span:
            events = self._pickup_events(cleaned)
            centroids = pickup_centroids(events)
            span.set(records=len(cleaned), events=len(events))
        detection = detect_from_centroids(
            centroids,
            self.zones,
            self.projection,
            self.config.detection,
            events=events,
            tracer=self.tracer,
        )
        detection.keep_cleaned(data, cleaned)
        return detection

    def _cleaned(self, data) -> RecordBatch:
        """The cleaned rows of ``data``: a :class:`CleanedDay`'s own, or
        a raw day's after :meth:`clean`."""
        if isinstance(data, CleanedDay):
            return data.rows
        return self.clean(data).rows

    def _pickup_events(self, cleaned: RecordBatch) -> List[PickupEvent]:
        events, _ = extract_pickup_events_batch(
            cleaned,
            apply_state_filters=self.config.detection.apply_state_filters,
        )
        return events

    # -- tier 2 -----------------------------------------------------------------

    def disambiguate(
        self,
        data,
        detection: SpotDetectionResult,
        grid: Optional[TimeSlotGrid] = None,
    ) -> Dict[str, SpotAnalysis]:
        """Run queue context disambiguation for every detected spot.

        Args:
            data: the short-term dataset (typically one day), as an
                :class:`MdtLogStore`, a
                :class:`~repro.columnar.RecordBatch` or a
                :class:`CleanedDay`.
            detection: tier-1 output (spots + pickup events).  When
                tier 1 ran on ``data`` itself
                (:meth:`SpotDetectionResult.cleaned_for`), its cleaned
                rows, pickup events and event centroids are reused.
                Otherwise ``data`` is cleaned and its events extracted
                here: another day's events, or a pooled detection's,
                never label ``data``.
            grid: time-slot grid; defaults to
                :meth:`TimeSlotGrid.covering` the cleaned rows.

        Returns:
            ``spot_id -> SpotAnalysis``; empty, with no grid derived,
            when tier 1 found no spots.
        """
        if not detection.spots:
            return {}
        cleaned = detection.cleaned_for(data)
        if cleaned is not None and detection.pickup_events:
            events = detection.pickup_events
            centroids = detection.centroids_lonlat
        else:
            if cleaned is None:
                cleaned = self._cleaned(data)
            events, centroids = self._pickup_events(cleaned), None
        if grid is None:
            lo, hi = cleaned.time_span
            grid = TimeSlotGrid.covering(lo, hi, self.config.slot_seconds)
        amplification = self.amplification
        analyses: Dict[str, SpotAnalysis] = {}
        with self.tracer.span(
            "stage.tier2", spots=len(detection.spots)
        ) as stage:
            buckets = assign_events_to_spots(
                events,
                detection.spots,
                self.projection,
                assign_radius_m=self.config.assign_radius_m,
                centroids=centroids,
            )
            zone_ratios = zone_street_job_ratios(cleaned, self.zones)
            for spot in detection.spots:
                spot_events = buckets[spot.spot_id]
                with self.tracer.span(
                    f"tier2.spot:{spot.spot_id}"
                ) as span:
                    analyses[spot.spot_id] = analyze_spot(
                        spot,
                        spot_events,
                        grid,
                        amplification,
                        self.config.thresholds,
                        self.config.slot_seconds,
                        zone_ratios.get(spot.zone, DEFAULT_STREET_JOB_RATIO),
                    )
                    span.set(events=len(spot_events))
            stage.set(labeled=len(analyses))
        return analyses


def _as_batch(data) -> RecordBatch:
    """``data`` as columns (a store hands over its own batch)."""
    if isinstance(data, RecordBatch):
        return data
    return data.to_batch()
