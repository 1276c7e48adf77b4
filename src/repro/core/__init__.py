"""The paper's primary contribution: the two-tier queue analytics engine.

* :mod:`repro.core.pea` — Algorithm 1 (pickup extraction);
* :mod:`repro.core.spots` — tier 1, queue spot detection (section 4);
* :mod:`repro.core.wte` — Algorithm 2 (wait time extraction);
* :mod:`repro.core.features` — the per-slot 5-tuple (section 5.2);
* :mod:`repro.core.thresholds` — threshold selection (section 6.2.1);
* :mod:`repro.core.qcd` — Algorithm 3 (queue context disambiguation);
* :mod:`repro.core.engine` — the assembled two-tier engine (Fig. 4);
* :mod:`repro.core.reports` — transition reports and proportions.
"""

from repro.core.types import (
    QueueType,
    QueueSpot,
    SlotFeatures,
    SlotLabel,
    TimeSlotGrid,
)
from repro.core.pea import (
    DEFAULT_SPEED_THRESHOLD_KMH,
    PeaStats,
    PickupEvent,
)
from repro.core.wte import WaitEvent, extract_wait_event, extract_wait_times
from repro.core.features import AmplificationPolicy, compute_slot_features
from repro.core.thresholds import (
    QcdThresholds,
    ThresholdPolicy,
    derive_thresholds,
    derive_thresholds_from_features,
)
from repro.core.qcd import disambiguate, label_slot, label_proportions
from repro.core.qcd_extended import (
    ExtendedPolicy,
    ROUTINE_EXTENDED,
    disambiguate_extended,
    label_slot_extended,
)
from repro.core.spots import (
    SpotDetectionParams,
    SpotDetectionResult,
    detect_from_centroids,
    pickup_centroids,
    assign_events_to_spots,
)
from repro.core.engine import EngineConfig, QueueAnalyticEngine, SpotAnalysis
from repro.core.deployment import DailyLog, DeploymentScheduler
from repro.core.reports import (
    LabelSpan,
    merge_labels,
    transition_report,
    format_transition_report,
    citywide_proportions,
    format_proportions,
)

__all__ = [
    "QueueType",
    "QueueSpot",
    "SlotFeatures",
    "SlotLabel",
    "TimeSlotGrid",
    "DEFAULT_SPEED_THRESHOLD_KMH",
    "PeaStats",
    "PickupEvent",
    "WaitEvent",
    "extract_wait_event",
    "extract_wait_times",
    "AmplificationPolicy",
    "compute_slot_features",
    "QcdThresholds",
    "ThresholdPolicy",
    "derive_thresholds",
    "derive_thresholds_from_features",
    "disambiguate",
    "label_slot",
    "label_proportions",
    "ExtendedPolicy",
    "ROUTINE_EXTENDED",
    "disambiguate_extended",
    "label_slot_extended",
    "SpotDetectionParams",
    "SpotDetectionResult",
    "detect_from_centroids",
    "pickup_centroids",
    "assign_events_to_spots",
    "EngineConfig",
    "QueueAnalyticEngine",
    "SpotAnalysis",
    "DailyLog",
    "DeploymentScheduler",
]
