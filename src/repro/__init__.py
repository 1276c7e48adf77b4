"""repro — reproduction of "Taxi Queue, Passenger Queue or No Queue?"
(Lu, Xiang, Wu — EDBT 2015).

A queue detection and analysis system over event-driven taxi MDT logs,
plus the full substrate needed to evaluate it offline: a city/fleet
simulator, geospatial and clustering primitives, log storage and cleaning,
and the evaluation harness reproducing every table and figure of the
paper's section 6.

Quickstart::

    from repro import (
        SimulationConfig, simulate_day,
        QueueAnalyticEngine, EngineConfig,
    )

    out = simulate_day(SimulationConfig(fleet_size=400, n_queue_spots=25))
    engine = QueueAnalyticEngine(
        zones=out.city.zones,
        projection=out.city.projection,
        config=EngineConfig(observed_fraction=out.config.observed_fraction),
        city_bbox=out.city.bbox,
        inaccessible=out.city.water,
    )
    detection = engine.detect_spots(out.store)
    analyses = engine.disambiguate(out.store, detection)

Importing ``repro`` loads no subpackage: each name below is imported
from its subpackage the first time it is read (PEP 562), so a command
such as ``taxiqueue --version`` loads neither the engine, the
simulator nor NumPy.
"""

__version__ = "1.0.0"

__all__ = [
    "EngineConfig",
    "QueueAnalyticEngine",
    "QueueSpot",
    "QueueType",
    "SlotFeatures",
    "SlotLabel",
    "SpotAnalysis",
    "SpotDetectionParams",
    "SpotDetectionResult",
    "TimeSlotGrid",
    "City",
    "SimulationConfig",
    "SimulationOutput",
    "simulate_day",
    "MdtLogStore",
    "MdtRecord",
    "__version__",
]

#: The subpackage each re-exported name is imported from.
_SOURCES = {
    "EngineConfig": "repro.core",
    "QueueAnalyticEngine": "repro.core",
    "QueueSpot": "repro.core",
    "QueueType": "repro.core",
    "SlotFeatures": "repro.core",
    "SlotLabel": "repro.core",
    "SpotAnalysis": "repro.core",
    "SpotDetectionParams": "repro.core",
    "SpotDetectionResult": "repro.core",
    "TimeSlotGrid": "repro.core",
    "City": "repro.sim",
    "SimulationConfig": "repro.sim",
    "SimulationOutput": "repro.sim",
    "simulate_day": "repro.sim",
    "MdtLogStore": "repro.trace",
    "MdtRecord": "repro.trace",
}


def __getattr__(name: str):
    """Import a re-exported name on first access and bind it here, so
    later reads are plain attribute lookups."""
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(source), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
