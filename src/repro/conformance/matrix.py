"""The seeded case matrix conformance runs sweep.

One :class:`ConformanceCase` fully determines a scenario day (simulator
seed and city shape) *and* the execution-path parameters it is driven
through (disorder window, kill point, checkpoint cadence).
:func:`default_matrix` varies all of them deterministically with the
seed index so ``--seeds 5`` exercises five genuinely different
configurations, reproducible record for record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim import SimulationConfig, simulate_day
from repro.trace.log_store import MdtLogStore

#: Seed of the first default-matrix case (arbitrary, fixed forever).
DEFAULT_SEED_BASE = 9301


@dataclass(frozen=True)
class ConformanceCase:
    """One scenario day x execution-path configuration."""

    name: str
    seed: int = DEFAULT_SEED_BASE
    fleet: int = 60
    n_spots: int = 6
    n_decoys: int = 4
    day_of_week: int = 0
    coverage: float = 0.6
    min_pts: int = 20
    disorder_window_s: float = 120.0
    """0 disables the disorder comparison for this case."""

    duplicate_rate: float = 0.05
    kill_frac: float = 0.5
    """Where the injected crash lands, as a fraction of the stream."""

    checkpoint_every: int = 500
    grace_s: float = 900.0
    history: bool = True
    """Write (and byte-compare) history segments on the streaming runs."""

    def simulate(self) -> MdtLogStore:
        """The case's scenario day from the city simulator."""
        output = simulate_day(
            SimulationConfig(
                seed=self.seed,
                fleet_size=self.fleet,
                day_of_week=self.day_of_week,
                observed_fraction=self.coverage,
                n_queue_spots=self.n_spots,
                n_decoy_landmarks=self.n_decoys,
            )
        )
        return output.store


def default_matrix(
    seeds: int = 5,
    seed_base: int = DEFAULT_SEED_BASE,
) -> List[ConformanceCase]:
    """``seeds`` cases with deterministically varied shape.

    Fleet size, spot count, weekday, disorder window, kill point and
    checkpoint cadence all cycle with the index; every third case turns
    the disorder comparison off (covering the no-buffer configuration).

    Raises:
        ValueError: for a non-positive seed count.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    fleets = (60, 80, 60, 100, 80)
    spot_counts = (6, 6, 8, 8, 10)
    windows = (120.0, 60.0, 0.0, 180.0, 90.0)
    kill_fracs = (0.5, 0.3, 0.7, 0.45, 0.6)
    cadences = (500, 400, 700, 300, 600)
    cases = []
    for i in range(seeds):
        case = ConformanceCase(
            name=f"seed-{seed_base + i}",
            seed=seed_base + i,
            fleet=fleets[i % len(fleets)],
            n_spots=spot_counts[i % len(spot_counts)],
            n_decoys=4 + i % 3,
            day_of_week=i % 7,
            disorder_window_s=windows[i % len(windows)],
            kill_frac=kill_fracs[i % len(kill_fracs)],
            checkpoint_every=cadences[i % len(cadences)],
        )
        cases.append(case)
    return cases


def csv_case(
    name: str,
    *,
    min_pts: int = 20,
    coverage: float = 1.0,
    disorder_window_s: float = 120.0,
    kill_frac: float = 0.5,
    checkpoint_every: int = 500,
) -> ConformanceCase:
    """A case shell for a day loaded from CSV (``--input``): the store
    comes from the file, so the sim fields are irrelevant; coverage
    defaults to 1.0 because committed fixtures are full-fleet days."""
    return ConformanceCase(
        name=name,
        min_pts=min_pts,
        coverage=coverage,
        disorder_window_s=disorder_window_s,
        kill_frac=kill_frac,
        checkpoint_every=checkpoint_every,
    )


__all__ = [
    "ConformanceCase",
    "DEFAULT_SEED_BASE",
    "csv_case",
    "default_matrix",
]
