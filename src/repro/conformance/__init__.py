"""Cross-engine differential conformance harness.

The pipeline (PEA -> per-zone DBSCAN -> WTE -> QCD) has three execution
paths — the serial batch engine, streaming replay and
checkpoint-restored streaming — whose equivalence was previously pinned
only by scattered per-feature tests.  This package checks it
systematically:

* :mod:`repro.conformance.matrix` — a seeded case matrix over the city
  simulator (fleet sizes, zones, disorder windows, kill points);
* :mod:`repro.conformance.paths` — drives each day through every
  execution path and reduces the outputs to canonical JSON;
* :mod:`repro.conformance.oracles` — brute-force reference
  recomputations (naive radius DBSCAN, direct WTE/QCD);
* :mod:`repro.conformance.invariants` — paper-derived invariants (WTE
  interval ordering, Little's-law consistency of the 5-tuple, snapshot
  version monotonicity, history byte-identity across kill/restart);
* :mod:`repro.conformance.shrink` — ddmin bisection of a diverging day
  down to a minimal reproducing record set;
* :mod:`repro.conformance.runner` — orchestrates a case end to end and
  emits divergence artifacts (minimal CSV + bootstrap JSON + one-command
  repro script);
* :mod:`repro.conformance.faults` — named *test-only* fault patches used
  to prove the harness catches real divergence.

Wired into ``taxiqueue conformance run|shrink|report``.
"""

from repro.conformance.canonical import DayBootstrap, canonical_json
from repro.conformance.matrix import ConformanceCase, default_matrix
from repro.conformance.runner import CaseReport, run_case, run_matrix

__all__ = [
    "CaseReport",
    "ConformanceCase",
    "DayBootstrap",
    "canonical_json",
    "default_matrix",
    "run_case",
    "run_matrix",
]
