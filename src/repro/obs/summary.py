"""Per-stage digests of a trace file (``taxiqueue trace summarize``).

Groups spans by name and reports count, p50/p95/max latency, — for
spans carrying a ``records`` attribute — record throughput, and — for
spans carrying ``hwm_mb`` — the process's peak memory as they closed,
answering the question the tracing layer exists for: *where does a
record batch spend its time and memory between ingest and snapshot
publish?*
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The ``q``-quantile of an ascending-sorted non-empty sequence by
    the nearest-rank method (no interpolation): the value at rank
    ``ceil(q * N)`` (1-based).

    The one percentile of the code base: ``trace summarize``, the
    service's :class:`~repro.service.metrics.Histogram` and the load
    harness's latency recorder (:mod:`repro.load.recorder`) all report
    through it.  It lives here, not in :mod:`repro.service`, so that
    importing :mod:`repro.obs` (every traced or untraced CLI run does)
    loads none of the serving stack.  The epsilon guards float noise
    like ``0.95 * 20 == 19.0000...04`` from bumping the rank up a slot.

    Raises:
        ValueError: for an empty sequence or a quantile outside [0, 1].
    """
    if not ordered:
        raise ValueError("nearest_rank needs at least one observation")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def summarize_spans(spans: Sequence[dict]) -> Dict[str, dict]:
    """Aggregate spans into per-stage statistics.

    Returns:
        ``name -> {count, total_s, p50_s, p95_s, max_s, records,
        records_per_s, hwm_mb}`` ordered by descending total time.
        ``records`` and ``records_per_s`` are None for stages whose
        spans carry no ``records`` attribute; ``hwm_mb`` is the largest
        ``hwm_mb`` attribute of the stage's spans, None without one.
    """
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    stages: Dict[str, dict] = {}
    for name, group in by_name.items():
        durations = sorted(float(span["duration_s"]) for span in group)
        total = sum(durations)
        records = 0
        counted = False
        hwm = None
        for span in group:
            attrs = span.get("attrs", {})
            value = attrs.get("records")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                records += int(value)
                counted = True
            value = attrs.get("hwm_mb")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                hwm = value if hwm is None else max(hwm, value)
        stages[name] = {
            "count": len(group),
            "total_s": total,
            "p50_s": nearest_rank(durations, 0.50),
            "p95_s": nearest_rank(durations, 0.95),
            "max_s": durations[-1],
            "records": records if counted else None,
            "records_per_s": (
                records / total if counted and total > 0 else None
            ),
            "hwm_mb": hwm,
        }
    return dict(
        sorted(stages.items(), key=lambda item: -item[1]["total_s"])
    )


def _cell(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def format_summary(stages: Dict[str, dict]) -> str:
    """Render :func:`summarize_spans` output as an aligned text table."""
    if not stages:
        return "no spans in trace"
    width = max(len(name) for name in stages)
    width = max(width, len("stage"))
    header = (
        f"{'stage':<{width}}  {'count':>6}  {'total':>9}  {'p50':>9}  "
        f"{'p95':>9}  {'max':>9}  {'throughput':>14}  {'hwm':>9}"
    )
    lines = [header, "-" * len(header)]
    for name, stats in stages.items():
        if stats["records_per_s"] is not None:
            throughput = f"{stats['records_per_s']:10.0f} r/s"
        else:
            throughput = f"{'-':>14}"
        hwm = stats.get("hwm_mb")
        memory = f"{'-':>9}" if hwm is None else f"{hwm:6.1f} MB"
        lines.append(
            f"{name:<{width}}  {stats['count']:>6}  "
            f"{_cell(stats['total_s'])}  {_cell(stats['p50_s'])}  "
            f"{_cell(stats['p95_s'])}  {_cell(stats['max_s'])}  "
            f"{throughput}  {memory}"
        )
    return "\n".join(lines)
