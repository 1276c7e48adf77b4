"""Span loading and self-time reduction over the program's trace spans.

Spans come either from a ``--trace-out`` JSONL file (loaded with
``repro.obs.load_spans``, which validates the schema) or from an
in-memory sink (``repro.obs.InMemorySink``) that the benchmark writes
out with :func:`dump` only after measuring.  A span's *self time* is
its duration minus the union of its children's intervals, clipped to
its own.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List


def dump(spans: Iterable[dict], path: Path) -> None:
    """Write spans as JSONL (after the measured window is over)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")


class SpanIndex:
    """Spans grouped by name and by parent, for self-time queries."""

    def __init__(self, spans: Iterable[dict]):
        self.by_name: Dict[str, List[dict]] = defaultdict(list)
        self.children: Dict[str, List[dict]] = defaultdict(list)
        for span in spans:
            self.by_name[span["name"]].append(span)
            if span["parent_id"] is not None:
                self.children[span["parent_id"]].append(span)

    def named(self, name: str) -> List[dict]:
        return self.by_name.get(name, [])

    def self_time(self, span: dict) -> float:
        """Duration minus the union of the children's intervals."""
        lo = span["start_ts"]
        hi = lo + span["duration_s"]
        intervals = sorted(
            (max(lo, c["start_ts"]), min(hi, c["start_ts"] + c["duration_s"]))
            for c in self.children.get(span["span_id"], ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return max(0.0, span["duration_s"] - covered)


def batch_layers(index: SpanIndex, root: dict) -> Dict[str, float]:
    """Per-layer numbers of one batch pipeline trace.

    ``root`` is a ``pipeline.batch`` (CLI) or ``pipeline.bootstrap``
    (serve set-up) span; only its direct stage children count, so the
    streaming replayer's own ``stage.*`` window spans never mix in.
    The stage durations plus the root's self time add up to the root.
    """
    stages: Dict[str, List[dict]] = defaultdict(list)
    for child in index.children.get(root["span_id"], ()):
        stages[child["name"]].append(child)

    def total(name: str) -> float:
        return sum(span["duration_s"] for span in stages[name])

    def attr(name: str, key: str) -> int:
        return sum(int(s["attrs"].get(key, 0) or 0) for s in stages[name])

    def child_max(name: str) -> float:
        return max(
            (
                c["duration_s"]
                for s in stages[name]
                for c in index.children.get(s["span_id"], ())
            ),
            default=0.0,
        )

    ingest_s = total("stage.ingest")
    pea_s = total("stage.pea")
    # A store-mode ingest span only brackets a length count (the CSV
    # was parsed before the trace opened): no throughput to report.
    csv_ingest = any(
        s["attrs"].get("mode") != "store" for s in stages["stage.ingest"]
    )
    return {
        "trace.ingest_s": ingest_s,
        "trace.ingest_records_per_s": (
            attr("stage.ingest", "records") / ingest_s
            if csv_ingest and ingest_s > 0
            else 0.0
        ),
        "trace.clean_s": total("stage.clean"),
        "trace.clean_calls": len(stages["stage.clean"]),
        "trace.clean_removed": attr("stage.clean", "removed"),
        "core.pea_s": pea_s,
        "core.pea_records_per_s": (
            attr("stage.pea", "records") / pea_s if pea_s > 0 else 0.0
        ),
        "core.pickup_events": attr("stage.pea", "events"),
        "cluster.dbscan_s": total("stage.cluster"),
        "cluster.zone_max_s": child_max("stage.cluster"),
        "cluster.points": attr("stage.cluster", "points"),
        "core.tier2_s": total("stage.tier2"),
        "core.tier2_spot_max_s": child_max("stage.tier2"),
        "core.spots": attr("stage.tier2", "spots"),
        "core.untraced_s": index.self_time(root),
        "cli.publish_s": total("stage.publish"),
    }
