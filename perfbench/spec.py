"""The benchmark's declared workloads and metrics.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/spec.py --write``), so the runner and the
declaration can never disagree.

Every workload reports every end-to-end metric; what one operation is
differs per workload (see README.md):

============  =============================  ==========================
metric        analyze-day                    serve-live
============  =============================  ==========================
setup_s       CLI start-up                   launch to "serving" line
op_p50_ms     one ``analyze`` process,       one request (open loop,
              launch to exit                 from its due time)
peak_rss_mb   analyze VmHWM                  server VmHWM
============  =============================  ==========================

Tail latency and throughput are per-layer metrics (``load.p95_ms``,
``load.closed_rps``, ``load.capacity_per_cpu_s``): on the shared 2-CPU
host they swing with the hypervisor's steal time far beyond any useful
regression bound (see README.md).

A per-layer metric of a layer a workload leaves idle reads 0 there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35

WORKLOADS = [
    (
        "analyze-day",
        "batch CLI on the 281k-record bench day: ingest, clean, PEA, "
        "DBSCAN and tier 2 do all the work; stream, service and history "
        "stay idle",
    ),
    (
        "serve-live",
        "HTTP reads, 400 req/s open loop and a 2-connection closed loop, "
        "while a paced replay keeps publishing snapshots and rewriting "
        "history: reads beside writes",
    ),
]

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

#: The routes of ``http.request`` spans, as the server names them.
ROUTES = [
    "spots",
    "citywide",
    "spot_slots",
    "metrics",
    "healthz",
    "spot_history",
    "history_citywide",
    "history_patterns",
]

#: (name, unit, better)
PER_LAYER = [
    ("trace.ingest_s", "s", "lower"),
    ("trace.ingest_records_per_s", "1/s", "higher"),
    ("trace.clean_s", "s", "lower"),
    ("trace.clean_calls", "count", "lower"),
    ("trace.clean_removed", "count", "higher"),
    ("core.pea_s", "s", "lower"),
    ("core.pea_records_per_s", "1/s", "higher"),
    ("core.pickup_events", "count", "higher"),
    ("cluster.dbscan_s", "s", "lower"),
    ("cluster.zone_max_s", "s", "lower"),
    ("cluster.points", "count", "higher"),
    ("core.tier2_s", "s", "lower"),
    ("core.tier2_spot_max_s", "s", "lower"),
    ("core.spots", "count", "higher"),
    ("core.untraced_s", "s", "lower"),
    ("cli.publish_s", "s", "lower"),
    ("cli.outside_trace_s", "s", "lower"),
    ("stream.monitor_self_s", "s", "lower"),
    ("stream.replayer_self_s", "s", "lower"),
    ("stream.records", "count", "higher"),
    ("stream.slots_finalized", "count", "higher"),
    ("stream.publish_s", "s", "lower"),
    ("service.snapshot_apply_s", "s", "lower"),
    ("service.snapshot_versions", "count", "higher"),
    ("history.absorb_s", "s", "lower"),
    ("history.append_s", "s", "lower"),
    ("history.segment_bytes", "B", "lower"),
]
PER_LAYER += [
    (f"service.handler.{route}.{q}_ms", "ms", "lower")
    for route in ROUTES
    for q in ("p50", "p95")
]
PER_LAYER += [
    (f"load.{route}.{q}_ms", "ms", "lower")
    for route in ROUTES
    for q in ("p50", "p95", "p99")
]
PER_LAYER += [
    ("service.outside_handler_p50_ms", "ms", "lower"),
    ("service.outside_handler_p95_ms", "ms", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.status.200", "count", "higher"),
    ("service.status.304", "count", "higher"),
    ("service.status.404", "count", "lower"),
    ("load.lateness_p95_ms", "ms", "lower"),
    ("load.behind_frac", "ratio", "lower"),
    ("load.sent", "count", "higher"),
    ("load.p95_ms", "ms", "lower"),
    ("load.closed_rps", "1/s", "higher"),
    ("load.capacity_per_cpu_s", "1/s", "higher"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("host.steal_s", "s", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def main(argv) -> int:
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if argv == ["--write"]:
        target = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
        target.write_text(text)
        print(f"wrote {target}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
