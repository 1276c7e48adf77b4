"""Workload ``analyze-day``: ``taxiqueue analyze`` on the bench day.

Each operation is one fresh ``analyze`` process (serial), launched
through a ``python -c`` shim that calls ``repro.cli.main`` and reports
the process's own ``VmHWM`` on stderr at exit — unlike ``ru_maxrss``,
``VmHWM`` starts over in every new process.  Its stdout must equal,
byte for byte, a reference printout computed once per invocation with
the public engine API, and that reference must pass the brute-force
DBSCAN and the batch-recompute oracles first.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    CHILD_TIMEOUT_S,
    BenchError,
    child_env,
    day_csv,
    median,
    scratch_dir,
)

SHIM = r"""
import sys
from repro.cli import main
try:
    code = main(sys.argv[1:])
finally:
    with open("/proc/self/status") as fh:
        hwm = next(l for l in fh if l.startswith("VmHWM:")).split()[1]
    sys.stderr.write("\nperfbench-vmhwm-kib %s\n" % hwm)
sys.exit(code)
"""

#: Fresh interpreters timed for ``setup_s`` (median reported).
SETUP_REPEATS = 5


def _launch(args: List[str]) -> Tuple[float, int, bytes, float]:
    """``(wall_s, returncode, stdout, peak_rss_mb)`` of one CLI process."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SHIM, *args],
        env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    rss = 0.0
    for line in proc.stderr.decode(errors="replace").splitlines():
        if line.startswith("perfbench-vmhwm-kib "):
            rss = int(line.split()[1]) / 1024.0
    return wall, proc.returncode, proc.stdout, rss


def reference(csv_path: str) -> Tuple[bytes, List[str], Dict]:
    """The expected ``analyze`` stdout, from the public engine API.

    Built the way the CLI builds its engine (bbox of the records,
    expanded by 0.01 degrees; four-zone partition; full coverage), and
    checked against the brute-force oracles before it is trusted.
    """
    from repro.conformance.canonical import day_grid
    from repro.conformance.oracles import (
        check_batch_recompute,
        check_bruteforce_spots,
    )
    from repro.core.engine import EngineConfig, QueueAnalyticEngine
    from repro.core.reports import citywide_proportions, format_proportions
    from repro.geo.bbox import BBox
    from repro.geo.point import LocalProjection
    from repro.geo.zones import four_zone_partition
    from repro.trace.log_store import MdtLogStore

    store = MdtLogStore.from_csv(csv_path)
    bbox = BBox.from_points(
        (r.lon, r.lat) for r in store.iter_records()
    ).expanded(0.01)
    engine = QueueAnalyticEngine(
        zones=four_zone_partition(bbox),
        projection=LocalProjection(*bbox.center),
        config=EngineConfig(observed_fraction=1.0),
        city_bbox=bbox,
    )
    detection = engine.detect_spots(store)
    analyses = engine.disambiguate(store, detection)
    text = format_proportions(citywide_proportions(analyses.values())) + "\n"
    cleaned = engine.preprocess(store)
    problems = check_bruteforce_spots(engine, cleaned, detection)
    lo, hi = cleaned.time_span
    grid = day_grid(lo, hi, engine.config.slot_seconds)
    problems += check_batch_recompute(analyses, grid, engine.amplification)
    sizes = {"records": len(store), "spots": len(detection.spots)}
    return text.encode(), problems, sizes


def _traced_layers(trace_path: Path, wall_s: float) -> Dict[str, float]:
    from repro.obs import load_spans
    from spans import SpanIndex, batch_layers

    index = SpanIndex(load_spans(trace_path))
    roots = index.named("pipeline.batch")
    if len(roots) != 1:
        raise BenchError(f"expected one pipeline.batch span, got {len(roots)}")
    layers = batch_layers(index, roots[0])
    layers["cli.outside_trace_s"] = max(0.0, wall_s - roots[0]["duration_s"])
    return layers


#: The parts a traced ``analyze`` wall time splits into.
WALL_PARTS = (
    "trace.ingest_s", "trace.clean_s", "core.pea_s", "cluster.dbscan_s",
    "core.tier2_s", "cli.publish_s", "core.untraced_s", "cli.outside_trace_s",
)


def run(seed: int, seconds: float, trace: bool) -> Dict:
    day = day_csv("bench", seed)
    csv_path = day["csv"]
    expected, problems, sizes = reference(csv_path)
    info = {"input": {**day, **sizes}, "reference_problems": problems[:5]}
    correct = not problems
    attempted = failed = 0

    def check(code: int, stdout: bytes, traced: bool) -> bool:
        if code != 0:
            return False
        if traced:
            # The trace writer appends one "wrote N traces" line.
            return stdout.startswith(expected) and stdout[
                len(expected):
            ].startswith(b"wrote ")
        return stdout == expected

    setup: List[float] = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            wall, code, _, _ = _launch(["--version"])
            attempted += 1
            failed += code != 0
            setup.append(wall)

    walls: List[float] = []
    rss: List[float] = []
    traced_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    work = scratch_dir("analyze-")
    # Untraced: at least three runs, so one disturbed run cannot move
    # the median.
    # Traced: untraced/traced pairs, for the tracing overhead.
    min_ops, ops = (1 if trace else 3), 0
    start = time.perf_counter()
    while ops < min_ops or time.perf_counter() - start < seconds:
        ops += 1
        wall, code, out, peak = _launch(["analyze", csv_path])
        attempted += 1
        if check(code, out, traced=False):
            walls.append(wall)
            rss.append(peak)
        else:
            failed += 1
        if trace:
            trace_path = work / f"trace-{len(traced_walls)}.jsonl"
            wall, code, out, _ = _launch(
                ["analyze", csv_path, "--trace-out", str(trace_path)]
            )
            attempted += 1
            if check(code, out, traced=True):
                traced_walls.append(wall)
                layers.append(_traced_layers(trace_path, wall))
                # Stages + root self time + time outside the root must
                # account for the whole traced run.
                info.setdefault("accounted_frac", []).append(
                    sum(layers[-1][part] for part in WALL_PARTS) / wall
                )
            else:
                failed += 1
    if not walls or (trace and not layers):
        raise BenchError("no analyze run passed its output check")

    if trace:
        metrics = {
            name: median([entry[name] for entry in layers])
            for name in layers[0]
        }
        metrics["obs.trace_overhead_frac"] = (
            median(traced_walls) / median(walls) - 1.0
        )
        info["trace_dir"] = str(work)
    else:
        op = median(walls)
        metrics = {
            "setup_s": median(setup),
            "op_p50_ms": op * 1e3,
            "peak_rss_mb": median(rss),
        }
        info["aliases"] = {
            "analyze_s": op,
            "analyze_records_per_s": sizes["records"] / op,
            "analyze_rss_mb": median(rss),
        }
    info["op_seconds"] = walls
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "work": work,
    }
