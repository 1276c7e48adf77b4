"""The repository benchmark: one command, two workloads.

Usage::

    python3 perfbench/run.py --workload {analyze-day,serve-live}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program measured is
the checkout's ``src/repro``.  Inputs are generated from ``--seed``
(``simulate_day``) and cached under ``.perfbench/cache``.  Every
operation's output is checked before any number is reported; a run
that fails its check counts as a failed operation.

With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics (see ``spec.py`` and README.md).
Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The run
record (commit, nproc, Python, seed, input sizes, metrics) is written
to ``.perfbench/out``.  Exit status: 0 after a result was printed, 2
when the benchmark cannot run here (no program, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402
from common import OUT, BenchError, metric_lines, require_program  # noqa: E402
from common import host_steal_s, run_record, write_record  # noqa: E402


def _workload(name: str):
    if name == "analyze-day":
        import analyze_day as module
    else:
        import serve_live as module
    return module


def _declared(trace: bool):
    if trace:
        return [(name, unit) for name, unit, _ in spec.PER_LAYER]
    return [(name, unit) for name, unit, _, _ in spec.END_TO_END]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", required=True, choices=[n for n, _ in spec.WORKLOADS]
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    try:
        require_program()
        record = run_record(args.workload, args.seed, trace, args.seconds)
        steal0 = host_steal_s()
        result = _workload(args.workload).run(args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    steal = host_steal_s() - steal0
    measured = result["metrics"]
    if trace:
        measured["host.steal_s"] = steal
    metrics = {}
    for name, unit in _declared(trace):
        # A layer the workload leaves idle did no work: it reads 0.
        metrics[name] = {"value": float(measured.get(name, 0.0)), "unit": unit}
    record.update(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics=metrics,
        info=result["info"],
        # CPU the hypervisor took during the run: a noisy-host marker.
        host_steal_s=steal,
    )
    work = result.get("work")
    if work is not None:
        # Trace files (written by the program or flushed from memory
        # after measuring) are kept with the run record.
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        for path in sorted(Path(work).glob("*.jsonl")):
            shutil.move(str(path), OUT / f"{stem}.{path.name}")
        shutil.rmtree(work, ignore_errors=True)
    path = write_record(record)

    info = result["info"]
    sizes = info.get("input", {})
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={record['nproc']} python={record['python']} "
        + (
            f"commit={record['commit']}"
            if record["commit"]
            else f"source={record['source_sha256'][:12]}"
        )
    )
    print(
        f"  input: {sizes.get('records')} records, "
        f"{sizes.get('spots')} spots detected"
    )
    print(
        f"  operations: {result['attempted']} attempted, "
        f"{result['failed']} failed; outputs "
        f"{'correct' if result['correct'] else 'INCORRECT'}"
    )
    for line in metric_lines(metrics):
        print(line)
    for name, value in info.get("aliases", {}).items():
        print(f"  (= {name} {value:.6g})")
    print(f"  run record: {path}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
