"""Workload ``serve-live``: HTTP reads beside a live replay's writes.

``taxiqueue serve <csv> --port 0 --history-dir <fresh>`` runs in its
own process on the small day (fleet 150).  ``--speedup`` is chosen so
the paced replay outlasts the measured window: slots keep finalizing
into the snapshot and the history day segment keeps being rewritten
while the load generator reads.  Set-up is launch to the "serving N spots at
URL" line, timed over several launches (median reported).

The window repeats a cycle of :data:`OPEN_S` seconds of open loop at
:data:`RATE` req/s from two senders, timed from each request's due
time, and :data:`CLOSED_S` seconds of closed loop on two connections.
Both walk the seeded ``mixed`` plan of
``repro.load.profile.plan_requests`` over the spot ids that
``discover_spots`` finds.  Allowed answers: 200, 304, and the 404
"spot unknown to the history" on ``spot_history``; anything else, and
any transport error or timeout, is a failed operation.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BenchError,
    child_env,
    day_csv,
    median,
    nearest_rank,
    scratch_dir,
    vmhwm_mb,
)
from loadgen import closed_loop, open_loop

#: Open-loop arrival rate of phase 1 (requests/second).
RATE = 400.0
#: One measuring cycle: this many seconds of phase 1, then of phase 2.
#: The cycles repeat through the window, so each phase samples the whole
#: window rather than one stretch of it (on a shared host the CPU speed
#: drifts on a scale of seconds).
OPEN_S, CLOSED_S = 4.0, 1.0
#: Server launches timed for ``setup_s`` (the last one is measured).
SETUP_LAUNCHES = 3
#: How long a launch may take to print its "serving" line.
READY_TIMEOUT_S = 90.0
#: Width of the schedule slices the open-loop percentiles are taken
#: over (200 requests each at :data:`RATE`).
BUCKET_S = 0.5
#: Stream seconds in the replayed day.
DAY_S = 86400.0

_READY = re.compile(r"serving (\d+) spots at (http://\S+)")


class Server:
    """One ``taxiqueue serve`` child process."""

    def __init__(self, csv_path: str, work: Path, tag: str, seconds: float,
                 trace_out: Optional[Path] = None):
        # Replay lasts about twice the measured window plus slack, so
        # writes continue for the whole window; serve exits on its own
        # once the replay is done.
        replay_s = 2 * seconds + 30
        self.history_dir = work / f"history-{tag}"
        cmd = [
            sys.executable, "-m", "repro", "serve", csv_path,
            "--port", "0",
            "--history-dir", str(self.history_dir),
            "--history-day", "0",
            "--speedup", f"{DAY_S / replay_s:.3f}",
            "--max-seconds", f"{replay_s + 60:.0f}",
        ]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self._stderr = open(work / f"serve-{tag}.err", "wb")
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr,
            env=child_env(), cwd=work, text=True,
        )
        self._reader = threading.Thread(
            target=self._read, name="perfbench-serve-stdout", daemon=True
        )
        self._reader.start()
        self.ready_s: Optional[float] = None
        self.url = ""
        self.spots = 0

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self) -> bool:
        deadline = self.started + READY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.perf_counter())
                )
            except queue.Empty:
                return False
            if line is None:
                return False
            match = _READY.search(line)
            if match:
                self.ready_s = time.perf_counter() - self.started
                self.spots = int(match.group(1))
                self.url = match.group(2)
                return True

    @property
    def host_port(self):
        host, _, port = self.url.removeprefix("http://").partition(":")
        return host, int(port)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> int:
        """SIGINT (the service's clean shutdown), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._stderr.close()
        return code


def _plan(url: str, seed: int, n: int, epoch_day: int) -> List[str]:
    from repro.load.profile import get_profile, plan_requests
    from repro.load.runner import TargetError, discover_spots

    try:
        spot_ids = discover_spots(url, timeout_s=10.0)
    except TargetError as exc:
        raise BenchError(str(exc)) from exc
    return plan_requests(get_profile("mixed"), seed, n, spot_ids, [epoch_day])


def _scrape(url: str) -> Dict:
    with urllib.request.urlopen(url + "/v1/metrics", timeout=10) as resp:
        return json.loads(resp.read())


def _steady_ms(segments: List[list], q: float) -> float:
    """The ``q`` latency from the due time of each :data:`BUCKET_S`
    slice of each open-loop segment, median over all slices: a moment
    in which the host takes the CPU away moves it far less than it
    moves the pooled percentile."""
    values = []
    for samples in segments:
        buckets: Dict[int, List[float]] = {}
        for sample in samples:
            key = int((sample.due - samples[0].due) / BUCKET_S)
            buckets.setdefault(key, []).append(sample.from_due_s)
        values += [_ms(part, q) for part in buckets.values()]
    return median(values)


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _ms(values: List[float], q: float) -> float:
    return nearest_rank(values, q) * 1e3 if values else 0.0


def _service_layers(spans_path: Path, ready_s: float, open_walls, window,
                    samples, scraped) -> Dict[str, float]:
    from repro.obs import load_spans
    from spans import SpanIndex, batch_layers
    from spec import ROUTES

    index = SpanIndex(load_spans(spans_path))
    out: Dict[str, float] = {}
    roots = index.named("pipeline.bootstrap")
    if roots:
        out.update(batch_layers(index, roots[0]))
        out["cli.outside_trace_s"] = max(0.0, ready_s - roots[0]["duration_s"])

    def within(span, bounds):
        return bounds[0] <= span["start_ts"] <= bounds[1]

    handler: Dict[str, List[float]] = {}
    for span in index.named("http.request"):
        if any(within(span, walls) for walls in open_walls):
            handler.setdefault(span["attrs"].get("route"), []).append(
                span["duration_s"]
            )
    client: Dict[str, List[float]] = {}
    for sample in samples:
        client.setdefault(sample.route, []).append(sample.from_due_s)
    for route in ROUTES:
        for q, name in ((0.5, "p50"), (0.95, "p95")):
            out[f"service.handler.{route}.{name}_ms"] = _ms(
                handler.get(route, []), q
            )
        for q, name in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            out[f"load.{route}.{name}_ms"] = _ms(client.get(route, []), q)
    all_handler = [d for group in handler.values() for d in group]
    sent = [s.from_send_s for s in samples]
    if all_handler and sent:
        out["service.outside_handler_p50_ms"] = (
            _ms(sent, 0.5) - _ms(all_handler, 0.5)
        )
        out["service.outside_handler_p95_ms"] = (
            _ms(sent, 0.95) - _ms(all_handler, 0.95)
        )

    windows = [w for w in index.named("stream.window") if within(w, window)]
    out["stream.publish_s"] = sum(
        c["duration_s"]
        for w in windows
        for c in index.children.get(w["span_id"], ())
        if c["name"] == "stage.publish"
    )
    out["stream.records"] = sum(w["attrs"].get("records", 0) for w in windows)
    out["stream.slots_finalized"] = sum(
        w["attrs"].get("slots", 0) for w in windows
    )
    out["history.append_s"] = sum(
        s["duration_s"]
        for s in index.named("history.append")
        if within(s, window)
    )

    counters = scraped.get("counters", {})
    hits = counters.get("http.cache_hits", 0)
    misses = counters.get("http.cache_misses", 0)
    out["service.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for code in ("200", "304", "404"):
        out[f"service.status.{code}"] = counters.get(f"http.responses.{code}", 0)
    return out


def run(seed: int, seconds: float, trace: bool) -> Dict:
    day = day_csv("small", seed)
    work = scratch_dir("serve-")
    cycles = max(1, round(seconds / (OPEN_S + CLOSED_S)))
    n_plan = max(4096, int(RATE * OPEN_S * cycles) + 1)
    attempted = failed = 0
    problems: List[str] = []
    ready: List[float] = []
    info: Dict = {"input": dict(day)}

    def launch(tag: str, trace_out: Optional[Path] = None) -> Server:
        nonlocal attempted, failed
        server = Server(day["csv"], work, tag, seconds, trace_out)
        attempted += 1
        if not server.wait_ready():
            failed += 1
            code = server.stop()
            raise BenchError(f"serve launch {tag} never became ready (exit {code})")
        ready.append(server.ready_s)
        info["input"]["spots"] = server.spots
        return server

    def tally(samples, label: str) -> None:
        nonlocal attempted, failed
        attempted += len(samples)
        bad = [s for s in samples if not s.ok]
        failed += len(bad)
        problems.extend(
            f"{label}: {s.route} -> {s.status or 'transport error'}"
            for s in bad[:3]
        )

    def closed_phase(server: Server, plan: List[str], duration_s: float):
        """Phase 2: ``(samples, wall seconds, server CPU seconds)``."""
        cpu0 = _cpu_s(server.proc.pid)
        start = time.perf_counter()
        samples = closed_loop(*server.host_port, plan, duration_s)
        wall = time.perf_counter() - start
        tally(samples, "closed loop")
        return samples, wall, _cpu_s(server.proc.pid) - cpu0

    # The server is one GIL-bound process.  Besides its wall-clock
    # req/s, its answers per CPU-second (its capacity on one fully
    # available CPU) do not depend on how much CPU the host granted.
    untraced_capacity = None
    if trace:
        # One untraced server for the tracing overhead comparison.
        server = launch("untraced")
        try:
            plan = _plan(server.url, seed, n_plan, day["epoch_day"])
            attempted += 1  # the discovery request
            samples, _, cpu = closed_phase(server, plan, 2 * CLOSED_S)
            untraced_capacity = sum(s.ok for s in samples) / cpu
        finally:
            server.stop()
    else:
        for i in range(SETUP_LAUNCHES - 1):
            launch(f"setup{i}").stop()

    trace_out = work / "spans.jsonl" if trace else None
    server = launch("measured", trace_out)
    opened: List[list] = []
    open_walls = []
    closed_ok = 0
    closed_wall = closed_cpu = 0.0
    try:
        plan = _plan(server.url, seed, n_plan, day["epoch_day"])
        attempted += 1  # the discovery request
        window_start = time.time()
        for cycle in range(cycles):
            begin = time.time()
            offset = cycle * int(RATE * OPEN_S)
            samples = open_loop(
                *server.host_port, plan[offset:] + plan[:offset], RATE, OPEN_S
            )
            open_walls.append((begin, time.time()))
            tally(samples, "open loop")
            opened.append(samples)
            samples, wall, cpu = closed_phase(server, plan, CLOSED_S)
            closed_ok += sum(s.ok for s in samples)
            closed_wall += wall
            closed_cpu += cpu
        window = (window_start, time.time())
        if not server.alive():
            failed += 1
            problems.append("server exited before the window ended")
        rss = vmhwm_mb(server.proc.pid)
        scraped = _scrape(server.url) if trace else {}
    finally:
        code = server.stop()
    if code != 0:
        failed += 1
        problems.append(f"serve exited with {code}")

    p1 = [s for samples in opened for s in samples]
    from_due = [s.from_due_s for s in p1]
    closed_rps = closed_ok / closed_wall
    capacity = closed_ok / closed_cpu if closed_cpu > 0 else 0.0
    info["requests"] = {"open": len(p1), "closed": closed_ok}
    info["pooled"] = {
        "p50_ms": _ms(from_due, 0.5),
        "p95_ms": _ms(from_due, 0.95),
        "p99_ms": _ms(from_due, 0.99),
    }
    if trace:
        metrics = _service_layers(
            trace_out, ready[-1], open_walls, window, p1, scraped
        )
        layers, bad = _replay_layers(day["csv"], work)
        attempted += 1
        if bad:
            failed += 1
            problems.extend(bad[:3])
        metrics.update(layers)
        late = [s.lateness_s for s in p1]
        metrics["load.lateness_p95_ms"] = _ms(late, 0.95)
        metrics["load.behind_frac"] = (
            sum(x > 1.0 / RATE for x in late) / len(late)
        )
        metrics["load.sent"] = len(p1)
        metrics["load.p95_ms"] = _steady_ms(opened, 0.95)
        metrics["load.closed_rps"] = closed_rps
        metrics["load.capacity_per_cpu_s"] = capacity
        metrics["obs.trace_overhead_frac"] = (
            untraced_capacity / capacity - 1.0 if capacity else 0.0
        )
    else:
        metrics = {
            "setup_s": median(ready),
            "op_p50_ms": _steady_ms(opened, 0.5),
            "peak_rss_mb": rss,
        }
        info["aliases"] = {
            "serve_p50_ms": metrics["op_p50_ms"],
            "serve_p95_ms": _steady_ms(opened, 0.95),
            "serve_rps": closed_rps,
            "serve_capacity_per_cpu_s": capacity,
            "serve_rss_mb": rss,
        }
    info["problems"] = problems[:10]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "work": work,
    }


def _replay_layers(csv_path: str, work: Path):
    """``(layers, problems)``: the stream, snapshot and history layers
    one at a time, from a checked flat-out in-process replay of the
    same day.  Its spans stay in memory until the replay is done."""
    from repro.obs import InMemorySink, Tracer
    from replay import bootstrap, check, replay_once
    from spans import dump

    boot, records = bootstrap(csv_path)
    sink = InMemorySink()
    out = replay_once(boot, records, work / "replay-history", Tracer(sink))
    dump(sink.spans, work / "replay-spans.jsonl")
    return out["layers"], check(out, boot, len(records))
