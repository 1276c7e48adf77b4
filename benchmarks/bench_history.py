"""History bench — segment append throughput and query latency.

Measures what the durable history sustains on one box:

* ``HistoryWriter.absorb`` throughput (finalized slot records per
  second, including the atomic rewrite of the touched day segment);
* cold and warm (segment-cache hit) latency of the three query
  endpoints over a multi-week store, as p50/p95 over repeated calls;
* ``patterns`` latency right after a rewrite of the newest day — the
  traffic ``serve --history-dir`` makes, where the rewritten day is the
  one segment the query re-reads.

Run as part of the ``history`` CI job; results land in
``benchmarks/results/history.txt`` and every reported number is
asserted non-empty/positive so a silent regression to zero work fails
the job.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace

from conftest import emit

from repro.core.types import (
    QueueSpot,
    QueueType,
    SlotFeatures,
    SlotLabel,
    TimeSlotGrid,
)
from repro.history import HistoryQueryEngine, HistoryWriter, SegmentStore
from repro.service.metrics import nearest_rank
from repro.stream.monitor import SlotResult

N_SPOTS = 30
N_DAYS = 28
SLOTS_PER_DAY = 48
QUERY_ROUNDS = 50


def make_spots():
    return [
        QueueSpot(
            spot_id=f"QS{i:03d}",
            lon=103.8 + (i % 10) * 0.01,
            lat=1.28 + (i // 10) * 0.01,
            zone=("Central", "East", "West")[i % 3],
            pickup_count=100 + i,
            radius_m=45.0,
        )
        for i in range(N_SPOTS)
    ]


def make_batches(spots, rng):
    """One finalized batch per (day, slot): N_SPOTS results each."""
    labels = sorted(QueueType, key=lambda q: q.value)
    batches = []
    for day in range(N_DAYS):
        for slot in range(SLOTS_PER_DAY):
            global_slot = day * SLOTS_PER_DAY + slot
            batches.append(
                [
                    SlotResult(
                        spot_id=spot.spot_id,
                        slot=global_slot,
                        features=SlotFeatures(
                            slot=global_slot,
                            mean_wait_s=rng.uniform(10.0, 300.0),
                            n_arrivals=rng.uniform(0.0, 40.0),
                            queue_length=rng.uniform(0.0, 8.0),
                            mean_departure_interval_s=rng.uniform(
                                20.0, 120.0
                            ),
                            n_departures=rng.uniform(0.0, 30.0),
                        ),
                        label=SlotLabel(
                            slot=global_slot,
                            label=rng.choice(labels),
                            routine=1,
                        ),
                    )
                    for spot in spots
                ]
            )
    return batches


def test_history_append_and_query_latency(tmp_path):
    rng = random.Random(1215)
    spots = make_spots()
    grid = TimeSlotGrid(0.0, N_DAYS * 86400.0, 86400.0 / SLOTS_PER_DAY)
    store = SegmentStore(tmp_path / "history")
    writer = HistoryWriter(store, spots, grid, day_of_week=0)
    batches = make_batches(spots, rng)
    n_records = sum(len(batch) for batch in batches)

    start = time.perf_counter()
    for batch in batches:
        writer.absorb(batch)
    append_s = time.perf_counter() - start
    assert store.days() == list(range(N_DAYS))
    appends_per_s = n_records / append_s

    engine = HistoryQueryEngine(store)
    spot_ids = [spot.spot_id for spot in spots]

    def timed(fn, before=lambda: None):
        samples = []
        for _ in range(QUERY_ROUNDS):
            before()
            t0 = time.perf_counter()
            payload = fn()
            samples.append(time.perf_counter() - t0)
            assert payload, "query returned an empty payload"
        return samples

    patterns_s = timed(engine.patterns)
    citywide_s = timed(engine.citywide)
    spot_s = timed(
        lambda: engine.spot_history(
            rng.choice(spot_ids), per_page=200, downsample=4
        )
    )
    # Each rewrite changes the newest day's bytes, as serve's do; the
    # even round count leaves the full day on disk.
    newest = store.read_day(N_DAYS - 1)
    rewrites = itertools.cycle(
        [replace(newest, records=newest.records[:-1]), newest]
    )
    after_write_s = timed(
        engine.patterns, before=lambda: store.write_day(next(rewrites))
    )

    def row(name, samples):
        ordered = sorted(samples)
        return (
            f"{name:<22} {nearest_rank(ordered, 0.5) * 1e3:>9.2f} "
            f"{nearest_rank(ordered, 0.95) * 1e3:>9.2f} "
            f"{ordered[-1] * 1e3:>9.2f}"
        )

    lines = [
        "== History: append throughput and query latency ==",
        f"({N_DAYS} days x {N_SPOTS} spots x {SLOTS_PER_DAY} slots = "
        f"{n_records} records, {store.total_bytes() / 1e6:.1f} MB on disk)",
        "",
        f"append throughput      {appends_per_s:>12,.0f} records/s "
        f"({append_s:.2f} s total)",
        "",
        f"{'query':<22} {'p50 ms':>9} {'p95 ms':>9} {'max ms':>9}",
        row("patterns", patterns_s),
        row("citywide", citywide_s),
        row("spot_history", spot_s),
        row("patterns after write", after_write_s),
    ]
    emit("history", lines)

    # Non-empty assertions: the bench must have really done the work.
    assert n_records == N_DAYS * SLOTS_PER_DAY * N_SPOTS
    assert appends_per_s > 0
    assert store.total_bytes() > 0
    for samples in (patterns_s, citywide_s, spot_s, after_write_s):
        assert len(samples) == QUERY_ROUNDS
        assert all(s > 0 for s in samples)
    payload = engine.patterns()
    assert payload["day_count"] == N_DAYS
    assert payload["spot_count"] == N_SPOTS
