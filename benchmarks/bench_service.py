"""Service bench — HTTP throughput against a warm snapshot.

The ROADMAP's north star is serving heavy traffic; this bench measures
what the threaded server sustains on one box: concurrent clients with
keep-alive connections hammering ``/v1/spots`` (cold + TTL-cached
serialization) and conditional ``If-None-Match`` revalidations (304s).
Latency is what the clients see: each request is timed on the client,
from sending it to reading the last byte of its answer.  The clients
run in the server's process, so they share its interpreter lock.
"""

from __future__ import annotations

import http.client
import threading
import time

from conftest import emit

from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.obs.summary import nearest_rank
from repro.service import QueueService, ServiceConfig
from repro.sim.config import SimulationConfig
from repro.sim.fleet import simulate_day

CLIENTS = 8
DURATION_S = 3.0


def _warm_service():
    output = simulate_day(
        SimulationConfig(seed=11, fleet_size=150, n_queue_spots=10,
                         n_decoy_landmarks=5)
    )
    city = output.city
    engine = QueueAnalyticEngine(
        zones=city.zones,
        projection=city.projection,
        config=EngineConfig(observed_fraction=output.config.observed_fraction),
        city_bbox=city.bbox,
        inaccessible=city.water,
    )
    service = QueueService.from_day(
        output.store,
        engine,
        ServiceConfig(speedup=None, cache_ttl_s=1.0),
        output.ground_truth.grid,
    )
    service.warm()
    service.server.start()
    return service


def _hammer(host, port, path, stop, seconds, etag=None):
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    headers = {"If-None-Match": etag} if etag else {}
    while not stop.is_set():
        sent = time.perf_counter()
        connection.request("GET", path, headers=headers)
        response = connection.getresponse()
        response.read()
        seconds.append(time.perf_counter() - sent)
        assert response.status in (200, 304)
    connection.close()


def _run_load(service, path, etag=None):
    """``(req/s, ascending client latencies in seconds)``."""
    stop = threading.Event()
    seconds = [[] for _ in range(CLIENTS)]
    threads = [
        threading.Thread(
            target=_hammer,
            args=(service.server.host, service.server.port, path, stop,
                  seconds[i], etag),
        )
        for i in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(DURATION_S)
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    latencies = sorted(s for part in seconds for s in part)
    return len(latencies) / elapsed, latencies


def test_service_throughput():
    service = _warm_service()
    try:
        full_rps, full = _run_load(service, "/v1/spots")
        etag = service.store.etag
        cond_rps, cond = _run_load(service, "/v1/spots", etag=etag)
        counters = service.metrics.snapshot()["counters"]
    finally:
        service.server.stop()

    def us(latencies, q):
        return nearest_rank(latencies, q) * 1e6

    lines = [
        "Service bench — throughput against a warm snapshot",
        f"  clients                      {CLIENTS}",
        f"  full GET /v1/spots           {full_rps:10.0f} req/s",
        f"  conditional GET (304 path)   {cond_rps:10.0f} req/s",
        f"  client latency p50 (full)    {us(full, 0.50):10.0f} us",
        f"  client latency p99 (full)    {us(full, 0.99):10.0f} us",
        f"  client latency p50 (304)     {us(cond, 0.50):10.0f} us",
        f"  client latency p99 (304)     {us(cond, 0.99):10.0f} us",
        f"  cache hits / misses          "
        f"{counters.get('http.cache_hits', 0):.0f} / "
        f"{counters.get('http.cache_misses', 0):.0f}",
        f"  not-modified responses       "
        f"{counters.get('http.not_modified', 0):.0f}",
    ]
    emit("service", lines)

    # Conservative floors so the bench stays green on slow CI boxes; the
    # ISSUE target (>= 1k req/s on a dev box) is recorded above.
    assert full_rps > 300
    assert cond_rps >= full_rps * 0.8
    # Every request a client timed reached the server's handler.
    assert counters["http.requests.spots"] == len(full) + len(cond)
