"""Latency recording and SLO evaluation for load runs.

The :class:`LatencyRecorder` is the measuring half of the harness:
drivers feed it one ``(status, latency)`` observation per completed
request (plus transport errors), and :meth:`LatencyRecorder.report`
reduces everything to a :class:`LoadReport` — nearest-rank
p50/p95/p99/max latency (the server's own histograms use the same
:func:`repro.obs.summary.nearest_rank`), throughput, per-status
counts, shed (429) and error counts.

**What counts as an error.**  Transport failures and any 5xx do; a
429 does *not* — shedding is the server honouring its admission
contract, and the SLO gate judges the service at its admitted rate.
Shed volume is reported separately so a breach of the shed *budget*
can be asserted on its own.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.summary import nearest_rank


@dataclass
class LoadReport:
    """The reduced outcome of one load run."""

    requests: int
    duration_s: float
    throughput_rps: float
    statuses: Dict[int, int]
    errors: int
    shed: int
    latency_p50_s: Optional[float]
    latency_p95_s: Optional[float]
    latency_p99_s: Optional[float]
    latency_max_s: Optional[float]
    warmup_discarded: int = 0
    mode: str = ""
    profile: str = ""
    seed: int = 0
    offered_rps: Optional[float] = None

    @property
    def ok_responses(self) -> int:
        """Responses that served content: 2xx plus 304."""
        return sum(
            count
            for status, count in self.statuses.items()
            if 200 <= status < 300 or status == 304
        )

    @property
    def error_rate(self) -> float:
        """Errors (transport + 5xx) over everything attempted.

        5xx responses are already in ``requests``; only transport
        failures add extra attempts on top of the completed count.
        """
        server_errors = sum(
            count for status, count in self.statuses.items() if status >= 500
        )
        total = self.requests + (self.errors - server_errors)
        return self.errors / total if total else 0.0

    def slo_breaches(
        self,
        slo_p99_s: Optional[float] = None,
        slo_error_rate: Optional[float] = None,
    ) -> List[str]:
        """Human-readable SLO violations (empty = the gate passes)."""
        breaches: List[str] = []
        if slo_p99_s is not None:
            if self.latency_p99_s is None:
                breaches.append(
                    "p99 SLO set but no successful request was recorded"
                )
            elif self.latency_p99_s > slo_p99_s:
                breaches.append(
                    f"p99 latency {self.latency_p99_s * 1e3:.1f} ms exceeds "
                    f"SLO {slo_p99_s * 1e3:.1f} ms"
                )
        if slo_error_rate is not None and self.error_rate > slo_error_rate:
            breaches.append(
                f"error rate {self.error_rate:.4f} exceeds "
                f"SLO {slo_error_rate:.4f}"
            )
        return breaches

    def to_dict(self) -> dict:
        """JSON-able form (benchmarks persist these)."""
        return {
            "requests": self.requests,
            "duration_s": round(self.duration_s, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "errors": self.errors,
            "shed": self.shed,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_max_s": self.latency_max_s,
            "warmup_discarded": self.warmup_discarded,
            "mode": self.mode,
            "profile": self.profile,
            "seed": self.seed,
            "offered_rps": self.offered_rps,
        }


@dataclass
class _Shard:
    """Per-thread accumulation (merged at report time, so recording
    never contends on a shared lock in the latency path)."""

    latencies: List[float] = field(default_factory=list)
    statuses: Dict[int, int] = field(default_factory=dict)
    errors: int = 0
    discarded: int = 0


class LatencyRecorder:
    """Thread-safe collector of per-request observations.

    Each recording thread writes into its own shard
    (``threading.local``); :meth:`report` merges shards under a lock.
    Latencies of shed (429) responses are *not* folded into the
    latency percentiles — a shed answer is fast by construction and
    would flatter the tail — but their count is.
    """

    def __init__(self):
        self._local = threading.local()
        self._shards: List[_Shard] = []
        self._lock = threading.Lock()

    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = self._local.shard = _Shard()
            with self._lock:
                self._shards.append(shard)
        return shard

    def record(
        self, status: int, latency_s: float, warmup: bool = False
    ) -> None:
        """One completed request."""
        shard = self._shard()
        if warmup:
            shard.discarded += 1
            return
        shard.statuses[status] = shard.statuses.get(status, 0) + 1
        if status != 429:
            shard.latencies.append(latency_s)

    def record_error(self, warmup: bool = False) -> None:
        """One transport failure (connect/read error, timeout)."""
        shard = self._shard()
        if warmup:
            shard.discarded += 1
        else:
            shard.errors += 1

    def report(self, duration_s: float, **meta) -> LoadReport:
        """Reduce every shard into one :class:`LoadReport`."""
        with self._lock:
            shards = list(self._shards)
        latencies: List[float] = []
        statuses: Dict[int, int] = {}
        errors = discarded = 0
        for shard in shards:
            latencies.extend(shard.latencies)
            errors += shard.errors
            discarded += shard.discarded
            for status, count in shard.statuses.items():
                statuses[status] = statuses.get(status, 0) + count
        # 5xx are errors too (the server contract says they never
        # happen; if one does, the SLO gate must see it).
        errors += sum(
            count for status, count in statuses.items() if status >= 500
        )
        requests = sum(statuses.values())
        latencies.sort()
        quantile = (
            (lambda q: nearest_rank(latencies, q)) if latencies else None
        )
        return LoadReport(
            requests=requests,
            duration_s=duration_s,
            throughput_rps=requests / duration_s if duration_s > 0 else 0.0,
            statuses=statuses,
            errors=errors,
            shed=statuses.get(429, 0),
            latency_p50_s=quantile(0.50) if quantile else None,
            latency_p95_s=quantile(0.95) if quantile else None,
            latency_p99_s=quantile(0.99) if quantile else None,
            latency_max_s=latencies[-1] if latencies else None,
            warmup_discarded=discarded,
            **meta,
        )
