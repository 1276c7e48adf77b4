"""Open- and closed-loop HTTP load generators of ``serve-live``.

Both generators use exactly two threads, each owning one keep-alive
connection, so the client never needs more than the
two CPUs the benchmark host has.  The open loop places request ``k``
at ``start + k / rate`` and times it from that *due* time, so a stall
in the server also charges the requests queued behind it; how late
each send actually went out is recorded separately, so a client that
cannot keep its schedule is visible instead of silently lowering the
offered load.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: The only 404 a workload may see: a spot the history has no day for
#: yet (early in the replay, before that spot's first flush).
ALLOWED_404 = b"spot unknown to the history"


def route_of(path: str) -> str:
    """The server's route name of a request path (``http.request``
    spans carry the same names)."""
    parts = path.partition("?")[0].strip("/").split("/")
    if len(parts) == 4 and parts[:2] == ["v1", "spots"]:
        return "spot_history" if parts[3] == "history" else "spot_slots"
    if len(parts) == 3 and parts[:2] == ["v1", "history"]:
        return f"history_{parts[2]}"
    if len(parts) == 2 and parts[0] == "v1":
        return parts[1]
    return "unknown"


def acceptable(route: str, status: int, body: bytes, degraded: bool) -> bool:
    """The output check of one answer: 200/304 that is not a degraded
    fallback, or the one expected 404 on ``spot_history``."""
    if status in (200, 304):
        return not degraded
    return status == 404 and route == "spot_history" and ALLOWED_404 in body


@dataclass
class Sample:
    """One request: route, outcome and its three clock readings."""

    route: str
    status: int  # 0 on a transport error or timeout
    ok: bool
    due: float
    sent: float
    done: float

    @property
    def from_due_s(self) -> float:
        return self.done - self.due

    @property
    def from_send_s(self) -> float:
        return self.done - self.sent

    @property
    def lateness_s(self) -> float:
        return self.sent - self.due


class _Client:
    """One keep-alive HTTP/1.1 connection on a raw socket.

    The request bytes are built once per path and the response is cut
    by ``Content-Length`` (the server always sends one), so the client
    spends as little of the shared CPUs as possible per request.
    Reconnects after a failure.
    """

    def __init__(self, host: str, port: int, timeout_s: float):
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self.sock: Optional[socket.socket] = None
        self.buf = b""
        self._requests: Dict[str, bytes] = {}

    def _request(self, path: str) -> bytes:
        raw = self._requests.get(path)
        if raw is None:
            raw = self._requests[path] = (
                f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode()
            )
        return raw

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def get(self, path: str):
        """``(status, body, degraded)``; status 0 on transport failure."""
        try:
            if self.sock is None:
                self.sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
                self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.buf = b""
            self.sock.sendall(self._request(path))
            while (end := self.buf.find(b"\r\n\r\n")) < 0:
                self._fill()
            head = self.buf[:end].decode("latin-1").split("\r\n")
            status = int(head[0].split(" ", 2)[1])
            headers = {}
            for line in head[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            size = int(headers.get("content-length", "0"))
            while len(self.buf) < end + 4 + size:
                self._fill()
            body = self.buf[end + 4:end + 4 + size]
            self.buf = self.buf[end + 4 + size:]
        except (OSError, ValueError, IndexError):
            self.close()
            return 0, b"", False
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, body, "x-degraded" in headers

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def _run_threads(target, n: int) -> None:
    threads = [
        threading.Thread(target=target, args=(i,), name=f"perfbench-load-{i}")
        for i in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    host: str,
    port: int,
    plan: Sequence[str],
    rate: float,
    duration_s: float,
    senders: int = 2,
    timeout_s: float = 5.0,
) -> List[Sample]:
    """Send ``rate * duration_s`` requests on a fixed schedule.

    Sender ``j`` owns requests ``j, j + senders, ...`` of the global
    schedule and walks ``plan`` with the same stride.
    """
    total = int(rate * duration_s)
    start = time.perf_counter() + 0.05
    out: List[List[Sample]] = [[] for _ in range(senders)]

    def work(index: int) -> None:
        client = _Client(host, port, timeout_s)
        samples = out[index]
        try:
            for k in range(index, total, senders):
                due = start + k / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                path = plan[k % len(plan)]
                route = route_of(path)
                sent = time.perf_counter()
                status, body, degraded = client.get(path)
                done = time.perf_counter()
                samples.append(
                    Sample(
                        route, status, acceptable(route, status, body, degraded),
                        due, sent, done,
                    )
                )
        finally:
            client.close()

    _run_threads(work, senders)
    return sorted((s for part in out for s in part), key=lambda s: s.due)


def closed_loop(
    host: str,
    port: int,
    plan: Sequence[str],
    duration_s: float,
    connections: int = 2,
    timeout_s: float = 5.0,
) -> List[Sample]:
    """Back-to-back requests on ``connections`` connections for
    ``duration_s``; each sample's due time is its send time."""
    deadline = time.perf_counter() + duration_s
    out: List[List[Sample]] = [[] for _ in range(connections)]

    def work(index: int) -> None:
        client = _Client(host, port, timeout_s)
        samples = out[index]
        k = index
        try:
            while True:
                sent = time.perf_counter()
                if sent >= deadline:
                    break
                path = plan[k % len(plan)]
                k += connections
                route = route_of(path)
                status, body, degraded = client.get(path)
                done = time.perf_counter()
                samples.append(
                    Sample(
                        route, status, acceptable(route, status, body, degraded),
                        sent, sent, done,
                    )
                )
        finally:
            client.close()

    _run_threads(work, connections)
    return [s for part in out for s in part]
