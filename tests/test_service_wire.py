"""The HTTP reader over a real socket: line and header limits, the
keep-alive rules, pipelining, requests that arrive a byte at a time and
clients that hang up (``docs/service.md``, "HTTP")."""

import re
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import TimeSlotGrid
from repro.service import QueueStateServer, SnapshotStore
from repro.service.http import MAX_HEADERS, MAX_LINE
from tests.test_service import make_result, make_spot


@pytest.fixture(scope="module")
def server():
    store = SnapshotStore([make_spot()], TimeSlotGrid(0.0, 86400.0, 1800.0))
    store.apply([make_result(slot=0)])
    server = QueueStateServer(store, port=0)
    server.start()
    yield server
    server.stop()


def connect(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def get(path: str, version: str = "HTTP/1.1", *headers: str) -> bytes:
    lines = [f"GET {path} {version}", "Host: x", *headers, "", ""]
    return "\r\n".join(lines).encode()


def read_response(sock: socket.socket, buffer: bytes = b""):
    """``(status, headers, body, rest)`` of the next response on
    ``sock``; ``rest`` is what arrived after it."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before a full response head"
        buffer += chunk
    head, _, buffer = buffer.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    size = int(headers["content-length"])
    while len(buffer) < size:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside a body"
        buffer += chunk
    status = int(status_line.split(" ", 2)[1])
    assert status_line.startswith("HTTP/1.1 ")
    return status, headers, buffer[:size], buffer[size:]


def read_to_close(sock: socket.socket) -> bytes:
    """Everything until the server closes; a reset after the answer
    (the server closed with request bytes still unread) counts as a
    close."""
    data = b""
    try:
        while chunk := sock.recv(65536):
            data += chunk
    except ConnectionResetError:
        pass
    return data


def send_and_read(server, request: bytes, half_close: bool) -> bytes:
    """Send ``request`` (then end the client's side if ``half_close``);
    every byte the server sends back before it closes."""
    with connect(server) as sock:
        try:
            sock.sendall(request)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server answered and closed before all was sent
        return read_to_close(sock)


def answer_and_close(server, request: bytes):
    """Send ``request``; the one response, checked to be the last
    thing before the server closed.  The client keeps its side open,
    so a server that does not close fails on the read timeout."""
    data = send_and_read(server, request, half_close=False)
    status, headers, body, rest = read_response(_NoSocket(), data)
    assert rest == b""
    assert headers["connection"] == "close"
    return status, headers, body


class _NoSocket:
    """A socket with nothing more to read (for parsing a buffer)."""

    @staticmethod
    def recv(_size):
        return b""


class TestLimits:
    def test_request_line_of_exactly_the_limit_is_read(self, server):
        prefix, suffix = b"GET /", b" HTTP/1.1\r\n"
        line = prefix + b"a" * (MAX_LINE - len(prefix) - len(suffix)) + suffix
        assert len(line) == MAX_LINE
        with connect(server) as sock:
            sock.sendall(line + b"Host: x\r\n\r\n")
            status, _, body, _ = read_response(sock)
        assert status == 404
        assert b"no such endpoint" in body

    def test_request_line_over_the_limit_is_414(self, server):
        request = get("/" + "a" * MAX_LINE)
        status, _, _ = answer_and_close(server, request)
        assert status == 414

    def test_header_line_over_the_limit_is_431(self, server):
        request = get("/v1/healthz", "HTTP/1.1", "X-Big: " + "a" * MAX_LINE)
        status, _, _ = answer_and_close(server, request)
        assert status == 431

    def test_hundred_headers_are_read(self, server):
        headers = [f"X-H{i}: {i}" for i in range(MAX_HEADERS - 1)]
        with connect(server) as sock:
            sock.sendall(get("/v1/healthz", "HTTP/1.1", *headers))
            status, _, _, _ = read_response(sock)
        assert status == 200

    def test_hundred_and_first_header_is_431(self, server):
        headers = [f"X-H{i}: {i}" for i in range(MAX_HEADERS)]
        status, _, _ = answer_and_close(
            server, get("/v1/healthz", "HTTP/1.1", *headers)
        )
        assert status == 431

    @pytest.mark.parametrize(
        "line",
        [
            b"\r\n",
            b"GET\r\n",
            b"GET /v1/healthz\r\n",
            b"GET /v1/healthz HTTP/1.1 extra\r\n",
            b"GET /v1/healthz FTP/1.1\r\n",
            b"GET /v1/healthz HTTP/1.x\r\n",
            b"GET /v1/healthz HTTP/0.9\r\n",
        ],
    )
    def test_malformed_request_line_is_400(self, server, line):
        status, _, body = answer_and_close(server, line + b"Host: x\r\n\r\n")
        assert status == 400
        assert b"error" in body


class TestKeepAlive:
    def test_http10_closes_after_the_answer(self, server):
        status, headers, _ = answer_and_close(
            server, get("/v1/healthz", "HTTP/1.0")
        )
        assert status == 200
        assert headers["content-type"] == "application/json"

    def test_http10_keep_alive_stays_open(self, server):
        request = get("/v1/healthz", "HTTP/1.0", "Connection: keep-alive")
        with connect(server) as sock:
            for _ in range(2):
                sock.sendall(request)
                status, headers, _, rest = read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert rest == b""

    def test_http11_stays_open_by_default(self, server):
        with connect(server) as sock:
            for _ in range(3):
                sock.sendall(get("/v1/spots"))
                status, headers, _, rest = read_response(sock)
                assert status == 200
                assert "connection" not in headers
                assert rest == b""

    def test_http11_honours_connection_close(self, server):
        status, _, _ = answer_and_close(
            server, get("/v1/spots", "HTTP/1.1", "Connection: close")
        )
        assert status == 200

    def test_rejections_close_the_connection(self, server):
        status, headers, _ = answer_and_close(
            server, b"POST /v1/spots HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 405
        assert headers["allow"] == "GET"


class TestFraming:
    def test_pipelined_gets_are_answered_in_order(self, server):
        with connect(server) as sock:
            sock.sendall(get("/v1/spots") + get("/v1/nope") + get("/v1/healthz"))
            first, headers, _, rest = read_response(sock)
            second, _, body, rest = read_response(sock, rest)
            third, _, _, rest = read_response(sock, rest)
        assert (first, second, third) == (200, 404, 200)
        assert headers["etag"] == '"1"'
        assert b"/v1/nope" in body
        assert rest == b""

    def test_request_sent_one_byte_per_send_is_answered(self, server):
        with connect(server) as sock:
            for byte in get("/v1/spots", "HTTP/1.1", 'If-None-Match: "1"'):
                sock.send(bytes([byte]))
            status, headers, body, _ = read_response(sock)
        assert status == 304
        assert headers["etag"] == '"1"'
        assert body == b""

    def test_client_hanging_up_mid_headers_leaves_the_listener_serving(
        self, server
    ):
        for partial in (b"GET /v1/spots HTTP/1.1\r\nHost:", b"GET /v1/sp"):
            with connect(server) as sock:
                sock.sendall(partial)
        with connect(server) as sock:
            sock.sendall(get("/v1/healthz"))
            status, _, _, _ = read_response(sock)
        assert status == 200

    def test_every_answer_carries_a_date(self, server):
        with connect(server) as sock:
            sock.sendall(get("/v1/healthz"))
            _, headers, _, _ = read_response(sock)
        assert re.fullmatch(
            r"[A-Z][a-z]{2}, \d{2} [A-Z][a-z]{2} \d{4} \d{2}:\d{2}:\d{2} GMT",
            headers["date"],
        )


class TestLifecycle:
    def test_stop_without_start_releases_the_socket(self):
        store = SnapshotStore([make_spot()], TimeSlotGrid(0.0, 3600.0, 1800.0))
        server = QueueStateServer(store, port=0)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        with pytest.raises(OSError):
            socket.create_connection((server.host, server.port), timeout=1.0)

    def test_stop_twice(self):
        store = SnapshotStore([make_spot()], TimeSlotGrid(0.0, 3600.0, 1800.0))
        server = QueueStateServer(store, port=0)
        server.start()
        server.stop()
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection((server.host, server.port), timeout=1.0)


_STATUS_LINE = re.compile(rb"HTTP/\d\.\d (\d{3}) ")


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=4096),
        st.lists(
            st.sampled_from(
                [b"GET", b"POST", b" ", b"/v1/spots", b"/v1/healthz", b"?",
                 b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"\r\n", b"\n",
                 b":", b"Connection", b"close", b"keep-alive",
                 b"If-None-Match", b'"1"', b"\x00", b"\xff"]
            ),
            max_size=64,
        ).map(b"".join),
    )
)
def test_arbitrary_bytes_never_get_a_5xx(server, request_bytes):
    data = send_and_read(server, request_bytes, half_close=True)
    for line in data.split(b"\r\n"):
        match = _STATUS_LINE.match(line)
        if match:
            assert int(match.group(1)) < 500, data
    with connect(server) as sock:
        sock.sendall(get("/v1/healthz"))
        status, _, _, _ = read_response(sock)
    assert status == 200
