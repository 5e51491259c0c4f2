"""Transport: every response leaves the handler in one socket write.

The handler's ``wfile`` is unbuffered, so a head written apart from its
body is two segments, and Nagle's algorithm holds the second until the
client's delayed ACK of the first (~40 ms on Linux). These tests pin
the one-write contract directly and by its effect on keep-alive
round trips.
"""

import http.client
import socket
import socketserver
import statistics
import threading
import time

import pytest

from repro.server import create_server


@pytest.fixture(scope="module")
def server():
    srv = create_server(scale=0.05, warm_artefacts=()).start()
    assert srv.state.ready.wait(timeout=180), srv.state.warm_error
    yield srv
    srv.stop()


@pytest.fixture
def writes(monkeypatch):
    """``{client address: [bytes written]}`` for every server write."""
    seen = {}
    lock = threading.Lock()
    original = socketserver._SocketWriter.write

    def counting_write(self, data):
        try:
            peer = self._sock.getpeername()
        except OSError:
            peer = None  # the client already closed
        with lock:
            seen.setdefault(peer, []).append(bytes(data))
        return original(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counting_write)
    return seen


@pytest.mark.parametrize("path, content_type", [
    ("/healthz", "application/json"),
    ("/query?kind=traceroute&count_by=country", "application/json"),
    ("/query?kind=web&records=10", "application/json"),
    ("/metrics", "text/plain"),
    ("/nope", "application/json"),
    ("/profile?seconds=0.1", "text/plain"),
])
def test_each_response_is_one_write(server, writes, path, content_type):
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=30)
    bodies = []
    try:
        for _ in range(2):  # the second request rides the keep-alive
            connection.request("GET", path)
            response = connection.getresponse()
            bodies.append(response.read())
            assert response.getheader("Content-Type").startswith(
                content_type)
        sent = writes[connection.sock.getsockname()]
    finally:
        connection.close()
    assert len(sent) == 2, [chunk[:40] for chunk in sent]
    for chunk, body in zip(sent, bodies):
        head, _, tail = chunk.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 ")
        assert tail == body


def test_profile_response_keeps_its_header_order(server, writes):
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=30)
    try:
        connection.request("GET", "/profile?seconds=0.1&interval_ms=5")
        response = connection.getresponse()
        response.read()
        (sent,) = writes[connection.sock.getsockname()]
    finally:
        connection.close()
    head = sent.partition(b"\r\n\r\n")[0].decode().split("\r\n")
    names = [line.split(":", 1)[0] for line in head[1:]]
    assert names == ["Server", "Date", "Content-Type", "Content-Length",
                     "X-Repro-Profile-Ticks"]
    assert int(response.getheader("X-Repro-Profile-Ticks")) >= 1


def test_events_preamble_is_one_write(server, writes):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
    try:
        sock.sendall(b"GET /events?max_events=1 HTTP/1.1\r\n"
                     b"Host: localhost\r\n\r\n")
        while sock.recv(65536):
            pass  # the server closes after max_events ticks
        sent = writes[sock.getsockname()]
    finally:
        sock.close()
    head, _, preamble = sent[0].partition(b"\r\n\r\n")
    assert b"text/event-stream" in head
    assert preamble.startswith(b"retry: 2000\n\nevent: hello\ndata: ")
    assert preamble.endswith(b"\n\n")
    assert all(chunk.startswith((b"event: tick\n", b": keepalive"))
               for chunk in sent[1:])


def test_http09_request_gets_a_bare_body(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
    try:
        sock.sendall(b"GET /healthz\r\n\r\n")
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    finally:
        sock.close()
    raw = b"".join(chunks)
    assert raw.startswith(b"{") and b"HTTP/" not in raw


def test_keep_alive_round_trips_do_not_stall(server):
    """Back-to-back GETs on one connection: no delayed-ACK floor.

    With the head and body in separate writes every round trip waits
    out the client's delayed-ACK timer (~40 ms); in one write the
    median is the server's compute time, well under a millisecond for
    this query on an idle host.
    """
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=30)
    round_trips = []
    try:
        for index in range(40):
            path = ("/healthz" if index % 2
                    else "/query?kind=traceroute&count_by=country")
            started = time.perf_counter()
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            round_trips.append(time.perf_counter() - started)
            assert response.status == 200
    finally:
        connection.close()
    assert statistics.median(round_trips) < 0.020, round_trips
