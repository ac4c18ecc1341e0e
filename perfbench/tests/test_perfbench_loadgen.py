"""Tests of the benchmark's load generator and latency statistics."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from perfbench.loadgen import (
    LoopResult,
    RawClient,
    closed_loop,
    percentile,
    request_bytes,
    windowed,
)
from perfbench.workloads import (
    CLIENTS,
    P95_CHUNK,
    STREAM_BLOCK,
    VALUE_SPAN,
    chunked_p95,
    explore_value,
    request_streams,
)


def test_explore_values_are_distinct_and_share_one_band():
    # the first and the last requests of an early and a late loop
    indices = [
        (loop * CLIENTS + client) * STREAM_BLOCK + i
        for loop in (0, 1, 40)
        for client in range(CLIENTS)
        for i in (*range(500), STREAM_BLOCK - 1)
    ]
    values = [explore_value(i) for i in indices]
    assert len(set(values)) == len(values)
    early = [v for i, v in zip(indices, values) if i < 2 * STREAM_BLOCK]
    late = [v for i, v in zip(indices, values) if i >= 80 * STREAM_BLOCK]
    # a late loop draws from the same band as the first, not above it
    for group in (early, late):
        assert 0.1 * VALUE_SPAN > min(group) >= 0
        assert 0.9 * VALUE_SPAN < max(group) < VALUE_SPAN
    paths = {s().split(b" ")[1] for s in request_streams(["u"], 1, 0) for _ in range(50)}
    assert len(paths) == 50 * CLIENTS


def test_percentile_needs_ten_samples_beyond_it():
    # nearest rank of p99 over n samples is ceil(0.99 n): 1000 samples
    # leave exactly ten beyond it, 999 leave nine
    assert percentile(sorted(range(1000)), 0.99) == 989
    assert percentile(sorted(range(999)), 0.99) is None
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile(list(range(19)), 0.5) is None
    assert percentile([], 0.5) is None


def test_chunked_p95_is_a_mean_over_chunks():
    slow_then_fast = [1.0] * P95_CHUNK + [0.001] * (2 * P95_CHUNK)
    assert chunked_p95(slow_then_fast) == pytest.approx((1.0 + 2 * 0.001) / 3)
    # a short remainder joins the last chunk instead of making its own
    assert chunked_p95([0.002] * (2 * P95_CHUNK + 50)) == pytest.approx(0.002)
    assert chunked_p95([0.5] * (P95_CHUNK - 1)) is None


def test_windowed_splits_completions_into_equal_windows():
    result = LoopResult(
        latencies=[0.1, 0.2, 0.3, 0.4],
        done=[10.1, 10.9, 11.5, 12.9],
        start=10.0,
        wall=3.0,
    )
    windows = windowed(result, 1.0)
    assert [qps for qps, _ in windows] == [2.0, 1.0, 1.0]
    assert [lat for _, lat in windows] == [[0.1, 0.2], [0.3], [0.4]]


class FragmentingServer:
    """Keep-alive HTTP stub that dribbles each response out in pieces.

    The head is split mid-line and the body is sent in several chunks
    with pauses in between, so the client must reassemble a response
    across many ``recv`` calls.  ``close_after`` answers that many
    requests per connection, the last with ``Connection: close``.
    """

    def __init__(self, body: bytes, close_after: int | None = None):
        self.body = body
        self.close_after = close_after
        self.connections = 0
        self.requests = 0
        self.lock = threading.Lock()
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        buf = b""
        served = 0
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    buf += chunk
                _, buf = buf.split(b"\r\n\r\n", 1)
                served += 1
                with self.lock:
                    self.requests += 1
                closing = self.close_after is not None and served >= self.close_after
                head = (
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: " + str(len(self.body)).encode() + b"\r\n"
                    b"Connection: " + (b"close" if closing else b"keep-alive")
                    + b"\r\n\r\n"
                )
                message = head + self.body
                for piece in (message[:7], message[7:30], message[30:len(head) + 3],
                              message[len(head) + 3:-5], message[-5:]):
                    conn.sendall(piece)
                    time.sleep(0.002)
                if closing:
                    return

    def close(self):
        self.sock.close()


def test_client_reassembles_fragmented_responses_on_one_connection():
    body = b'{"answer":' + b"7" * 300 + b"}"
    server = FragmentingServer(body)
    client = RawClient("127.0.0.1", server.port)
    try:
        for _ in range(5):
            status, got = client.get(request_bytes("/v1/healthz"))
            assert (status, got) == (200, body)
    finally:
        client.close()
        server.close()
    assert server.requests == 5
    assert server.connections == 1
    assert client.connects == 1


def test_client_reconnects_after_connection_close():
    server = FragmentingServer(b"{}", close_after=2)
    client = RawClient("127.0.0.1", server.port)
    try:
        for _ in range(5):
            assert client.get(request_bytes("/x")) == (200, b"{}")
    finally:
        client.close()
        server.close()
    assert client.connects == 3
    assert server.connections == 3


def test_closed_loop_counts_every_request_on_keep_alive_connections():
    server = FragmentingServer(b'{"ok":true}')
    request = request_bytes("/v1/healthz")
    try:
        result = closed_loop(
            "127.0.0.1", server.port, [lambda: request, lambda: request], 0.3
        )
    finally:
        server.close()
    assert result.failed == 0
    assert result.attempted == len(result.latencies) == len(result.done) > 0
    assert result.connects == server.connections == 2
    assert result.attempted == server.requests
    # past its seconds, a loop reads on until it has its minimum
    server = FragmentingServer(b"{}")
    try:
        result = closed_loop(
            "127.0.0.1", server.port, [lambda: request, lambda: request], 0.0, 25
        )
    finally:
        server.close()
    assert result.failed == 0
    assert 25 <= result.attempted == len(result.latencies) <= 30
