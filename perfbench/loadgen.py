"""Closed-loop HTTP load generation and latency statistics.

The serving workloads drive the server with a *closed* loop: each
client connection sends its next request only after the previous
response has been read in full.  On a small shared host an open loop at
a fixed rate measures the scheduler of the host more than the server
(its queue grows whenever the host stalls), while a closed loop over a
couple of keep-alive connections repeats from run to run.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "LoopResult",
    "RawClient",
    "closed_loop",
    "percentile",
    "request_bytes",
    "windowed",
]


def request_bytes(path: str) -> bytes:
    """One keep-alive HTTP/1.1 GET for ``path``."""
    return f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode("ascii")


def _header(head: bytes, name: bytes) -> bytes | None:
    """Value of header ``name`` (lower case) in a response head."""
    for line in head.split(b"\r\n")[1:]:
        key, sep, value = line.partition(b":")
        if sep and key.strip().lower() == name:
            return value.strip()
    return None


class RawClient:
    """Minimal keep-alive HTTP/1.1 client.

    ``http.client`` spends more pure Python per request than the server
    spends on a cache hit, so a load generator built on it measures
    itself.  This client sends the GET, reads the head, then reads
    exactly ``Content-Length`` body bytes, however the bytes are split
    across ``recv`` calls.  The connection is reused until the server
    answers ``Connection: close``; the next request then reconnects and
    counts in :attr:`connects`.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.sock: socket.socket | None = None
        self.buf = b""
        self.connects = 0

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buf = b""
        self.connects += 1
        return sock

    def _recv(self, sock: socket.socket, what: str) -> bytes:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"server closed the connection mid-{what}")
        return chunk

    def get(self, request: bytes) -> tuple[int, bytes]:
        """Send one request; returns ``(status, body)``."""
        sock = self.sock if self.sock is not None else self._connect()
        sock.sendall(request)
        buf = self.buf
        while True:
            split = buf.find(b"\r\n\r\n")
            if split >= 0:
                break
            buf += self._recv(sock, "head")
        head, rest = buf[:split], buf[split + 4 :]
        status = int(head.split(None, 2)[1])
        raw_length = _header(head, b"content-length")
        if raw_length is None:
            raise ConnectionError("response without Content-Length")
        length = int(raw_length)
        while len(rest) < length:
            rest += self._recv(sock, "body")
        self.buf = rest[length:]
        if (_header(head, b"connection") or b"").lower() == b"close":
            self.close()
        return status, rest[:length]

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buf = b""


def percentile(ordered: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile of ascending ``ordered`` samples.

    Returns ``None`` unless at least ten samples lie beyond the rank:
    a tail percentile read off fewer samples is one unlucky request,
    not a distribution.
    """
    n = len(ordered)
    if n == 0 or not 0.0 < q < 1.0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return ordered[rank - 1]


@dataclass
class LoopResult:
    """Outcome of one :func:`closed_loop` run."""

    #: per-request latency in seconds, successful requests only
    latencies: list[float] = field(default_factory=list)
    #: ``time.perf_counter()`` at which each of those requests completed
    done: list[float] = field(default_factory=list)
    #: requests sent (successful + failed)
    attempted: int = 0
    #: non-200 responses and socket errors
    failed: int = 0
    #: ``time.perf_counter()`` when the clients started, and wall seconds
    #: of the loop
    start: float = 0.0
    wall: float = 0.0
    #: CPU seconds this process spent during the loop (all threads)
    cpu: float = 0.0
    #: TCP connections opened by the clients
    connects: int = 0
    #: first few failure descriptions
    errors: list[str] = field(default_factory=list)


def closed_loop(
    host: str, port: int, streams, seconds: float, min_requests: int = 0
) -> LoopResult:
    """Run one closed-loop client per entry of ``streams`` for ``seconds``,
    and on until the clients together have sent ``min_requests``.

    Each stream is a zero-argument callable returning the next request's
    bytes.  A failed request (non-200 status or socket error) counts
    against :attr:`LoopResult.failed`; after a socket error the client
    reconnects and carries on.
    """
    result = LoopResult()
    lock = threading.Lock()
    barrier = threading.Barrier(len(streams) + 1)
    deadline = [0.0]
    # requests sent by all clients; a lost increment between threads
    # only lets the loop run a request longer
    sent = [0]

    def client(next_request) -> None:
        conn = RawClient(host, port)
        latencies: list[float] = []
        done: list[float] = []
        attempted = failed = 0
        errors: list[str] = []
        barrier.wait()
        end = deadline[0]
        clock = time.perf_counter
        try:
            while clock() < end or sent[0] < min_requests:
                request = next_request()
                sent[0] += 1
                attempted += 1
                t0 = clock()
                try:
                    status, body = conn.get(request)
                except OSError as exc:
                    failed += 1
                    errors.append(repr(exc))
                    conn.close()
                    continue
                t1 = clock()
                if status != 200:
                    failed += 1
                    errors.append(f"HTTP {status}: {body[:200]!r}")
                    continue
                latencies.append(t1 - t0)
                done.append(t1)
        finally:
            conn.close()
            with lock:
                result.latencies.extend(latencies)
                result.done.extend(done)
                result.attempted += attempted
                result.failed += failed
                result.connects += conn.connects
                result.errors.extend(errors[: max(0, 5 - len(result.errors))])

    threads = [threading.Thread(target=client, args=(s,)) for s in streams]
    for thread in threads:
        thread.start()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    deadline[0] = wall0 + float(seconds)
    barrier.wait()
    for thread in threads:
        thread.join()
    result.start = wall0
    result.wall = time.perf_counter() - wall0
    result.cpu = time.process_time() - cpu0
    return result


def windowed(result: LoopResult, seconds: float) -> list[tuple[float, list[float]]]:
    """Split a loop into equal consecutive windows of at least
    ``seconds`` each (one window when the loop is shorter): one
    ``(throughput, sorted latencies)`` pair per window.

    Medians over windows keep a few seconds of host slowdown inside a
    long loop from moving the loop's figures.
    """
    n = max(1, int(result.wall / seconds))
    width = result.wall / n
    buckets: list[list[float]] = [[] for _ in range(n)]
    for finished, latency in zip(result.done, result.latencies):
        buckets[min(n - 1, int((finished - result.start) / width))].append(latency)
    return [(len(b) / width, sorted(b)) for b in buckets]
