"""Serving-tier load benchmark: cached HTTP reads vs per-request SQL.

The workload ROADMAP item 2 targets: N concurrent readers requesting
rendered per-user insight bundles from the HTTP serving tier
(:mod:`repro.serve`) while the store sits under them — idle, and then
with a live refresh epoch rewriting cells.

Protocol (identity first, timing second):

1. **Answer identity** — for every user, the HTTP bundle must be
   byte-identical to the direct path (``InsightEngine`` over the store's
   own connection + the shared protocol serialization).  Asserted before
   any timing, with the cache both cold and warm.
2. **Baseline** — the same server with the cache *disabled*: every
   request renders from SQL through a replica connection (the
   pre-serving-tier cost, minus process startup).
3. **Warm cache** — cache enabled and primed; requests validate one
   fingerprint ledger read and return the rendered entry.
4. **Live refresh** — readers hammer the server while ``refresh()``
   rewrites cells in the main thread; every response collected during
   the epoch must be byte-identical to either the pre- or the
   post-refresh expected bundle for its user (the consistent-snapshot
   guarantee: never a torn mix, never a stale ledger), and identity is
   re-asserted against fresh direct computation afterwards.

Reported: p50/p99 latency and aggregate QPS per mode, and the
warm-vs-baseline p50 speedup (target: >= 5x at 32 readers).

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick|--smoke]

``--quick`` shrinks users/readers/requests for CI; ``--smoke`` shrinks
further and only warns (instead of failing) on the speedup target.
"""

from __future__ import annotations

import argparse
import http.client
import json
import socket
import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime
from repro.core.insights import InsightEngine
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    lending_schema,
    make_lending_dataset,
)
from repro.serve import InsightServer, bundle_payload, dumps
from repro.temporal import PerPeriodStrategy, lending_update_function

ALPHA = 0.8


def build_system(tmp: Path, T: int, n_users: int, n_per_year: int,
                 n_shards: int) -> JustInTime:
    schema = lending_schema()
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(T=T, strategy=PerPeriodStrategy(), k=5, max_iter=10,
                    random_state=0),
        domain_constraints=lending_domain_constraints(schema),
        store_path=str(tmp / "store.db"),
        store_backend="sharded",
        n_shards=n_shards,
    )
    system.fit(make_lending_dataset(n_per_year=n_per_year, random_state=1))
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    users = [
        (f"user-{i:03d}",
         schema.clip(base * rng.uniform(0.8, 1.2, size=base.size)))
        for i in range(n_users)
    ]
    system.create_sessions(users)
    return system


def default_feature(schema) -> str:
    return schema.names[int(schema.mutable_indices()[0])]


def direct_bundle(system, user: str, feature: str) -> str:
    """The reference answer: InsightEngine over the store's own
    connection, serialized through the shared protocol module."""
    engine = InsightEngine(system.store, user, system.time_values)
    insights = {
        "q1": engine.ask("q1"),
        "q2": engine.ask("q2"),
        "q3": engine.ask("q3", feature=feature),
        "q4": engine.ask("q4"),
        "q5": engine.ask("q5"),
        "q6": engine.ask("q6", alpha=ALPHA),
    }
    return dumps(bundle_payload(
        user, insights, system.store.cell_fingerprints(user)
    ))


def http_get(conn: http.client.HTTPConnection, path: str) -> tuple[int, str]:
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, resp.read().decode()


def bundle_path(user: str, feature: str) -> str:
    return f"/insights?user={user}&feature={feature}&alpha={ALPHA}"


def assert_identity(server_port: int, system, users, feature: str) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", server_port)
    try:
        for user in users:
            expected = direct_bundle(system, user, feature)
            for label in ("cold", "warm"):
                status, body = http_get(conn, bundle_path(user, feature))
                assert status == 200, f"{user}: HTTP {status}: {body[:200]}"
                assert body == expected, (
                    f"{label} HTTP bundle differs from direct SQL for {user}"
                )
    finally:
        conn.close()


class RawClient:
    """Minimal keep-alive HTTP/1.1 client for load generation.

    ``http.client`` spends >100µs of pure Python per request; with
    readers co-located in the benchmark process that client-side work
    holds the GIL and becomes the measured bottleneck, the way a heavy
    load generator saturates its own host before the server.  The load
    phases therefore speak just enough HTTP to count — send the GET,
    find ``Content-Length``, read exactly that many body bytes — while
    the identity phases keep http.client's full protocol parsing.
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def get(self, request: bytes) -> tuple[int, str]:
        self.sock.sendall(request)
        while True:
            split = self.buf.find(b"\r\n\r\n")
            if split >= 0:
                break
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            self.buf += chunk
        head, rest = self.buf[:split], self.buf[split + 4:]
        status = int(head.split(None, 2)[1])
        at = head.lower().find(b"content-length:")
        length = int(head[at + 15:head.index(b"\r\n", at)])
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        self.buf = rest[length:]
        return status, rest[:length].decode()

    def close(self) -> None:
        self.sock.close()


def raw_request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


def load_generate(
    port: int, users, feature: str, n_readers: int, requests_per_reader: int,
    collect=None, stop_event: threading.Event | None = None,
) -> tuple[list[float], float]:
    """Hammer the bundle endpoint from ``n_readers`` keep-alive
    connections; returns (per-request latencies, wall seconds).

    With ``stop_event`` set, readers loop until it fires instead of
    counting requests (the during-refresh mode); ``collect`` receives
    every ``(user, body)`` for later identity validation.
    """
    latencies_per_reader: list[list[float]] = [[] for _ in range(n_readers)]
    errors: list[str] = []
    requests = {user: raw_request(bundle_path(user, feature)) for user in users}

    def reader(index: int) -> None:
        conn = RawClient(port)
        rng = np.random.default_rng(1000 + index)
        lat = latencies_per_reader[index]
        try:
            n = 0
            while True:
                if stop_event is not None:
                    if stop_event.is_set():
                        break
                elif n >= requests_per_reader:
                    break
                user = users[int(rng.integers(len(users)))]
                t0 = time.perf_counter()
                status, body = conn.get(requests[user])
                lat.append(time.perf_counter() - t0)
                if status != 200:
                    errors.append(f"HTTP {status}: {body[:200]}")
                    break
                if collect is not None:
                    collect((user, body))
                n += 1
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(repr(exc))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(n_readers)
    ]
    wall0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall0
    if errors:
        raise AssertionError(f"load generation failed: {errors[:3]}")
    return [x for lat in latencies_per_reader for x in lat], wall


def percentiles(latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "p99_ms": ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))] * 1e3,
    }


def make_drift(system, n_new: int) -> TemporalDataset:
    history = system.history
    start = float(np.floor(history.span[0]))
    at = start + 1 + 0.5  # inside the year backing time point 1
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(n_new)
    years = np.full(n_new, at)
    return TemporalDataset(X, generator.label(X, years), years, system.schema)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (CI)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny identity-focused run; speedup target"
                        " only warns")
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--readers", type=int, default=None)
    parser.add_argument("--json", default=None,
                        help="write timings JSON to this path")
    args = parser.parse_args()

    small = args.quick or args.smoke
    T = 2 if small else 4
    n_users = args.users or (6 if args.smoke else 10 if args.quick else 40)
    n_readers = args.readers or (8 if small else 32)
    n_per_year = 60 if small else 100
    baseline_reqs = 6 if args.smoke else 10 if args.quick else 25
    warm_reqs = 30 if args.smoke else 60 if args.quick else 250

    tmp = Path(tempfile.mkdtemp(prefix="bench_serving_"))
    print(f"serving benchmark (users={n_users}, T={T}, readers={n_readers})")
    system = build_system(tmp, T, n_users, n_per_year, n_shards=2)
    users = [f"user-{i:03d}" for i in range(n_users)]
    feature = default_feature(system.schema)

    # ---- identity (cold + warm cache), before any timing ----------------
    server = InsightServer(system.store, system.time_values,
                           cache_size=4 * n_users)
    server.start_background()
    assert_identity(server.port, system, users, feature)
    print(f"verified: {n_users} HTTP bundles byte-identical to direct SQL"
          " (cold and warm cache)")

    # ---- warm-cache timing (cache already primed by the identity pass) --
    warm_lat, warm_wall = load_generate(
        server.port, users, feature, n_readers, warm_reqs
    )
    warm = percentiles(warm_lat)
    warm["qps"] = len(warm_lat) / warm_wall
    stats = server._stats_payload()
    server.stop_background()

    # ---- baseline: same server, cache disabled (per-request direct SQL) -
    baseline_server = InsightServer(
        system.store, system.time_values, cache_enabled=False,
    )
    baseline_server.start_background()
    base_lat, base_wall = load_generate(
        baseline_server.port, users, feature, n_readers, baseline_reqs
    )
    base = percentiles(base_lat)
    base["qps"] = len(base_lat) / base_wall
    baseline_server.stop_background()

    # ---- live refresh: readers on, epoch draining in the main thread ---
    refresh_server = InsightServer(system.store, system.time_values,
                                   cache_size=4 * n_users)
    refresh_server.start_background()
    before = {u: direct_bundle(system, u, feature) for u in users}
    assert_identity(refresh_server.port, system, users, feature)
    collected: list[tuple[str, str]] = []
    collected_lock = threading.Lock()

    def collect(item):
        with collected_lock:
            collected.append(item)

    stop = threading.Event()
    refresh_lat: list[list[float]] = []
    reader_thread = threading.Thread(
        target=lambda: refresh_lat.append(load_generate(
            refresh_server.port, users, feature, n_readers, 0,
            collect=collect, stop_event=stop,
        )[0])
    )
    reader_thread.start()
    t0 = time.perf_counter()
    report = system.refresh(make_drift(system, n_per_year), warm_start=False)
    refresh_s = time.perf_counter() - t0
    time.sleep(0.1)  # let a few post-commit responses through
    stop.set()
    reader_thread.join()
    after = {u: direct_bundle(system, u, feature) for u in users}
    torn = sum(
        1 for user, body in collected
        if body != before[user] and body != after[user]
    )
    assert torn == 0, (
        f"{torn}/{len(collected)} responses during the refresh epoch were"
        " neither the pre- nor the post-refresh bundle (torn/stale read)"
    )
    assert_identity(refresh_server.port, system, users, feature)
    during = percentiles(refresh_lat[0]) if refresh_lat and refresh_lat[0] else {}
    refresh_server.stop_background()
    print(
        f"verified: {len(collected)} responses served during a live refresh"
        f" epoch ({report.cells_recomputed} cells rewritten) all match the"
        " pre- or post-refresh bundle exactly; identity re-held after"
    )

    speedup = base["p50_ms"] / warm["p50_ms"]
    print(f"baseline (no cache) p50 {base['p50_ms']:7.2f} ms  p99"
          f" {base['p99_ms']:7.2f} ms  {base['qps']:8.0f} qps")
    print(f"warm cache          p50 {warm['p50_ms']:7.2f} ms  p99"
          f" {warm['p99_ms']:7.2f} ms  {warm['qps']:8.0f} qps")
    if during:
        print(f"during refresh      p50 {during['p50_ms']:7.2f} ms  p99"
              f" {during['p99_ms']:7.2f} ms  (epoch took {refresh_s:.2f}s)")
    print(f"cache: {stats['cache']}")
    print(f"warm-cache p50 speedup vs per-request SQL: {speedup:.1f}x"
          f" (target >= 5x)")
    if speedup < 5.0:
        message = (f"warm-cache speedup {speedup:.2f}x is below the 5x"
                   " target")
        if args.smoke:
            print(f"WARNING: {message} (smoke run; not enforced)")
        else:
            raise AssertionError(message)

    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "users": n_users,
            "readers": n_readers,
            "T": T,
            "quick": args.quick,
            "smoke": args.smoke,
            "baseline": base,
            "warm": warm,
            "during_refresh": during,
            "refresh_epoch_s": refresh_s,
            "responses_validated_during_refresh": len(collected),
            "p50_speedup": speedup,
            "cache": stats["cache"],
        }, indent=2))
        print(f"timings written to {path}")


if __name__ == "__main__":
    main()
