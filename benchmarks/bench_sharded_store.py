"""Sharded-store write path: router transactions and rebalancing.

Three questions the storage layer must answer with numbers:

1. **Write scaling** — the same bulk workload (multi-user
   ``store_sessions`` ingest + full ``upsert_cells`` write-back)
   against 1/2/4 shards, each batch one router transaction (SQLite's
   multi-database commit when it spans shards).  Identity is asserted
   before any timing: every shard count's ``contents_digest()`` must
   be byte-identical.
2. **Concurrent writers** — N threads, each with its *own* store
   connection, interleaving claim → upsert → release over a shared
   sharded store with shard affinity; the drained store must equal the
   single-writer digest.
3. **Rebalance** — migrate the populated store across shard counts and
   back; digest-invariant, and the cost is reported.

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_sharded_store.py
        [--quick] [--smoke] [--json PATH]

``--quick`` shrinks the workload for CI; ``--smoke`` runs only the
identity assertions (CI's shard-stress step); ``--json`` writes
timings for artifact upload.  The script reports the cores available,
since concurrent writers on distinct shards overlap only on real cores.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
import zlib
from pathlib import Path

import numpy as np

from repro.core import Candidate, CandidateMetrics
from repro.data import lending_schema
from repro.db import CandidateStore

FPS_OLD = {0: "old-0", 1: "old-1", 2: "old-2", 3: "old-3"}
FPS_NEW = {0: "new-0", 1: "new-1", 2: "new-2", 3: "new-3"}


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def cell_candidates(schema, user_id: str, t: int, k: int):
    """Deterministic per-cell candidates — the digest must not depend on
    who writes a cell, so the content is a pure function of the cell."""
    seed = zlib.crc32(f"{user_id}:{t}".encode())
    rng = np.random.default_rng(seed)
    return [
        Candidate(
            rng.uniform(0.0, 10.0, size=len(schema)),
            t,
            CandidateMetrics(
                diff=float(seed % 11) + 0.1 * j, gap=seed % 4, confidence=0.5
            ),
        )
        for j in range(k)
    ]


def make_sessions(schema, n_users: int, T: int, k: int):
    base = np.arange(len(schema), dtype=float)
    return [
        (
            f"user-{i:04d}",
            np.vstack([base + i + t for t in range(T)]),
            [
                c
                for t in range(T)
                for c in cell_candidates(schema, f"user-{i:04d}", t, k)
            ],
        )
        for i in range(n_users)
    ]


def ingest(store, sessions) -> float:
    start = time.perf_counter()
    store.store_sessions(sessions, fingerprints=FPS_OLD)
    return time.perf_counter() - start


def writeback(store, schema, sessions, T: int, k: int) -> float:
    """Full upsert pass: every cell recomputed, one bulk call (the
    refresh write-back shape; spans every shard → one multi-database commit)."""
    cells = [
        (uid, t, cell_candidates(schema, uid, t, k))
        for uid, _, _ in sessions
        for t in range(T)
    ]
    start = time.perf_counter()
    store.upsert_cells(cells, fingerprints=FPS_NEW)
    return time.perf_counter() - start


def drain_threads(schema, path, n_writers: int, claim_batch: int = 4) -> float:
    """N threads with independent store connections drain the stale
    ledger (claim → deterministic recompute → upsert → release)."""
    failures: list = []

    def worker(index: int) -> None:
        store = CandidateStore(schema, path)
        prefer = store.backend.schemas()[index % len(store.backend.schemas())]
        try:
            while True:
                claimed = store.claim_stale_cells(
                    FPS_NEW, f"w{index}", limit=claim_batch,
                    lease_seconds=120.0, prefer_schema=prefer,
                )
                if not claimed:
                    if not store.has_stale_cells(FPS_NEW):
                        break
                    time.sleep(0.002)
                    continue
                store.upsert_cells(
                    [
                        (u, t, cell_candidates(schema, u, t, 6))
                        for u, t in claimed
                    ],
                    fingerprints=FPS_NEW,
                )
                store.release_cells(f"w{index}", claimed)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)
        finally:
            store.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_writers)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if failures:
        raise failures[0]
    return elapsed


def build_store(schema, path, n_shards, sessions) -> str:
    with CandidateStore(
        schema, path, backend="sharded", n_shards=n_shards
    ) as store:
        store.store_sessions(sessions, fingerprints=FPS_OLD)
        return store.contents_digest()


SHARD_COUNTS = (1, 2, 4)


def run_identity(tmp: Path, schema, sessions, T: int, k: int) -> str:
    """Ingest + write-back give one digest at every shard count, and
    rebalancing leaves it unchanged."""
    digests = {}
    for n_shards in SHARD_COUNTS:
        path = tmp / f"id-{n_shards}shard.db"
        with CandidateStore(
            schema, path, backend="sharded", n_shards=n_shards
        ) as store:
            store.store_sessions(sessions, fingerprints=FPS_OLD)
            writeback(store, schema, sessions, T, k)
            digests[n_shards] = store.contents_digest()
    assert len(set(digests.values())) == 1, (
        f"write path diverged across shard counts: {digests}"
    )
    with CandidateStore(schema, tmp / "id-4shard.db") as store:
        store.rebalance(2)
        assert store.contents_digest() == digests[4]
        store.rebalance(6)
        assert store.contents_digest() == digests[4]
    return digests[4]


def run_scaling(tmp: Path, schema, sessions, T: int, k: int) -> dict:
    timings: dict = {}
    reference = None
    for n_shards in SHARD_COUNTS:
        label = f"{n_shards}shard"
        path = tmp / f"scale-{label}.db"
        with CandidateStore(
            schema, path, backend="sharded", n_shards=n_shards
        ) as store:
            timings[f"ingest_{label}"] = ingest(store, sessions)
            timings[f"writeback_{label}"] = writeback(
                store, schema, sessions, T, k
            )
            digest = store.contents_digest()
        if reference is None:
            reference = digest
        assert digest == reference, f"{label} diverged from reference"
    return timings


def run_concurrency(tmp: Path, schema, sessions, T: int) -> dict:
    timings: dict = {}
    reference = None
    for n_writers in (1, 2, 4):
        path = tmp / f"conc-{n_writers}.db"
        build_store(schema, path, 4, sessions)
        timings[f"writers_{n_writers}"] = drain_threads(
            schema, path, n_writers
        )
        with CandidateStore(schema, path) as store:
            assert not store.has_stale_cells(FPS_NEW)
            digest = store.contents_digest()
        if reference is None:
            reference = digest
        assert digest == reference, (
            f"{n_writers}-writer drain diverged from the 1-writer drain"
        )
    return timings


def run_rebalance_timing(tmp: Path, schema, sessions) -> dict:
    path = tmp / "rebal.db"
    before = build_store(schema, path, 4, sessions)
    timings: dict = {}
    with CandidateStore(schema, path) as store:
        for target in (2, 8, 4):
            start = time.perf_counter()
            outcome = store.rebalance(target)
            timings[f"rebalance_to_{target}"] = time.perf_counter() - start
            timings[f"moved_users_to_{target}"] = outcome["moved_users"]
            assert store.contents_digest() == before
    return timings


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-smoke workload sizes"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="identity assertions only (fast)",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument(
        "--json", default=None, help="write timings JSON to this path"
    )
    args = parser.parse_args()

    quick = args.quick or args.smoke
    n_users = args.users or (40 if args.smoke else 120 if args.quick else 400)
    T = 2 if quick else 4
    k = 4 if quick else 8
    cores = available_cores()

    schema = lending_schema()
    sessions = make_sessions(schema, n_users, T, k)
    print(
        f"sharded-store benchmark (users={n_users}, T={T}, k={k},"
        f" cores available: {cores})"
    )

    import tempfile

    results: dict = {"users": n_users, "T": T, "k": k, "cores": cores,
                     "quick": args.quick}
    with tempfile.TemporaryDirectory(prefix="bench-sharded-") as tmpname:
        tmp = Path(tmpname)
        digest = run_identity(tmp, schema, sessions, T, k)
        print(
            "verified: 1/2/4-shard writes and rebalance all byte-identical"
            f" (digest {digest[:16]}…)"
        )
        results["identity"] = "ok"
        if args.smoke:
            print("smoke mode: identity assertions only, no timings")
        else:
            scaling = run_scaling(tmp, schema, sessions, T, k)
            results.update(scaling)
            for n_shards in SHARD_COUNTS:
                label = f"{n_shards}shard"
                print(
                    f"{label:7s} ingest {scaling[f'ingest_{label}'] * 1e3:8.1f} ms"
                    f"   writeback {scaling[f'writeback_{label}'] * 1e3:8.1f} ms"
                )
            concurrency = run_concurrency(tmp, schema, sessions, T)
            results.update(concurrency)
            single = concurrency["writers_1"]
            for n_writers in (1, 2, 4):
                elapsed = concurrency[f"writers_{n_writers}"]
                print(
                    f"concurrent writers x{n_writers}: {elapsed * 1e3:8.1f} ms"
                    f"   speedup {single / elapsed:5.2f}x"
                )
            rebal = run_rebalance_timing(tmp, schema, sessions)
            results.update(rebal)
            print(
                "rebalance 4->2->8->4:"
                f" {rebal['rebalance_to_2'] * 1e3:.1f} /"
                f" {rebal['rebalance_to_8'] * 1e3:.1f} /"
                f" {rebal['rebalance_to_4'] * 1e3:.1f} ms"
                " (digest invariant)"
            )

    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2))
        print(f"timings written to {path}")


if __name__ == "__main__":
    main()
