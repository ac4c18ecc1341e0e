"""Plan-set benchmark: identity contracts first, then selection timings.

Plan sets ride the same byte-identity contract as every other layer, so
the benchmark is gated on identity **before** a single timer starts:

1. **Digest identity** — the persisted store (candidates now carrying
   ``plan_rank`` / ``plan_quality`` / ``plan_min_dist``) produces the
   same ``contents_digest`` on sqlite, memory and sharded backends, and
   the fused engine's batched cross-cell selection matches the per-cell
   reference digest (``tests/cell_reference.py``) exactly.
2. **Legacy digest identity** — a store holding metadata-free rows (the
   pre-plan-set on-disk shape) digests byte-identically under the
   original formula, so historical digests stay comparable.
3. **Wire identity** — ``?plans=1`` and a plans-less request serve
   byte-identical bodies, both equal to the direct render path.
4. **Live refresh** — readers hammer ``?plans=3`` while a refresh epoch
   rewrites cells; every body must equal the pre- or post-refresh
   expected response (torn/stale count must be 0).

Timed after the gates:

* ``select_diverse_batch`` over stacked cells vs the per-cell
  ``diverse_order`` Python loop (the fused engine's selection path).
* vectorized ``min_pairwise_distance`` vs the former O(n^2) loop.

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_plan_sets.py [--quick|--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, Candidate, CandidateMetrics, JustInTime
from repro.core.diversity import diverse_order, min_pairwise_distance, select_diverse_batch
from repro.core.insights import InsightEngine
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    lending_schema,
    make_lending_dataset,
)
from repro.db import CandidateStore
from repro.serve import InsightServer, bundle_payload, dumps
from repro.temporal import PerPeriodStrategy, lending_update_function

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from cell_reference import reference_create_sessions  # noqa: E402

ALPHA = 0.8


def build_system(tmp: Path, *, backend: str, T: int, n_users: int,
                 n_per_year: int, n_shards: int = 2,
                 per_cell: bool = False) -> JustInTime:
    """A populated system; ``per_cell`` onboards its users through the
    per-cell reference instead of ``create_sessions``."""
    tmp.mkdir(parents=True, exist_ok=True)
    schema = lending_schema()
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(T=T, strategy=PerPeriodStrategy(), k=5, beam_width=6,
                    max_iter=8, patience=3, random_state=0),
        domain_constraints=lending_domain_constraints(schema),
        store_path=":memory:" if backend == "memory"
        else str(tmp / f"{backend}.db"),
        store_backend=backend,
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
    if per_cell:
        reference_create_sessions(system, users)
    else:
        system.create_sessions(users)
    return system


# --------------------------------------------------------- identity gates


def assert_digest_identity(tmp: Path, T: int, n_users: int,
                           n_per_year: int) -> str:
    """Gate 1: one digest across backends AND against the per-cell
    reference."""
    digests = {}
    for backend, per_cell in (
        ("sqlite", False),
        ("memory", False),
        ("sharded", False),
        ("sqlite", True),
    ):
        system = build_system(tmp / f"dig-{backend}-{per_cell}", backend=backend,
                              T=T, n_users=n_users, n_per_year=n_per_year,
                              per_cell=per_cell)
        digests[(backend, per_cell)] = system.store.contents_digest()
        system.store.close()
    assert len(set(digests.values())) == 1, (
        f"plan-set stores digest differently: {digests}"
    )
    return next(iter(digests.values()))


def legacy_digest(store: CandidateStore) -> str:
    """The pre-plan-set ``contents_digest`` formula, byte for byte."""
    digest = hashlib.sha256()
    feats = ", ".join(store.schema.names)
    for sql in (
        f"SELECT user_id, time, {feats}, model_fp FROM temporal_inputs"
        " ORDER BY user_id, time",
        f"SELECT user_id, time, {feats}, diff, gap, p, model_fp"
        " FROM candidates ORDER BY user_id, time, id",
        "SELECT user_id, profile, constraints FROM user_sessions"
        " ORDER BY user_id",
    ):
        for row in store.read(sql):
            digest.update(repr(tuple(row)).encode())
    return digest.hexdigest()


def assert_legacy_digest_identity() -> None:
    """Gate 2: metadata-free rows keep the historical digest bytes."""
    schema = lending_schema()
    base = schema.vector(john_profile())
    with CandidateStore(schema, backend="memory") as store:
        store.store_temporal_inputs(
            "legacy", np.vstack([base] * 3), fingerprints={0: "a", 1: "b"}
        )
        store.store_candidates("legacy", [
            Candidate(base, 0, CandidateMetrics(diff=1.0, gap=1, confidence=0.7)),
            Candidate(base, 1, CandidateMetrics(diff=0.5, gap=0, confidence=0.9)),
        ])
        assert store.contents_digest() == legacy_digest(store), (
            "metadata-free candidate rows no longer digest under the"
            " pre-plan-set formula"
        )


def default_feature(schema) -> str:
    return schema.names[int(schema.mutable_indices()[0])]


def direct_bundle(system, user: str, feature: str, plans: int = 1) -> str:
    engine = InsightEngine(system.store, user, system.time_values)
    insights = {
        "q1": engine.ask("q1", plans=plans),
        "q2": engine.ask("q2", plans=plans),
        "q3": engine.ask("q3", feature=feature, plans=plans),
        "q4": engine.ask("q4", plans=plans),
        "q5": engine.ask("q5", plans=plans),
        "q6": engine.ask("q6", alpha=ALPHA, plans=plans),
    }
    return dumps(bundle_payload(
        user, insights, system.store.cell_fingerprints(user)
    ))


def http_get(conn: http.client.HTTPConnection, path: str) -> tuple[int, str]:
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, resp.read().decode()


def bundle_path(user: str, feature: str, plans: int | None) -> str:
    path = f"/v1/insights?user={user}&feature={feature}&alpha={ALPHA}"
    if plans is not None:
        path += f"&plans={plans}"
    return path


def assert_wire_identity(port: int, system, users, feature: str) -> None:
    """Gate 3: plans-less == plans=1 == direct render, per user; and
    plans=3 bodies carry alternatives and match their direct render."""
    conn = http.client.HTTPConnection("127.0.0.1", port)
    with_alternatives = 0
    try:
        for user in users:
            expected = direct_bundle(system, user, feature)
            for plans in (None, 1):
                status, body = http_get(conn, bundle_path(user, feature, plans))
                assert status == 200, f"{user}: HTTP {status}: {body[:200]}"
                assert body == expected, (
                    f"plans={plans} bundle differs from the direct render"
                    f" for {user}"
                )
            assert "alternatives" not in expected
            status, body = http_get(conn, bundle_path(user, feature, 3))
            assert status == 200, f"{user}: HTTP {status}: {body[:200]}"
            assert body == direct_bundle(system, user, feature, plans=3), (
                f"plans=3 bundle differs from the direct render for {user}"
            )
            with_alternatives += '"alternatives"' in body
    finally:
        conn.close()
    # a user with no recourse (no candidates) legitimately has no
    # alternatives; the population as a whole must serve some
    assert with_alternatives, "no plans=3 bundle carried alternatives"


def make_drift(system, n_new: int) -> TemporalDataset:
    start = float(np.floor(system.history.span[0]))
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(n_new)
    years = np.full(n_new, start + 1 + 0.5)
    return TemporalDataset(X, generator.label(X, years), years, system.schema)


def live_refresh_gate(system, users, feature: str, n_readers: int) -> int:
    """Gate 4: hammer ``?plans=3`` during a refresh epoch; count bodies
    matching neither the pre- nor the post-refresh expected response."""
    server = InsightServer(system.store, system.time_values)
    server.start_background()
    try:
        before = {u: direct_bundle(system, u, feature, plans=3) for u in users}
        collected: list[tuple[str, str]] = []
        lock = threading.Lock()
        stop = threading.Event()
        errors: list[str] = []

        def reader(index: int) -> None:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            rng = np.random.default_rng(500 + index)
            try:
                while not stop.is_set():
                    user = users[int(rng.integers(len(users)))]
                    status, body = http_get(
                        conn, bundle_path(user, feature, 3)
                    )
                    if status != 200:
                        errors.append(f"HTTP {status}: {body[:200]}")
                        return
                    with lock:
                        collected.append((user, body))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(repr(exc))
            finally:
                conn.close()

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(n_readers)]
        for t in threads:
            t.start()
        system.refresh(make_drift(system, 40), warm_start=False)
        time.sleep(0.1)
        stop.set()
        for t in threads:
            t.join()
        assert not errors, f"plans=3 readers failed: {errors[:3]}"
        after = {u: direct_bundle(system, u, feature, plans=3) for u in users}
        torn = sum(1 for user, body in collected
                   if body != before[user] and body != after[user])
        assert torn == 0, (
            f"{torn}/{len(collected)} plans=3 responses during the refresh"
            " epoch matched neither the pre- nor the post-refresh body"
        )
        return len(collected)
    finally:
        server.stop_background()


# --------------------------------------------------------------- timings


def synth_cells(rng, n_cells: int, cell_size: int, d: int):
    sizes = [int(rng.integers(max(2, cell_size // 2), cell_size + 1))
             for _ in range(n_cells)]
    points = rng.normal(size=(sum(sizes), d))
    quality = rng.random(sum(sizes))
    return points, quality, sizes


def time_batch_selection(n_cells: int, cell_size: int, k: int,
                         repeats: int) -> dict[str, float]:
    rng = np.random.default_rng(3)
    points, quality, sizes = synth_cells(rng, n_cells, cell_size, d=4)
    offsets = np.r_[0, np.cumsum(sizes)]

    def per_cell():
        return [
            diverse_order(points[offsets[g]:offsets[g + 1]],
                          quality[offsets[g]:offsets[g + 1]], k)
            for g in range(n_cells)
        ]

    # identity before timing, every repeat uses verified-equal paths
    assert select_diverse_batch(points, quality, sizes, k) == per_cell()

    t0 = time.perf_counter()
    for _ in range(repeats):
        per_cell()
    loop_s = (time.perf_counter() - t0) / repeats
    t0 = time.perf_counter()
    for _ in range(repeats):
        select_diverse_batch(points, quality, sizes, k)
    batch_s = (time.perf_counter() - t0) / repeats
    return {"cells": n_cells, "per_cell_ms": loop_s * 1e3,
            "batch_ms": batch_s * 1e3,
            "speedup": loop_s / batch_s if batch_s else float("inf")}


def time_min_pairwise(n: int, repeats: int) -> dict[str, float]:
    rng = np.random.default_rng(4)
    points = rng.normal(size=(n, 5))

    def loop_reference() -> float:
        best = float("inf")
        for i in range(n - 1):
            dist = np.linalg.norm(points[i + 1:] - points[i], axis=1)
            best = min(best, float(dist.min()))
        return best

    assert min_pairwise_distance(points) == loop_reference()

    t0 = time.perf_counter()
    for _ in range(repeats):
        loop_reference()
    loop_s = (time.perf_counter() - t0) / repeats
    t0 = time.perf_counter()
    for _ in range(repeats):
        min_pairwise_distance(points)
    vec_s = (time.perf_counter() - t0) / repeats
    return {"n": n, "loop_ms": loop_s * 1e3, "vectorized_ms": vec_s * 1e3,
            "speedup": loop_s / vec_s if vec_s else float("inf")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (CI)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny identity-focused run")
    parser.add_argument("--json", default=None,
                        help="write results JSON to this path")
    args = parser.parse_args()

    small = args.quick or args.smoke
    T = 2 if small else 3
    n_users = 4 if args.smoke else 6 if args.quick else 16
    n_per_year = 40 if small else 100
    n_readers = 4 if small else 12
    n_cells = 64 if small else 256
    repeats = 3 if small else 10

    tmp = Path(tempfile.mkdtemp(prefix="bench_plan_sets_"))
    print(f"plan-set benchmark (users={n_users}, T={T})")

    # ---- identity gates, before any timing ------------------------------
    digest = assert_digest_identity(tmp, T, n_users, n_per_year)
    print("verified: contents_digest identical on sqlite/memory/sharded"
          f" and against the per-cell reference ({digest[:12]}…)")
    assert_legacy_digest_identity()
    print("verified: metadata-free rows digest under the pre-plan-set"
          " formula")

    system = build_system(tmp / "serve", backend="sharded", T=T,
                          n_users=n_users, n_per_year=n_per_year)
    users = [f"user-{i:03d}" for i in range(n_users)]
    feature = default_feature(system.schema)
    server = InsightServer(system.store, system.time_values)
    server.start_background()
    assert_wire_identity(server.port, system, users, feature)
    server.stop_background()
    print(f"verified: {n_users} users' plans-less == plans=1 == direct"
          " render (byte-identical); plans=3 matches its direct render")

    validated = live_refresh_gate(system, users, feature, n_readers)
    print(f"verified: {validated} plans=3 responses during a live refresh"
          " epoch all match the pre- or post-refresh body (torn: 0)")

    # ---- timings --------------------------------------------------------
    selection = time_batch_selection(n_cells, cell_size=40, k=5,
                                     repeats=repeats)
    print(f"select_diverse_batch over {selection['cells']} cells:"
          f" per-cell loop {selection['per_cell_ms']:8.2f} ms,"
          f" batched {selection['batch_ms']:8.2f} ms"
          f" ({selection['speedup']:.1f}x)")
    pairwise = time_min_pairwise(80 if small else 300, repeats=repeats)
    print(f"min_pairwise_distance n={pairwise['n']}:"
          f" loop {pairwise['loop_ms']:8.2f} ms,"
          f" vectorized {pairwise['vectorized_ms']:8.2f} ms"
          f" ({pairwise['speedup']:.1f}x)")

    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "users": n_users,
            "T": T,
            "quick": args.quick,
            "smoke": args.smoke,
            "digest": digest,
            "responses_validated_during_refresh": validated,
            "batch_selection": selection,
            "min_pairwise": pairwise,
        }, indent=2))
        print(f"results written to {path}")


if __name__ == "__main__":
    main()
