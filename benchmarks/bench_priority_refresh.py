"""Priority- and budget-aware refresh: identity first, then the payoff.

Two things the priority subsystem must prove with numbers:

1. **Identity** — the priority-ordered claim scan changes *scheduling
   only*.  With no priority state and no budget, a worker-style drain
   of the staleness ledger leaves the store byte-identical
   (``contents_digest``) to a one-shot ``JustInTime.refresh()``, on
   every backend; and an *unconstraining* budget (= the stale-cell
   count) is byte-identical to no budget at all.
2. **Freshness under budget** — with skewed traffic (a few hot users
   carrying most of the reads) and a compute budget of 25% of the
   stale set, priority-aware draining ends the epoch with at least 2×
   the traffic-weighted freshness of FIFO (ledger-order) draining.
   The comparison is deterministic cell counting, so it is asserted,
   not just reported.

Also asserts ``claim_query_plan`` stays index-backed on every backend
(the priority/escalation joins must not cost a table scan).

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_priority_refresh.py
        [--quick] [--smoke] [--json PATH]

``--quick`` shrinks the workload for CI; ``--smoke`` runs the identity
+ plan + freshness assertions only; ``--json`` writes results for
artifact upload.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime, drain_stale_cells
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    lending_schema,
    make_lending_dataset,
)
from repro.db.store import CandidateStore
from repro.temporal import PerPeriodStrategy, lending_update_function

BACKENDS = ("sqlite", "memory", "sharded")

HOT_USERS = 2
HOT_WEIGHT = 50.0
COLD_WEIGHT = 1.0


def make_users(schema, n_users: int):
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    return [
        (
            f"user-{i:03d}",
            schema.clip(base * rng.uniform(0.8, 1.2, size=base.size)),
            ["annual_income <= base_annual_income * 1.3"],
        )
        for i in range(n_users)
    ]


def make_batch(schema, history, n, *, seed):
    start = float(np.floor(history.span[0]))
    generator = LendingGenerator(random_state=seed)
    X = generator.sample_profiles(n) * 2.0
    years = np.full(n, start + 1.5)
    return TemporalDataset(X, generator.label(X, years), years, schema)


def build_system(schema, history, users, backend, tmp: Path, tag: str, T: int):
    """A freshly fitted system with stored sessions — deterministic in
    its seeds, so two builds are byte-identical starting points (the
    memory backend has no files to replicate)."""
    path = ":memory:" if backend == "memory" else tmp / f"{tag}.db"
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=T, strategy=PerPeriodStrategy(), k=4, max_iter=8, random_state=0
        ),
        domain_constraints=lending_domain_constraints(schema),
        store_path=path,
        store_backend=backend,
        n_shards=2,
    )
    system.fit(history)
    system.create_sessions(users)
    return system


def identity_phase(schema, history, users, tmp: Path, T: int) -> dict:
    """Unbudgeted drain == one-shot refresh == budget-of-everything
    drain, per backend."""
    timings = {}
    for backend in BACKENDS:
        batch_for = lambda: make_batch(schema, history, 40, seed=99)

        oneshot = build_system(
            schema, history, users, backend, tmp, f"{backend}-oneshot", T
        )
        start = time.perf_counter()
        oneshot.refresh(batch_for(), warm_start=False)
        oneshot_seconds = time.perf_counter() - start
        oneshot_digest = oneshot.store.contents_digest()
        oneshot.store.close()

        drained = build_system(
            schema, history, users, backend, tmp, f"{backend}-drain", T
        )
        drained.refit(batch_for())
        start = time.perf_counter()
        drain_stale_cells(drained, warm_start=False)
        drain_seconds = time.perf_counter() - start
        drain_digest = drained.store.contents_digest()
        drained.store.close()
        assert drain_digest == oneshot_digest, (
            f"{backend}: priority-ordered drain diverged from one-shot"
            f" refresh: {drain_digest} != {oneshot_digest}"
        )

        budgeted = build_system(
            schema, history, users, backend, tmp, f"{backend}-budget", T
        )
        stale = budgeted.refit(batch_for())
        n_stale = len(budgeted.store.stale_cells(budgeted.model_fingerprints))
        budgeted.store.set_refresh_budget(n_stale)
        drain_stale_cells(budgeted, warm_start=False)
        budget_digest = budgeted.store.contents_digest()
        assert budgeted.store.refresh_budget_remaining() == 0
        budgeted.store.close()
        assert budget_digest == oneshot_digest, (
            f"{backend}: unconstraining budget ({n_stale} cells) diverged"
            f" from the unbudgeted drain: {budget_digest} != {oneshot_digest}"
        )

        print(
            f"verified [{backend}]: unbudgeted priority drain and"
            f" budget={n_stale} drain byte-identical to one-shot refresh"
            f" (digest {oneshot_digest[:16]}…, stale times {list(stale)})"
        )
        timings[backend] = {
            "oneshot_seconds": oneshot_seconds,
            "drain_seconds": drain_seconds,
            "stale_cells": n_stale,
        }
    return timings


def check_claim_plans(schema, tmp: Path) -> None:
    """The priority/escalation joins stay index-backed everywhere."""
    for backend in BACKENDS:
        path = ":memory:" if backend == "memory" else tmp / f"plan-{backend}.db"
        with CandidateStore(schema, path, backend=backend) as store:
            plan = store.claim_query_plan()
            assert any("idx_temporal_inputs_ledger" in p for p in plan), plan
            for line in plan:
                if "SCAN" in line:
                    assert "temporal_inputs" not in line, plan
                    assert "user_priority" not in line, plan
                    assert "refresh_escalations" not in line, plan
    print(
        "verified: claim scan keeps the covering ledger index and"
        " index-backed priority joins on all backends"
    )


def _stale_store(schema, path, backend, n_users, n_times):
    """A store where every (user, time) cell is stale; hot users sort
    LAST in ledger order so FIFO serves them worst-case-late."""
    store = CandidateStore(schema, path, backend=backend, n_shards=2)
    width = len(schema.names)
    trajectory = np.arange(n_times * width, dtype=float).reshape(
        n_times, width
    )
    for user in _user_names(n_users):
        store.store_temporal_inputs(
            user, trajectory, fingerprints={t: f"old-{t}" for t in range(n_times)}
        )
    return store


def _user_names(n_users):
    cold = [f"a-cold-{i:03d}" for i in range(n_users - HOT_USERS)]
    hot = [f"z-hot-{i}" for i in range(HOT_USERS)]
    return cold + hot


def _scores(n_users):
    names = _user_names(n_users)
    return {
        user: HOT_WEIGHT if user.startswith("z-hot") else COLD_WEIGHT
        for user in names
    }


def _drain_budgeted(store, fresh_fps, budget):
    """Claim/refresh/release rounds until the budget is spent — the
    store-level skeleton of what a worker pool does per epoch."""
    store.set_refresh_budget(budget)
    drained = 0
    while True:
        cells = store.claim_stale_cells(fresh_fps, "bench", limit=8)
        if not cells:
            break
        for user, t in cells:
            conn, prefix = store.backend.conn, store._db_for(user)
            with conn:
                conn.execute(
                    f"UPDATE {prefix}.temporal_inputs SET model_fp = ?,"
                    " refreshed_at = ? WHERE user_id = ? AND time = ?",
                    (fresh_fps[t], store.clock_now(), user, t),
                )
        store.release_cells("bench", cells)
        drained += len(cells)
    return drained


def freshness_phase(schema, tmp: Path, n_users: int, n_times: int) -> dict:
    """Priority vs FIFO under a 25%-of-stale budget, skewed traffic."""
    fresh_fps = {t: f"new-{t}" for t in range(n_times)}
    total_cells = n_users * n_times
    budget = total_cells // 4
    scores = _scores(n_users)

    # priority-aware: scores land BEFORE the drain orders the claims
    prio_store = _stale_store(
        schema, tmp / "prio.db", "sharded", n_users, n_times
    )
    prio_store.set_user_priorities(scores)
    start = time.perf_counter()
    prio_drained = _drain_budgeted(prio_store, fresh_fps, budget)
    prio_seconds = time.perf_counter() - start
    prio_report = prio_store.traffic_weighted_freshness(fresh_fps)
    prio_store.close()

    # FIFO baseline: same store, same budget, no priority state during
    # the drain (= the pre-priority ledger order); the scores are set
    # only afterwards so the freshness metric weighs both runs equally
    fifo_store = _stale_store(
        schema, tmp / "fifo.db", "sharded", n_users, n_times
    )
    start = time.perf_counter()
    fifo_drained = _drain_budgeted(fifo_store, fresh_fps, budget)
    fifo_seconds = time.perf_counter() - start
    fifo_store.set_user_priorities(scores)
    fifo_report = fifo_store.traffic_weighted_freshness(fresh_fps)
    fifo_store.close()

    assert prio_drained == fifo_drained == budget, (
        prio_drained, fifo_drained, budget,
    )
    prio_fresh = prio_report["weighted_fresh_fraction"]
    fifo_fresh = fifo_report["weighted_fresh_fraction"]
    ratio = prio_fresh / fifo_fresh if fifo_fresh else float("inf")
    assert prio_fresh >= 2 * fifo_fresh, (
        "priority draining must at least double FIFO's traffic-weighted"
        f" freshness under a 25% budget: {prio_fresh:.3f} vs {fifo_fresh:.3f}"
    )
    print(
        f"verified: budget={budget}/{total_cells} cells, skewed traffic"
        f" ({HOT_USERS} hot users × weight {HOT_WEIGHT:g}) —"
        f" traffic-weighted freshness priority={prio_fresh:.3f}"
        f" vs FIFO={fifo_fresh:.3f}"
        f" ({'∞' if ratio == float('inf') else f'{ratio:.1f}'}×)"
    )
    return {
        "total_cells": total_cells,
        "budget": budget,
        "priority_weighted_freshness": prio_fresh,
        "fifo_weighted_freshness": fifo_fresh,
        "priority_plain_freshness": prio_report["fresh_fraction"],
        "fifo_plain_freshness": fifo_report["fresh_fraction"],
        "priority_drain_seconds": prio_seconds,
        "fifo_drain_seconds": fifo_seconds,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-smoke workload sizes"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="identity + plan + freshness assertions only (fast)",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument(
        "--json", default=None, help="write results JSON to this path"
    )
    args = parser.parse_args()

    quick = args.quick or args.smoke
    T = 2 if quick else 3
    n_users = args.users or (4 if args.smoke else 6 if args.quick else 12)
    n_per_year = 60 if quick else 120
    fleet_users = 20 if quick else 60
    fleet_times = 4

    schema = lending_schema()
    history = make_lending_dataset(n_per_year=n_per_year, random_state=1)
    users = make_users(schema, n_users)
    print(
        f"priority refresh benchmark (identity users={n_users}, T={T};"
        f" freshness fleet={fleet_users} users × {fleet_times} cells)"
    )

    results: dict = {
        "users": n_users,
        "T": T,
        "quick": args.quick,
        "smoke": args.smoke,
    }
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-priority-") as tmpname:
        tmp = Path(tmpname)
        results["identity"] = identity_phase(schema, history, users, tmp, T)
        check_claim_plans(schema, tmp)
        results["claim_plan"] = "ok"
        results["freshness"] = freshness_phase(
            schema, tmp, fleet_users, fleet_times
        )

    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2))
        print(f"results written to {path}")


if __name__ == "__main__":
    main()
