"""Incremental session refresh vs. cold recompute.

The workload the refresh subsystem targets: a populated 50-user service
receives new timestamped data that changes the forecast at **one** of
T=5 future time points.  Keeping every stored insight correct then
requires either

* **cold** — refit the models and recompute all ``users × (T+1)`` cells
  (the only correct operation before PR 2), or
* **incremental** — refit, diff the per-time-point model fingerprints,
  and recompute only the ``users × 1`` stale cells
  (``JustInTime.refresh``).

Both paths are first run to completion on identical inputs and the
recomputed candidates asserted **bit-identical** (warm start disabled);
only then are fresh systems timed.  A third timing shows the warm-start
variant (beam seeded from the previously stored candidates).

Drift locality is made exact with a per-year-window strategy: model t
trains on the t-th calendar year of history, so samples injected into
one year change exactly one model — the fingerprint diff must flag
exactly that time point.

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_incremental_refresh.py [--quick]

``--quick`` shrinks the horizon, dataset and user count for CI smoke
runs.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    lending_schema,
    make_lending_dataset,
)
from repro.temporal import PerPeriodStrategy, lending_update_function


def build_system(schema, history, T: int) -> JustInTime:
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=T,
            strategy=PerPeriodStrategy(),
            k=6,
            max_iter=10,
            random_state=0,
        ),
        domain_constraints=lending_domain_constraints(schema),
    )
    return system.fit(history)


def make_users(schema, n_users: int):
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    return [
        (
            f"user-{i:03d}",
            schema.clip(base * rng.uniform(0.75, 1.25, size=base.size)),
        )
        for i in range(n_users)
    ]


def make_drift(schema, history, drift_t: int, n_new: int) -> TemporalDataset:
    """New labeled samples inside the calendar year backing time ``drift_t``."""
    start = float(np.floor(history.span[0]))
    at = start + drift_t + 0.5
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(n_new)
    years = np.full(n_new, at)
    return TemporalDataset(X, generator.label(X, years), years, schema)


def assert_equivalent(sessions_a, sessions_b) -> None:
    assert len(sessions_a) == len(sessions_b)
    for sa, sb in zip(sessions_a, sessions_b):
        assert sa.user_id == sb.user_id
        assert len(sa.candidates) == len(sb.candidates), sa.user_id
        for ca, cb in zip(sa.candidates, sb.candidates):
            assert ca.time == cb.time
            assert np.array_equal(ca.x, cb.x)
            assert ca.metrics == cb.metrics


def verify_identical(schema, history, users, new_data, T: int, drift_t: int):
    """Untimed correctness pass: incremental refresh == cold recompute."""
    incremental = build_system(schema, history, T)
    incremental.create_sessions(users)
    report = incremental.refresh(new_data, warm_start=False)
    assert report.stale_times == (drift_t,), (
        f"expected exactly time {drift_t} stale, got {report.stale_times}"
    )

    cold = build_system(schema, history, T)
    cold.refresh(new_data)  # empty registry: refit + fingerprint diff only
    cold_sessions = cold.create_sessions(users)

    assert_equivalent(
        [incremental.get_session(uid) for uid, _ in users], cold_sessions
    )
    return report


def bench(schema, history, users, new_data, T: int, warm_start: bool) -> float:
    """Timed incremental refresh on a freshly populated system."""
    system = build_system(schema, history, T)
    system.create_sessions(users)
    start = time.perf_counter()
    system.refresh(new_data, warm_start=warm_start)
    return time.perf_counter() - start


def bench_cold(schema, history, users, new_data, T: int) -> float:
    """Timed cold path: refit + recompute every (user × time-point) cell."""
    system = build_system(schema, history, T)
    system.create_sessions(users)
    system.sessions.clear()  # cold path has no incremental machinery
    start = time.perf_counter()
    system.refit(new_data)  # the common refit + diff, no recompute
    system.create_sessions(users)  # recompute all cells
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small horizon, dataset and user count (CI smoke run)",
    )
    parser.add_argument(
        "--users", type=int, default=None, help="workload size"
    )
    parser.add_argument(
        "--json", default=None, help="write timings JSON to this path"
    )
    args = parser.parse_args()

    T = 2 if args.quick else 5
    n_users = args.users or (8 if args.quick else 50)
    n_per_year = 60 if args.quick else 120
    drift_t = 1 if args.quick else 3

    schema = lending_schema()
    history = make_lending_dataset(n_per_year=n_per_year, random_state=1)
    users = make_users(schema, n_users)
    new_data = make_drift(schema, history, drift_t, n_new=n_per_year)

    print(
        f"incremental-refresh benchmark (users={n_users}, T={T},"
        f" drifted time point: {drift_t})"
    )
    report = verify_identical(schema, history, users, new_data, T, drift_t)
    print(
        f"verified: stale={list(report.stale_times)},"
        f" {report.cells_recomputed} cells recomputed,"
        " refreshed candidates bit-identical to cold recompute"
    )

    cold_s = bench_cold(schema, history, users, new_data, T)
    incr_s = bench(schema, history, users, new_data, T, warm_start=False)
    warm_s = bench(schema, history, users, new_data, T, warm_start=True)

    cells_cold = n_users * (T + 1)
    speedup = cold_s / incr_s
    print(
        f"cold recompute   {cold_s * 1e3:8.1f} ms   ({cells_cold} cells)"
    )
    print(
        f"refresh (cold-eq){incr_s * 1e3:8.1f} ms   ({n_users} cells)"
        f"   speedup {speedup:5.2f}x"
    )
    print(
        f"refresh (warm)   {warm_s * 1e3:8.1f} ms   ({n_users} cells)"
        f"   speedup {cold_s / warm_s:5.2f}x"
    )
    if speedup < 2.0:
        print(f"WARNING: refresh speedup {speedup:.2f}x is below the 2x target")
    else:
        print(f"refresh speedup target met: {speedup:.2f}x >= 2x")
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "users": n_users,
                    "T": T,
                    "quick": args.quick,
                    "cold_s": cold_s,
                    "incremental_s": incr_s,
                    "warm_s": warm_s,
                    "incremental_speedup": speedup,
                    "warm_speedup": cold_s / warm_s,
                },
                indent=2,
            )
        )
        print(f"timings written to {path}")


if __name__ == "__main__":
    main()
