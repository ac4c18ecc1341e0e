"""Throughput benchmark: onboarding through the fused search vs per cell.

Measures two workloads:

* **single-user** — one ``create_session`` (T+1 candidates generators);
* **multi-user** — 50 users through ``create_sessions`` (one fused
  multi-cell search, one bulk DB transaction).

The baseline is the per-cell reference the test suite checks the fused
path against (``tests/cell_reference.py``): every cell searched on its
own with ``CandidateGenerator.generate``, the users written in one bulk
transaction.  Both sides run on identical inputs and their store
digests are asserted identical before any timing is reported, so the
speedup is for bit-equal results.

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_batch_engine.py [--quick]

``--quick`` shrinks the dataset and user count for CI smoke runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime
from repro.data import john_profile, lending_schema, make_lending_dataset
from repro.temporal import lending_update_function

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from cell_reference import reference_create_sessions  # noqa: E402


def build_system(schema, history) -> JustInTime:
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(T=3, strategy="last", k=6, max_iter=10, random_state=0),
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


def bench_onboarding(schema, history, users) -> tuple[float, float]:
    """``(per-cell seconds, fused seconds)`` to onboard ``users``; the
    two stores' digests are asserted equal first."""
    reference = build_system(schema, history)
    reference_create_sessions(reference, users[:1])  # warm-up (thresholds cache)
    start = time.perf_counter()
    reference_create_sessions(reference, users)
    per_cell = time.perf_counter() - start

    system = build_system(schema, history)
    system.create_sessions(users[:1])  # warm-up
    start = time.perf_counter()
    system.create_sessions(users)
    fused = time.perf_counter() - start

    assert system.store.contents_digest() == reference.store.contents_digest(), (
        f"fused onboarding diverged from per-cell ({len(users)} users)"
    )
    return per_cell, fused


def bench_single_user(schema, history) -> dict:
    per_cell, fused = bench_onboarding(schema, history, make_users(schema, 1))
    speedup = per_cell / fused
    print(
        f"single-user   per-cell {per_cell * 1e3:8.1f} ms"
        f"   fused {fused * 1e3:8.1f} ms   speedup {speedup:5.2f}x"
    )
    return {
        "single_per_cell_s": per_cell,
        "single_fused_s": fused,
        "single_speedup": speedup,
    }


def bench_multi_user(schema, history, n_users: int) -> dict:
    per_cell, fused = bench_onboarding(schema, history, make_users(schema, n_users))
    speedup = per_cell / fused
    print(
        f"{n_users:3d}-user      per-cell {per_cell * 1e3:8.1f} ms"
        f"   fused {fused * 1e3:8.1f} ms   speedup {speedup:5.2f}x"
        f"   ({fused / n_users * 1e3:.1f} ms/user fused)"
    )
    return {
        "multi_per_cell_s": per_cell,
        "multi_fused_s": fused,
        "multi_speedup": speedup,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset and user count (CI smoke run)",
    )
    parser.add_argument(
        "--users", type=int, default=None, help="multi-user workload size"
    )
    parser.add_argument(
        "--json", default=None, help="write timings JSON to this path"
    )
    args = parser.parse_args()

    n_users = args.users or (8 if args.quick else 50)
    n_per_year = 80 if args.quick else 150

    schema = lending_schema()
    history = make_lending_dataset(n_per_year=n_per_year, random_state=1)
    print(
        f"onboarding benchmark (users={n_users}, n_per_year={n_per_year})"
        " — store digests verified identical before timing"
    )
    results = {"users": n_users, "n_per_year": n_per_year, "quick": args.quick}
    results.update(bench_single_user(schema, history))
    results.update(bench_multi_user(schema, history, n_users))
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2))
        print(f"timings written to {path}")


if __name__ == "__main__":
    main()
