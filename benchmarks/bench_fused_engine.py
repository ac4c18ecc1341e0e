"""Throughput benchmark: fused cross-cell drain vs per-cell recompute.

The fused engine — the system's one search path — stacks the beams of every claimed cell and advances
them in lock-step — one grouped model call per (time-point, model)
group per iteration instead of one per cell, cell-level dedup of
byte-identical cells, and an epoch-level proposal cache that shares
scores between cells proposing the same rounded rows under the same
model fingerprint.  This benchmark measures what that buys on the
workload it targets: **many users, few features** (the 6-feature
lending schema), drained in one epoch.

Two profile distributions are swept at each size:

* **prototype** — profiles drawn from a small pool of discretised
  prototypes (the realistic shape: applicant features are step-quantised
  by the schema, so real pools collapse onto far fewer distinct rows),
  with varying per-user constraints so cells are *not* all collapsed by
  cell-level dedup — the epoch cache does row-level sharing across the
  remainder;
* **unique** — every profile distinct (the adversarial sensitivity row:
  fusion only saves grouped model calls, no dedup or cache sharing).

The baseline is the per-cell reference the test suite checks the fused
path against (``tests/cell_reference.py``): every stale cell searched
on its own with ``CandidateGenerator.generate``.  Store digests are
asserted **byte-identical** between the two before any timing is
reported, so every speedup is for bit-equal results.  The headline target (the issue's acceptance bar) is >= 3x on
the 200-user prototype configuration.

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_fused_engine.py [--quick|--smoke]

``--quick`` shrinks the sweep for local runs; ``--smoke`` runs the
smallest identity-checked configuration for CI (seconds, not minutes).
``--json PATH`` writes the timing artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from repro.temporal import lending_update_function

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from cell_reference import reference_recompute  # noqa: E402

T = 5
#: constraint variants rotated across users — same-profile users under
#: different constraints are distinct cells (no cell dedup) that still
#: share proposal rows through the epoch cache
CONSTRAINT_VARIANTS = (
    None,
    ["monthly_debt <= 900"],
    ["annual_income <= base_annual_income * 1.3"],
    ["loan_amount >= 9000"],
)


def build_system(schema, history) -> JustInTime:
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=T,
            strategy="last",
            k=4,
            beam_width=6,
            max_iter=10,
            patience=3,
            random_state=11,
        ),
        domain_constraints=lending_domain_constraints(schema),
    )
    return system.fit(history)


def make_users(schema, n_users: int, distribution: str):
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    if distribution == "prototype":
        # pool scales with the workload (capped at 25, the headline
        # configuration) so even the smoke sizes exhibit duplicates
        n_prototypes = min(25, max(3, n_users // 4))
        prototypes = [
            schema.clip(base * rng.uniform(0.75, 1.25, size=base.size))
            for _ in range(n_prototypes)
        ]
        return [
            (
                f"user-{i:04d}",
                prototypes[int(rng.integers(0, len(prototypes)))],
                CONSTRAINT_VARIANTS[i % len(CONSTRAINT_VARIANTS)],
            )
            for i in range(n_users)
        ]
    return [
        (
            f"user-{i:04d}",
            schema.clip(base * rng.uniform(0.75, 1.25, size=base.size)),
            CONSTRAINT_VARIANTS[i % len(CONSTRAINT_VARIANTS)],
        )
        for i in range(n_users)
    ]


def make_drift(history) -> TemporalDataset:
    """New arrivals at the latest timestamp: with the ``'last'``
    forecasting strategy this re-trains every future model, so the
    refit stales **all** stored cells — the epoch-drain workload."""
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(50)
    years = np.full(50, float(history.span[1]))
    return TemporalDataset(X, generator.label(X, years), years, history.schema)


def bench_config(schema, history, drift, n_users: int, distribution: str) -> dict:
    """Time one per-cell vs fused drain pair; assert identity first."""
    users = make_users(schema, n_users, distribution)
    timings, digests = {}, {}
    for leg in ("per_cell", "fused"):
        system = build_system(schema, history)
        system.create_sessions(users)
        system.refit(drift)  # every stored cell is now stale
        start = time.perf_counter()
        if leg == "per_cell":
            cells, _, _ = reference_recompute(system)
        else:
            report = drain_stale_cells(
                system,
                worker_id="bench",
                # claim the whole epoch at once: one fused call over every
                # stale cell (matching refresh()'s all-cells fusion), so
                # cell dedup and the cache see the full cross-user picture
                claim_batch=n_users * (T + 1),
                warm_start=False,
            )
            cells, search = report.cells, report.search
        timings[leg] = time.perf_counter() - start
        assert len(cells) == n_users * (T + 1)
        digests[leg] = system.store.contents_digest()
        system.store.close()
    # the identity contract, checked before any number is printed
    assert digests["fused"] == digests["per_cell"], (
        f"fused drain diverged from per-cell ({n_users} {distribution})"
    )
    speedup = timings["per_cell"] / timings["fused"]
    scored = search["cache_hits"] + search["cache_misses"]
    hit_rate = search["cache_hits"] / scored if scored else 0.0
    print(
        f"{n_users:4d} users x T={T} [{distribution:9s}]"
        f"  per-cell {timings['per_cell']:7.2f}s"
        f"  fused {timings['fused']:7.2f}s"
        f"  speedup {speedup:5.2f}x"
        f"  cache-hit {hit_rate:5.1%}"
        f"  cells-deduped {search['cells_deduped']}"
    )
    return {
        "users": n_users,
        "distribution": distribution,
        "cells": n_users * (T + 1),
        "per_cell_s": timings["per_cell"],
        "fused_s": timings["fused"],
        "speedup": speedup,
        "cache_hit_rate": hit_rate,
        "cells_deduped": search["cells_deduped"],
        "digest_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="shrink the sweep (local runs)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest identity-checked configuration (CI smoke)",
    )
    parser.add_argument(
        "--json", default=None, help="write timings JSON to this path"
    )
    args = parser.parse_args()

    if args.smoke:
        sizes, n_per_year = [12], 60
        distributions = ["prototype"]
    elif args.quick:
        sizes, n_per_year = [50], 80
        distributions = ["prototype", "unique"]
    else:
        sizes, n_per_year = [50, 200, 500], 150
        distributions = ["prototype", "unique"]

    schema = lending_schema()
    history = make_lending_dataset(n_per_year=n_per_year, random_state=1)
    drift = make_drift(history)
    print(
        f"fused-engine benchmark (T={T}, n_per_year={n_per_year},"
        f" sizes={sizes}) — store digests verified identical before timing"
    )
    rows = [
        bench_config(schema, history, drift, n, distribution)
        for n in sizes
        for distribution in distributions
    ]
    results = {"T": T, "n_per_year": n_per_year, "rows": rows}
    headline = next(
        (
            r
            for r in rows
            if r["users"] == 200 and r["distribution"] == "prototype"
        ),
        None,
    )
    if headline is not None:
        results["headline_speedup"] = headline["speedup"]
        if headline["speedup"] < 3.0:
            print(
                f"WARNING: 200-user prototype speedup"
                f" {headline['speedup']:.2f}x is below the 3x target"
            )
        else:
            print(
                f"headline target met: {headline['speedup']:.2f}x >= 3x"
                " (200-user prototype drain)"
            )
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2))
        print(f"timings written to {path}")


if __name__ == "__main__":
    main()
