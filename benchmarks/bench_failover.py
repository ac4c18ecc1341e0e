"""Leader failover end-to-end: kill the leader mid-epoch, time the takeover.

What the HA deployment (two orchestrators, one store-backed leader
lease) must prove with numbers:

1. **Byte-identity across failover** — the active leader wins the seat,
   opens a drift epoch and dies right after its pre-drain checkpoint
   (models refit, feed cursor advanced, ledger fully stale: the worst
   possible moment).  The hot standby wins the expired seat, recovers
   the interrupted drain from the dead leader's cursor, and the final
   store digest equals a run that never failed.
2. **Fencing** — after the takeover, the deposed leader's next
   leadership-scoped write raises ``LeadershipLost`` instead of merging
   over the new leader's state.
3. **Takeover latency** — the standby acquires the seat within one
   lease TTL of the leader's death (plus one campaign poll interval).

Run as a script (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_failover.py
        [--quick] [--smoke] [--leader-ttl SECONDS] [--json PATH]

``--smoke`` runs the assertions on a small workload (the CI ha-smoke
job); ``--json`` writes timings for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.constraints import lending_domain_constraints
from repro.core import (
    AdminConfig,
    DriftGate,
    JustInTime,
    RefreshOrchestrator,
    load_system,
    save_system,
)
from repro.data import (
    CsvFeed,
    LendingGenerator,
    TemporalDataset,
    john_profile,
    lending_schema,
    make_lending_dataset,
    save_csv,
)
from repro.db.store import CandidateStore
from repro.exceptions import LeadershipLost
from repro.temporal import PerPeriodStrategy, lending_update_function

N_SHARDS = 4
DRIFT_T = 1


class OrchestratorKilled(RuntimeError):
    """Raised by the fault hook to simulate the process dying."""


def make_users(schema, n_users: int):
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    return [
        (
            f"user-{i:03d}",
            schema.clip(base * rng.uniform(0.75, 1.25, size=base.size)),
            ["annual_income <= base_annual_income * 1.3"],
        )
        for i in range(n_users)
    ]


def make_batch(schema, history, n, *, seed, scale=1.0, year_offset=1.5):
    start = float(np.floor(history.span[0]))
    generator = LendingGenerator(random_state=seed)
    X = generator.sample_profiles(n) * scale
    years = np.full(n, start + year_offset)
    return TemporalDataset(X, generator.label(X, years), years, schema)


def build_state(workdir: Path, schema, history, users, T: int) -> None:
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=T, strategy=PerPeriodStrategy(), k=6, max_iter=10, random_state=0
        ),
        domain_constraints=lending_domain_constraints(schema),
        store_path=workdir / "cands.db",
        store_backend="sharded",
        n_shards=N_SHARDS,
    )
    system.fit(history)
    system.create_sessions(users)
    save_system(system, workdir / "system.pkl")
    system.store.close()


def replicate(state_dir: Path, into: Path) -> None:
    into.mkdir()
    for item in state_dir.iterdir():
        shutil.copy(item, into / item.name)


def open_state(workdir: Path):
    return load_system(
        workdir / "system.pkl",
        store_path=workdir / "cands.db",
        store_backend="sharded",
    )


def digest_of(workdir: Path, schema) -> str:
    with CandidateStore(
        schema, workdir / "cands.db", backend="sharded"
    ) as store:
        return store.contents_digest()


def write_feed(workdir: Path, schema, batches) -> tuple[Path, list]:
    """One feed CSV holding every batch, plus the CSV-parsed batches the
    reference refresh must consume (save_csv rounds to 6 significant
    digits, and identity is judged on what was actually ingested)."""
    feed_csv = workdir / "feed.csv"
    scratch = workdir / "scratch.csv"
    parsed = []
    reader = CsvFeed(feed_csv, schema)
    for batch in batches:
        save_csv(batch, scratch)
        text = scratch.read_text()
        if feed_csv.exists():
            text = text.split("\n", 1)[1]
        with feed_csv.open("a", newline="") as handle:
            handle.write(text)
        parsed.append(reader.poll())
    scratch.unlink()
    return feed_csv, parsed


def run_reference(tmp, schema, parsed_batches) -> tuple[Path, float]:
    """Single-process one-shot refresh over the merged parsed stream."""
    workdir = tmp / "reference"
    replicate(tmp / "state", workdir)
    system = open_state(workdir)
    system.resume_sessions()
    merged = TemporalDataset.concat(parsed_batches)
    start = time.perf_counter()
    system.refresh(merged, warm_start=False)
    elapsed = time.perf_counter() - start
    save_system(system, workdir / "system.pkl")
    system.store.close()
    return workdir, elapsed


def make_ha_orchestrator(
    workdir, system, feed_csv, schema, node_id, leader_ttl, hook=None
):
    start_offset = int(system.saved_extra.get("feed_offset", 0))
    return RefreshOrchestrator(
        system,
        CsvFeed(feed_csv, schema, start_offset=start_offset),
        system_path=workdir / "system.pkl",
        db_path=workdir / "cands.db",
        db_backend="sharded",
        n_workers=2,
        gate=DriftGate(mmd_threshold=0.25),
        warm_start=False,
        fault_hook=hook,
        ha=True,
        node_id=node_id,
        leader_ttl=leader_ttl,
    )


def run_failover(tmp, schema, feed_batches, leader_ttl) -> dict:
    """Leader dies at 'epoch-saved'; the standby takes the seat over."""
    workdir = tmp / "failover"
    replicate(tmp / "state", workdir)
    feed_csv, _ = write_feed(workdir, schema, feed_batches)

    def kill(stage):
        if stage == "epoch-saved":
            raise OrchestratorKilled(stage)

    leader_system = open_state(workdir)
    leader = make_ha_orchestrator(
        workdir, leader_system, feed_csv, schema, "leader", leader_ttl, kill
    )
    assert leader.campaign(max_wait=10.0) == 1
    killed = False
    try:
        leader.run(max_polls=3, poll_interval=0.0)
    except OrchestratorKilled:
        killed = True
    assert killed, "fault hook never fired — no epoch opened?"
    died_at = time.perf_counter()
    stale_at_kill = len(
        leader_system.store.stale_cells(leader_system.model_fingerprints)
    )
    assert stale_at_kill > 0, "the leader died before marking the ledger"
    # kill -9: the lease is NOT resigned; it must expire on its own

    # the standby loads the dead leader's last checkpoint (the pre-drain
    # one: cursor advanced, phase 'draining') and campaigns for the seat
    standby_system = open_state(workdir)
    assert standby_system.saved_extra["orchestrator"]["phase"] == "draining"
    standby = make_ha_orchestrator(
        workdir, standby_system, feed_csv, schema, "standby", leader_ttl
    )
    epoch = standby.campaign(max_wait=leader_ttl * 10 + 30.0)
    takeover_seconds = time.perf_counter() - died_at
    assert epoch == 2, f"takeover must bump the fencing epoch, got {epoch}"
    assert standby.lease_takeovers == 1

    # the deposed leader is fenced the moment it tries to write again
    fenced = False
    try:
        leader._fence()
    except LeadershipLost:
        fenced = True
    assert fenced, "deposed leader's write was NOT fenced"
    leader_system.store.close()

    start = time.perf_counter()
    epochs = standby.run(max_polls=1, poll_interval=0.0)
    recovery_seconds = time.perf_counter() - start
    assert epochs == [], "recovery must not re-ingest feed rows"
    recovered = standby.last_recovery
    assert recovered is not None, "the standby did not recover the drain"
    assert recovered.cells_recomputed == stale_at_kill, (
        f"standby recomputed {recovered.cells_recomputed} cells,"
        f" expected {stale_at_kill}"
    )
    leftover = standby_system.store.stale_cells(
        standby_system.model_fingerprints
    )
    assert leftover == [], f"stale cells survived the takeover: {leftover}"
    assert standby_system.store.lease_rows() == []
    standby.resign()
    standby_system.store.close()
    return {
        "workdir": workdir,
        "takeover_seconds": takeover_seconds,
        "recovery_seconds": recovery_seconds,
        "stale_at_kill": stale_at_kill,
        "recovered_cells": recovered.cells_recomputed,
        "fencing_epoch": epoch,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-smoke workload sizes"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="failover assertions on the smallest workload (fast)",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument(
        "--leader-ttl",
        type=float,
        default=None,
        help="lease TTL driving the takeover wait (default: 1.5s smoke,"
        " 3s otherwise)",
    )
    parser.add_argument(
        "--json", default=None, help="write timings JSON to this path"
    )
    args = parser.parse_args()

    quick = args.quick or args.smoke
    T = 2 if quick else 3
    n_users = args.users or (6 if args.smoke else 16 if args.quick else 32)
    n_per_year = 60 if quick else 120
    leader_ttl = args.leader_ttl or (1.5 if args.smoke else 3.0)

    schema = lending_schema()
    history = make_lending_dataset(n_per_year=n_per_year, random_state=1)
    users = make_users(schema, n_users)
    feed_batches = [
        make_batch(
            schema,
            history,
            n_per_year,
            seed=99,
            scale=3.0,
            year_offset=DRIFT_T + 0.5,
        ),
    ]
    print(
        f"failover benchmark (users={n_users}, T={T}, shards={N_SHARDS},"
        f" leader-ttl={leader_ttl:g}s)"
    )

    results: dict = {
        "users": n_users,
        "T": T,
        "leader_ttl": leader_ttl,
        "quick": args.quick,
        "smoke": args.smoke,
    }
    with tempfile.TemporaryDirectory(prefix="bench-failover-") as tmpname:
        tmp = Path(tmpname)
        state = tmp / "state"
        state.mkdir()
        build_state(state, schema, history, users, T)

        # reference: the same stream, never failed
        (tmp / "parse-only").mkdir()
        _, parsed = write_feed(tmp / "parse-only", schema, feed_batches)
        ref_dir, ref_seconds = run_reference(tmp, schema, parsed)
        ref_digest = digest_of(ref_dir, schema)

        failover = run_failover(tmp, schema, feed_batches, leader_ttl)
        failover_digest = digest_of(failover["workdir"], schema)
        assert failover_digest == ref_digest, (
            f"failover store diverged: {failover_digest} != {ref_digest}"
        )
        print(
            "verified: leader killed after its pre-drain checkpoint;"
            f" standby took the seat (fencing epoch"
            f" {failover['fencing_epoch']}), recovered"
            f" {failover['recovered_cells']} stale cells from the dead"
            " leader's feed cursor, byte-identical to the never-failed"
            f" run (digest {ref_digest[:16]}…)"
        )
        print(
            "verified: the deposed leader's late write raised"
            " LeadershipLost (fenced, not merged)"
        )
        # the takeover waits out one TTL; a generous bound catches the
        # pathological case (lost wakeups, livelocked campaigns) without
        # flaking on slow CI machines
        assert failover["takeover_seconds"] < leader_ttl * 10 + 30.0
        print(
            f"one-shot refresh    {ref_seconds * 1e3:8.1f} ms\n"
            f"takeover latency    {failover['takeover_seconds'] * 1e3:8.1f}"
            f" ms (TTL {leader_ttl * 1e3:.0f} ms)\n"
            f"standby recovery    {failover['recovery_seconds'] * 1e3:8.1f} ms"
        )
        results["identity"] = "ok"
        results["fencing"] = "ok"
        results["oneshot_refresh_seconds"] = ref_seconds
        results["takeover_seconds"] = failover["takeover_seconds"]
        results["recovery_seconds"] = failover["recovery_seconds"]
        results["recovered_cells"] = failover["recovered_cells"]

    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2))
        print(f"timings written to {path}")


if __name__ == "__main__":
    main()
