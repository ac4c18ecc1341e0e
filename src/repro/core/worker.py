"""Lease-coordinated refresh workers: drain stale cells across processes.

At service scale the recompute is the expensive part of a refresh (one
beam search per stale (user × time-point) cell), and the cells are
embarrassingly parallel.  This module turns the store's staleness
ledger into a **work queue**, and :func:`drain_stale_cells` is the one
loop that recomputes stale cells — :meth:`JustInTime.refresh` runs it
in-process, a worker pool runs it in N processes:

1. the coordinator refits the models (:meth:`JustInTime.refit`) and
   saves the system — every stored cell stamped under an old fingerprint
   is now stale;
2. N worker *processes* each load the saved system, open their own
   connection to the shared store, and run :func:`drain_stale_cells`:
   claim a few stale cells under a lease
   (:meth:`CandidateStore.claim_stale_cells` — atomic across processes),
   recompute the claim from the persisted session specs in one fused
   multi-cell search (:func:`~repro.core.fused.generate_fused`), upsert,
   release, repeat until the ledger is clean;
3. leases expire, so a worker that dies mid-cell merely delays that
   cell until another worker reclaims it — no cell is lost and none is
   computed twice while a lease is live.

Every cell's recompute is deterministic (per-t seeds, spec-rehydrated
constraints), so the final store contents are **byte-identical** to an
in-process ``refresh()`` no matter how cells were distributed —
``CandidateStore.contents_digest`` asserts exactly that in the tests,
the CI smoke and ``benchmarks/bench_streaming_refresh.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.candidates import search_counter_totals
from repro.core.fused import EpochProposalCache, generate_fused
from repro.core.persistence import load_system
from repro.exceptions import StorageError

__all__ = ["PoolReport", "WorkerReport", "drain_stale_cells", "run_worker_pool"]

#: share of ``lease_seconds`` that must pass since a claim's last lease
#: renewal before the per-round heartbeat renews it again
_HEARTBEAT_SHARE = 0.25


@dataclass
class WorkerReport:
    """Outcome of one worker's :func:`drain_stale_cells` run."""

    worker_id: str
    #: (user, time) cells this worker recomputed and released
    cells: list = field(default_factory=list)
    #: candidate rows this worker upserted
    candidates_written: int = 0
    #: stale cells claimed but not computable by this worker — no live
    #: session in its system, and no persisted session spec or one with
    #: opaque (non-serialised) constraints; released and excluded from
    #: this worker's further claims
    skipped_cells: list = field(default_factory=list)
    #: claims whose lease had already expired and been taken over by
    #: another worker before the compute started (crash-recovery path)
    lost_leases: int = 0
    #: summed :class:`~repro.core.candidates.SearchStats` counters over
    #: every cell this worker computed (plus ``cells_deduped``) — the
    #: work performed, including computes whose lease was lost before
    #: the upsert
    search: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PoolReport:
    """Aggregate outcome of :func:`run_worker_pool`."""

    workers: tuple
    cells_recomputed: int
    candidates_written: int
    #: distinct uncomputable cells observed across the pool
    skipped_cells: tuple
    #: per-key sum of the workers' :attr:`WorkerReport.search` counters
    search: dict = field(default_factory=dict)


def drain_stale_cells(
    system,
    *,
    worker_id: str | None = None,
    claim_batch: int = 2,
    lease_seconds: float = 30.0,
    warm_start: bool | None = None,
    max_cells: int | None = None,
    claim_schema: str | None = None,
    leader_token: tuple | None = None,
    clock=None,
    sleep=time.sleep,
) -> WorkerReport:
    """Claim → recompute → upsert → release until the ledger is clean.

    ``system`` is a fitted :class:`~repro.core.system.JustInTime` whose
    store is (typically) shared with other workers.  Cells are claimed
    in small batches under ``lease_seconds`` leases.  A user's cells are
    built from the system's live :class:`UserSession` when it has one
    (trajectory, constraints and ``constraints_key`` — opaque
    constraints included; this is the in-process :meth:`JustInTime.refresh`
    path), and otherwise from the *persisted* session spec — profile and
    DSL constraint texts — so a worker process, which loads its system
    with no sessions, needs no live objects.  Users with neither are
    skipped (released + reported), mirroring
    :meth:`JustInTime.resume_sessions`.

    ``warm_start`` overrides :attr:`AdminConfig.warm_start`; the
    bit-identical-to-``refresh()`` reference path is ``warm_start=False``
    on both sides (and warm runs are identical too, since warm seeds
    come from the same stored rows either way).  ``max_cells`` bounds
    this worker's total work (tests); ``clock`` injects the lease clock
    and defaults to the **store-side** clock
    (:meth:`CandidateStore.clock_now`), so workers on hosts with skewed
    wall clocks still agree on lease expiry.

    ``claim_schema`` pins this worker's **shard affinity**: claims
    drain that schema's stale cells first, so on a sharded store each
    worker's upserts lock only its own shard file and never serialise
    against the other workers.  Workers fall through to foreign shards
    once their own is clean, so the drain still finishes everything.
    The final store contents are byte-identical either way — cells are
    deterministic, only the claim order changes.

    When a claim comes back empty but computable stale cells remain
    under **live foreign leases**, the worker waits (``sleep``, in small
    steps) instead of exiting: if the holder finishes, the cells leave
    the stale set and the drain ends; if the holder crashed, their
    leases expire and this worker reclaims the cells — the
    crash-recovery guarantee would be vacuous if survivors exited while
    the crashed worker's leases were still ticking.

    Each claim batch is recomputed as **one**
    :func:`~repro.core.fused.generate_fused` call — every cell's beam
    advances in lock-step, model scoring is grouped across cells, and an
    :class:`~repro.core.fused.EpochProposalCache` persists across claim
    batches so identical proposal rows seen under the same model
    fingerprint are never re-scored.  The claim's leases are renewed in
    one :meth:`CandidateStore.renew_leases` call before the compute and
    in one after it; in between, the per-round heartbeat renews them in
    one call whenever a quarter of ``lease_seconds`` has passed since
    their last renewal, so leases stay live as long as one lock-stepped
    round takes less than three quarters of ``lease_seconds``.  The
    cells whose leases survived the compute are written in one grouped
    ``upsert_cells`` transaction.
    The store contents are byte-identical to computing each cell on its
    own with :meth:`CandidateGenerator.generate`.

    ``leader_token`` — a ``(node_id, lease_epoch)`` pair from the
    dispatching HA orchestrator — fences the drain on the leader seat:
    each claim round first verifies the pair still holds the store's
    ``leader_lease`` (:meth:`CandidateStore.verify_leader`) and the
    worker stops claiming the moment it does not.  A deposed leader's
    pool therefore winds down instead of computing cells on behalf of a
    leadership that no longer exists; its outstanding leases expire and
    the new leader's own pool picks the cells up.
    """
    system._require_fitted()
    cfg = system.config
    store = system.store
    if clock is None:
        clock = store.clock_now
    if worker_id is None:
        worker_id = f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    warm = bool(cfg.warm_start if warm_start is None else warm_start)
    # one cache for the whole drain: claim batches under the same model
    # fingerprints keep hitting rows scored in earlier batches
    epoch_cache = EpochProposalCache()
    fingerprints = system.model_fingerprints
    specs = {
        user_id: (profile, texts)
        for user_id, profile, texts in store.load_session_specs()
    }
    trajectories: dict[str, object] = {}
    constraints: dict[str, object] = {}
    constraint_keys: dict[str, str | None] = {}
    all_stats: list = []
    cells_deduped = 0
    report = WorkerReport(worker_id=worker_id)
    unrecoverable: set[tuple[str, int]] = set()

    def computable(user_id: str, t: int) -> bool:
        """Source check + per-user hydration for one claimed cell.

        Returns ``True`` when the cell can be computed; a cell that
        cannot is skipped and its lease handed back.
        """
        session = system.sessions.get(user_id)
        spec = specs.get(user_id)
        if session is None and (spec is None or spec[1] is None):
            # not recomputable by this worker: hand the lease back and
            # never claim the cell again (it stays stale until the
            # user's session is recreated — surfaced, like refresh's
            # skipped_stale_cells)
            unrecoverable.add((user_id, t))
            store.release_cells(worker_id, [(user_id, t)])
            report.skipped_cells.append((user_id, t))
            return False
        if user_id not in trajectories:
            if session is not None:
                trajectories[user_id] = session.trajectory
                constraints[user_id] = session.constraints
                constraint_keys[user_id] = session.constraints_key
            else:
                profile, texts = spec
                trajectories[user_id] = system.update_function.trajectory(
                    profile, cfg.T
                )
                constraints[user_id] = system._join_constraints(texts)
                constraint_keys[user_id] = system._constraints_cache_key(texts)
        return True

    def renew(cells: list, now: float) -> list:
        """Renew the leases on ``cells`` in one call at lease-clock time
        ``now``; returns the cells still held.  A lease that expired
        belongs to another worker now: only when the call renews fewer
        cells than it was given are the cells probed one at a time to
        find the lost ones."""
        renewed = store.renew_leases(
            worker_id, cells, lease_seconds=lease_seconds, now=now
        )
        if renewed == len(cells):
            return cells
        held = [
            cell
            for cell in cells
            if store.renew_leases(
                worker_id, [cell], lease_seconds=lease_seconds, now=clock()
            )
        ]
        report.lost_leases += len(cells) - len(held)
        return held

    while True:
        if leader_token is not None and not store.verify_leader(
            str(leader_token[0]), int(leader_token[1]), now=clock()
        ):
            # the dispatching orchestrator was deposed: stop claiming on
            # its behalf — the new leader's own pool owns the drain now
            break
        budget = (
            claim_batch
            if max_cells is None
            else min(claim_batch, max_cells - len(report.cells))
        )
        if budget < 1:
            break
        claimed = store.claim_stale_cells(
            fingerprints,
            worker_id,
            limit=budget,
            lease_seconds=lease_seconds,
            now=clock(),
            exclude=unrecoverable,
            prefer_schema=claim_schema,
        )
        if not claimed:
            if store.refresh_budget_remaining() == 0:
                # the epoch's durable compute budget is spent: remaining
                # stale cells are *deferred*, not leased — waiting here
                # would spin forever (nothing will free more budget
                # until the orchestrator re-arms it next epoch)
                store.prune_expired_leases(now=clock())
                break
            if not store.has_stale_cells(fingerprints, exclude=unrecoverable):
                # queue genuinely drained; sweep expired lease rows left
                # behind by workers that died after upserting a cell but
                # before releasing it (the cell is fresh, so nothing
                # would ever claim — and thereby clean up — its lease)
                store.prune_expired_leases(now=clock())
                break
            # remaining stale cells are leased to other workers: wait for
            # them to finish (cells go fresh) or crash (leases expire and
            # the next claim picks the cells up)
            sleep(min(1.0, max(float(lease_seconds) / 4.0, 0.05)))
            continue
        ready = [(u, t) for u, t in claimed if computable(u, t)]
        # re-arm the claim's leases for the compute ahead
        renewed_at = clock()
        ready = renew(ready, renewed_at) if ready else []
        if not ready:
            continue
        cells = [
            system._fused_cell(
                user_id,
                t,
                trajectories[user_id][t],
                constraints[user_id],
                constraint_keys[user_id],
                warm=warm,
            )
            for user_id, t in ready
        ]

        # heartbeat: one fused call computes the *whole* claim before
        # anything is written, so with an epoch-sized claim_batch the
        # compute can outlive lease_seconds — and an expired lease is
        # never renewed (another worker may have reclaimed the cell),
        # which would lose every cell and re-claim the same batch
        # forever.  Rounds are milliseconds apart, so the round hook
        # renews the claim's leases (one bulk call) only once a quarter
        # of the lease has passed since their last renewal — the one
        # above counts — which keeps them live for the whole compute.
        def heartbeat(cells=ready):
            nonlocal renewed_at
            now = clock()
            if now - renewed_at < lease_seconds * _HEARTBEAT_SHARE:
                return
            store.renew_leases(
                worker_id, cells, lease_seconds=lease_seconds, now=now
            )
            renewed_at = now

        outcome, fused_report = generate_fused(
            cells, cache=epoch_cache, on_round=heartbeat
        )
        cells_deduped += fused_report.cells_deduped
        all_stats.extend(stats for _, stats in outcome.values())
        # the lock-stepped compute may have outlived the leases: cells
        # whose lease expired belong to another worker now
        survivors = renew(ready, clock())
        rows = [
            (user_id, t, outcome[(user_id, t)][0], trajectories[user_id][t])
            for user_id, t in survivors
        ]
        if rows:
            # one grouped transaction for the whole claim batch
            report.candidates_written += store.upsert_cells(
                rows, fingerprints=fingerprints
            )
            store.release_cells(worker_id, survivors)
            report.cells.extend(survivors)
    report.search = search_counter_totals(all_stats)
    report.search["cells_deduped"] = cells_deduped
    return report


def worker_main(
    system_path: str,
    db_path: str,
    worker_id: str,
    *,
    db_backend: str | None = None,
    warm_start: bool | None = None,
    claim_batch: int = 2,
    lease_seconds: float = 30.0,
    affinity_index: int | None = None,
    leader_token: tuple | None = None,
    result_path: str | None = None,
) -> WorkerReport:
    """Process entry point: load the saved system, drain, report.

    Each worker opens its **own** sqlite connection(s) to the shared
    store — connections are never shared across processes.
    ``affinity_index`` pins the worker to shard ``index % n_shards``
    (its claims drain that shard first, so its upserts lock a shard
    file the other workers' upserts do not).  With
    ``result_path`` set, a JSON summary is written for the coordinator.
    """
    system = load_system(
        system_path, store_path=db_path, store_backend=db_backend
    )
    claim_schema = None
    if affinity_index is not None:
        schemas = system.store.backend.schemas()
        claim_schema = schemas[int(affinity_index) % len(schemas)]
    try:
        report = drain_stale_cells(
            system,
            worker_id=worker_id,
            claim_batch=claim_batch,
            lease_seconds=lease_seconds,
            warm_start=warm_start,
            claim_schema=claim_schema,
            leader_token=leader_token,
        )
    finally:
        system.store.close()
    if result_path is not None:
        payload = {
            "worker_id": report.worker_id,
            "cells": [[u, t] for u, t in report.cells],
            "candidates_written": report.candidates_written,
            "skipped_cells": [[u, t] for u, t in report.skipped_cells],
            "lost_leases": report.lost_leases,
            "search": report.search,
        }
        Path(result_path).write_text(json.dumps(payload))
    return report


def run_worker_pool(
    system_path: str | Path,
    db_path: str | Path,
    *,
    n_workers: int,
    db_backend: str | None = None,
    warm_start: bool | None = None,
    claim_batch: int = 2,
    lease_seconds: float = 30.0,
    shard_affinity: bool = False,
    leader_token: tuple | None = None,
) -> PoolReport:
    """Spawn ``n_workers`` processes draining one shared store.

    The saved system at ``system_path`` must already hold the *refit*
    models (run :meth:`JustInTime.refit` + ``save_system`` first — the
    ``refresh-workers`` CLI verb does both).  ``shard_affinity=True``
    pins worker *i* to shard ``i % n_shards`` so each worker's upserts
    commit on a distinct shard file; the store contents are
    byte-identical either way.  Raises :class:`StorageError` if any
    worker exits non-zero; cells leased by a crashed worker are
    recovered by the survivors once the lease expires, so a partial
    pool failure leaves the store consistent, merely unfinished.

    ``leader_token`` fences every worker's claim rounds on the
    dispatching orchestrator's leader seat (see
    :func:`drain_stale_cells`) — pass it when the pool runs on behalf
    of an HA leader.
    """
    if n_workers < 1:
        raise StorageError("n_workers must be >= 1")
    # fork shares the parent's already-loaded interpreter state, so
    # worker startup is milliseconds instead of a fresh import chain;
    # fall back to spawn where fork does not exist (Windows) — the
    # module-level worker_main is spawn-safe
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with tempfile.TemporaryDirectory(prefix="repro-pool-") as tmp:
        procs = []
        result_paths = []
        for i in range(n_workers):
            result_path = str(Path(tmp) / f"worker-{i}.json")
            result_paths.append(result_path)
            procs.append(
                ctx.Process(
                    target=worker_main,
                    args=(str(system_path), str(db_path), f"worker-{i}"),
                    kwargs=dict(
                        db_backend=db_backend,
                        warm_start=warm_start,
                        claim_batch=claim_batch,
                        lease_seconds=lease_seconds,
                        affinity_index=i if shard_affinity else None,
                        leader_token=leader_token,
                        result_path=result_path,
                    ),
                )
            )
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        failures = [
            f"worker-{i} exitcode {proc.exitcode}"
            for i, proc in enumerate(procs)
            if proc.exitcode != 0
        ]
        if failures:
            raise StorageError(
                f"worker pool failed: {', '.join(failures)}"
            )
        reports = []
        for result_path in result_paths:
            payload = json.loads(Path(result_path).read_text())
            reports.append(
                WorkerReport(
                    worker_id=payload["worker_id"],
                    cells=[(u, int(t)) for u, t in payload["cells"]],
                    candidates_written=int(payload["candidates_written"]),
                    skipped_cells=[
                        (u, int(t)) for u, t in payload["skipped_cells"]
                    ],
                    lost_leases=int(payload["lost_leases"]),
                    # .get: summaries written by pre-fused worker builds
                    search=payload.get("search", {}),
                )
            )
    skipped = sorted({cell for r in reports for cell in r.skipped_cells})
    search_totals: dict = {}
    for r in reports:
        for key, value in (r.search or {}).items():
            search_totals[key] = search_totals.get(key, 0) + int(value)
    return PoolReport(
        workers=tuple(reports),
        cells_recomputed=sum(len(r.cells) for r in reports),
        candidates_written=sum(r.candidates_written for r in reports),
        skipped_cells=tuple(skipped),
        search=search_totals,
    )
