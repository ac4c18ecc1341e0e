"""Unified continuous refresh: drift → refit → worker-pool dispatch.

The :class:`RefreshOrchestrator` is the one feed-tailing refresh
service (the ``refresh-orchestrator`` verb; ``--workers 1`` runs a
single drain process) — one process that runs the whole
continuous-refresh loop:

1. tail a :class:`~repro.data.feed.DataFeed` and buffer arrivals
   (all the :class:`~repro.core.scheduler.RefreshScheduler` machinery:
   drift gate, cadence, pending cap, gate modes);
2. when an epoch opens, **refit** the future models on the merged
   history (:meth:`JustInTime.refit`) — every stored cell stamped under
   an old fingerprint is now stale in the ledger, but nothing is
   recomputed inline;
3. durably **checkpoint**: the refit models, the merged history and the
   feed cursor go into one atomic ``save_system`` write;
4. dispatch :func:`~repro.core.worker.run_worker_pool` — N worker
   processes drain the ledger under leases, each claim batch in one
   fused multi-cell search — and checkpoint again with the resulting
   store digest.

The two checkpoints bracket the drain, which is what makes a killed
orchestrator resumable **without re-ingesting or double-computing**:

* killed before checkpoint 3 — the previous save is intact (temp file +
  rename), the feed cursor still points at the unmerged rows, and the
  restarted orchestrator simply re-buffers them;
* killed during the drain — the saved system already holds the refit
  models and the advanced feed cursor; the restarted orchestrator finds
  stale cells in the ledger (:meth:`RefreshOrchestrator.recover`) and
  re-dispatches the pool, which recomputes **only** the cells the dead
  pool never finished (fresh cells left the stale set when they were
  upserted; in-flight cells come back once their leases expire);
* killed between the drain and checkpoint 4 — recovery sees a clean
  ledger and merely rewrites the final checkpoint.

Per-cell recomputes are deterministic, so however the loop is cut, the
final store contents are byte-identical to a one-shot ``refresh()``
over the merged stream (``CandidateStore.contents_digest`` — asserted
in ``tests/test_orchestrator.py``).

**Multi-orchestrator HA** (``ha=True``): N orchestrator processes
campaign over the store's ``leader_lease`` — a singleton lease
arbitrated by the store-side clock, exactly like worker leases — and
only the winner runs the loop; the others block in :meth:`campaign`
until the leader's lease expires.  Every leadership-scoped write
(checkpoints, pool dispatch) first *renews* the lease under its fencing
``(node_id, epoch)`` token, so a deposed leader's late ``save_system``
or drain raises :class:`~repro.exceptions.LeadershipLost` instead of
silently merging over the new leader's state; the worker pool carries
the same token into its claim rounds.  A standby that takes over picks
up the dead leader's feed cursor and interrupted drain through the
ordinary two-checkpoint recovery path — the final store digest stays
byte-identical to a never-failed run
(``benchmarks/bench_failover.py``).  Each checkpoint also publishes a
health/metrics snapshot into the store
(:meth:`CandidateStore.set_orchestrator_metrics`) for the
``/v1/orchestrator`` endpoint and the ``orchestrator-status`` CLI verb.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.core.persistence import save_system
from repro.core.scheduler import DriftGate, RefreshEpoch, RefreshScheduler
from repro.core.worker import PoolReport, run_worker_pool
from repro.data.feed import DataFeed
from repro.exceptions import LeadershipLost, StorageError

__all__ = ["EpochOutcome", "RefreshOrchestrator"]

#: drift-decision history entries kept in the published metrics snapshot
_METRICS_DRIFT_WINDOW = 20


@dataclass(frozen=True)
class EpochOutcome:
    """What one orchestrated epoch did (``RefreshEpoch.report``)."""

    #: model-stale time indices reported by the refit
    stale_times: tuple
    #: rows merged into the history by this epoch
    rows: int
    #: the worker pool's aggregate drain report
    pool: PoolReport
    #: store content digest after the drain (the identity check value)
    store_digest: str
    #: feed cursor persisted with this epoch (``None``: feed not resumable)
    feed_offset: int | None
    #: priority/budget/SLA outcome of this epoch — ``drained_by_tier``
    #: (hot/warm/cold cell counts by priority score), ``sla_violations``
    #: (escalated cells still stale after the drain),
    #: ``traffic_weighted`` (the store's traffic-weighted freshness
    #: snapshot) and ``budget`` (armed / remaining / carry-over).
    #: ``None`` when the orchestrator runs without budgets and SLAs.
    freshness: dict | None = None

    @property
    def cells_recomputed(self) -> int:
        return self.pool.cells_recomputed

    @property
    def candidates_written(self) -> int:
        return self.pool.candidates_written


class RefreshOrchestrator:
    """One-process driver of the feed → refit → pool-drain loop.

    Parameters
    ----------
    system:
        A fitted :class:`~repro.core.system.JustInTime` over a
        **file-backed** store (worker processes must be able to open
        their own connections to it).  Live sessions are *not* needed:
        workers recompute cells from the persisted session specs.
    feed:
        The arrival source.  Resumable feeds (:class:`CsvFeed`) have
        their cursor checkpointed inside every save.
    system_path:
        Where the system pickle lives; every checkpoint rewrites it
        atomically and the worker processes load it from there.
    db_path:
        The shared candidate-store database handed to the pool.
    gate / cadence / min_batch / max_pending_rows / gate_mode /
    ewma_halflife / warm_start / clock:
        Forwarded to the underlying
        :class:`~repro.core.scheduler.RefreshScheduler`.
    n_workers / db_backend / claim_batch / lease_seconds /
    shard_affinity:
        Forwarded to :func:`~repro.core.worker.run_worker_pool`;
        ``shard_affinity=True`` pins worker *i* to shard ``i %
        n_shards`` so each epoch's workers upsert into distinct shard
        files (digest-identical either way).
    budget:
        Optional per-epoch compute budget, in cells.  Each epoch arms
        the store's **durable** budget row with ``budget + carry-over``
        before dispatching the pool; every worker claim decrements it
        atomically, so the pool as a whole drains at most that many
        cells — highest priority first, the claim scan's order.  The
        unspent remainder carries into the next epoch (capped at one
        ``budget``) and both live in the checkpoint + store, so a
        ``kill -9`` anywhere preserves the queue position: a recovery
        drain continues against whatever budget the dead epoch had
        left.
    sla_epochs:
        Optional staleness SLA, in epochs: a cell continuously stale for
        this many completed epochs is **escalated** — the claim scan
        orders escalated cells ahead of every priority score, so heavy
        traffic can never starve a cold user forever.  Escalated cells
        still stale after the drain are counted as
        ``sla_violations`` on the epoch's freshness report.
    priority_halflife:
        Half-life (seconds) of the decayed per-user activity score
        folded from the serving tier's ``access_log`` at the top of
        every epoch (:meth:`CandidateStore.materialize_priorities`).
    fault_hook:
        Test/benchmark instrumentation: ``callable(stage)`` invoked at
        ``'epoch-saved'`` (after the pre-drain checkpoint) and
        ``'epoch-complete'`` (after the post-drain checkpoint).  Raising
        from the hook simulates the orchestrator process dying at that
        point; production runs leave it ``None``.
    ha / node_id / leader_ttl:
        ``ha=True`` turns on store-backed leader election: the
        orchestrator only runs the loop while it holds the
        ``leader_lease`` seat (:meth:`campaign` blocks until it wins),
        heartbeats the lease on every checkpoint / dispatch / idle
        poll, and **fences** every leadership-scoped write on its
        ``(node_id, lease epoch)`` token — losing the seat raises
        :class:`~repro.exceptions.LeadershipLost` instead of writing.
        ``node_id`` names this campaigner (defaults to a
        pid+random-suffix identity); ``leader_ttl`` is the lease TTL in
        store-clock seconds — keep it above the poll interval, or an
        idle leader will be deposed between polls.
    """

    def __init__(
        self,
        system,
        feed: DataFeed,
        *,
        system_path: str | Path,
        db_path: str | Path,
        db_backend: str | None = None,
        n_workers: int = 2,
        gate: DriftGate | None = None,
        cadence: float | None = None,
        min_batch: int = 1,
        max_pending_rows: int | None = None,
        gate_mode: str = "merged",
        ewma_halflife: float = 2.0,
        warm_start: bool | None = None,
        claim_batch: int = 2,
        lease_seconds: float = 30.0,
        shard_affinity: bool = False,
        budget: int | None = None,
        sla_epochs: int | None = None,
        priority_halflife: float = 3600.0,
        clock=time.monotonic,
        fault_hook=None,
        ha: bool = False,
        node_id: str | None = None,
        leader_ttl: float = 30.0,
    ):
        if n_workers < 1:
            raise StorageError("n_workers must be >= 1")
        if budget is not None and budget < 1:
            raise StorageError("budget must be >= 1 or None")
        if sla_epochs is not None and sla_epochs < 1:
            raise StorageError("sla_epochs must be >= 1 or None")
        if leader_ttl <= 0:
            raise StorageError("leader_ttl must be positive")
        if getattr(system.store.backend, "path", ":memory:") == ":memory:":
            raise StorageError(
                "the orchestrator needs a file-backed store: worker"
                " processes open their own connections to it"
            )
        self.system = system
        self.feed = feed
        self.system_path = Path(system_path)
        self.db_path = Path(db_path)
        self.db_backend = db_backend
        self.n_workers = int(n_workers)
        self.warm_start = warm_start
        self.claim_batch = int(claim_batch)
        self.lease_seconds = float(lease_seconds)
        self.shard_affinity = bool(shard_affinity)
        self.fault_hook = fault_hook
        self.ha = bool(ha)
        self.node_id = (
            str(node_id)
            if node_id
            else f"orch-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self.leader_ttl = float(leader_ttl)
        #: fencing token of the held seat (``None`` while not leading)
        self.lease_epoch: int | None = None
        #: expired seats this node took over when winning a campaign —
        #: each one is a leader that died (or stalled past its TTL)
        self.lease_takeovers = 0
        # this process's drain totals, published with the metrics
        # snapshot (durable state — the epoch counter, carry-over,
        # stale-since — lives in the checkpoint instead)
        self._cells_drained = 0
        self._candidates_written = 0
        self._lost_leases = 0
        self._skipped_cells = 0
        self.budget = None if budget is None else int(budget)
        self.sla_epochs = None if sla_epochs is None else int(sla_epochs)
        self.priority_halflife = float(priority_halflife)
        state = dict(system.saved_extra.get("orchestrator") or {})
        self._epochs_completed = int(state.get("epochs", 0))
        #: unspent budget rolled into the next epoch (checkpointed)
        self._carryover = int(state.get("carryover", 0))
        #: first epoch index each currently-stale cell was seen stale at
        #: (checkpointed; drives SLA escalation)
        self._stale_since: dict[tuple[str, int], int] = {
            (str(u), int(t)): int(e)
            for u, t, e in state.get("stale_since", ())
        }
        self._recovered = False
        #: pool report of the startup :meth:`recover` drain, if one ran
        self.last_recovery: PoolReport | None = None
        self.scheduler = RefreshScheduler(
            system,
            feed,
            gate=gate,
            cadence=cadence,
            min_batch=min_batch,
            max_pending_rows=max_pending_rows,
            warm_start=warm_start,
            clock=clock,
            gate_mode=gate_mode,
            ewma_halflife=ewma_halflife,
            refresh=self._run_epoch,
        )

    # ------------------------------------------------------------- state

    @property
    def epochs(self) -> list[RefreshEpoch]:
        """Epochs run by this orchestrator (``report`` holds the
        :class:`EpochOutcome`)."""
        return self.scheduler.epochs

    @property
    def epochs_completed(self) -> int:
        """Durable epoch counter (survives restarts via the checkpoint)."""
        return self._epochs_completed

    @property
    def pending_rows(self) -> int:
        return self.scheduler.pending_rows

    @property
    def carryover(self) -> int:
        """Unspent budget rolled into the next epoch (0 without one)."""
        return self._carryover

    # -------------------------------------------------------- leadership

    def campaign(
        self, *, sleep=time.sleep, max_wait: float | None = None
    ) -> int:
        """Block until this node holds the leader seat; returns the
        fencing lease epoch.

        Re-campaigning while already leading just renews the seat
        (idempotent, like re-claiming one's own cell lease), so the CLI
        can campaign on a bare store handle first and the orchestrator
        instantly confirms the same seat here.  ``max_wait`` bounds the
        wait (``StorageError`` on timeout — tests and probes); ``None``
        campaigns forever, which is what a standby *is*.
        """
        store = self.system.store
        interval = max(self.leader_ttl / 4.0, 0.05)
        waited = 0.0
        while True:
            before = store.leader_status()
            epoch = store.acquire_leader_lease(
                self.node_id, ttl_seconds=self.leader_ttl
            )
            if epoch is not None:
                if (
                    before is not None
                    and str(before["leader_id"]) != self.node_id
                ):
                    # won by outliving someone else's expired seat
                    self.lease_takeovers += 1
                self.lease_epoch = int(epoch)
                return self.lease_epoch
            if max_wait is not None and waited >= max_wait:
                raise StorageError(
                    f"node {self.node_id!r} could not win leadership"
                    f" within {max_wait}s"
                )
            sleep(interval)
            waited += interval

    def resign(self) -> None:
        """Step down cleanly (expire the held lease so a standby takes
        over immediately); a no-op when not leading."""
        if self.lease_epoch is None:
            return
        self.system.store.resign_leader_lease(self.node_id, self.lease_epoch)
        self.lease_epoch = None

    def _fence(self) -> None:
        """Prove-and-extend leadership before a leadership-scoped write.

        Renewal is the proof: the conditional update only succeeds while
        ``(node_id, lease_epoch)`` is the live seat, so one store round
        trip both heartbeats the lease and fences the write.  Losing the
        seat raises :class:`LeadershipLost` — the caller's checkpoint or
        drain dispatch never happens.  No-op outside HA mode.
        """
        if not self.ha:
            return
        if self.lease_epoch is None:
            raise LeadershipLost(
                f"node {self.node_id!r} is not leading; campaign() first"
            )
        if not self.system.store.renew_leader_lease(
            self.node_id, self.lease_epoch, ttl_seconds=self.leader_ttl
        ):
            epoch = self.lease_epoch
            self.lease_epoch = None
            raise LeadershipLost(
                f"node {self.node_id!r} lost the leader lease (epoch"
                f" {epoch}): another orchestrator took over; this write"
                " was fenced"
            )

    def metrics_snapshot(self, phase: str = "idle") -> dict:
        """The health/metrics payload published at every checkpoint —
        what ``/v1/orchestrator`` and ``orchestrator-status`` surface."""
        drift = []
        for epoch in self.scheduler.epochs[-_METRICS_DRIFT_WINDOW:]:
            decision = epoch.drift
            drift.append(
                {
                    "trigger": epoch.trigger,
                    "rows": int(epoch.rows),
                    "assessed": (
                        None if decision is None else bool(decision.assessed)
                    ),
                    "drifted": (
                        None if decision is None else bool(decision.drifted)
                    ),
                    "mmd": (
                        None
                        if decision is None or decision.mmd is None
                        else float(decision.mmd)
                    ),
                    "label_shift": (
                        None
                        if decision is None or decision.label_shift is None
                        else float(decision.label_shift)
                    ),
                }
            )
        payload = {
            "node_id": self.node_id,
            "ha": self.ha,
            "lease_epoch": self.lease_epoch,
            "lease_takeovers": self.lease_takeovers,
            "phase": str(phase),
            "epochs_completed": self._epochs_completed,
            "cells_drained": self._cells_drained,
            "candidates_written": self._candidates_written,
            # claim contention: compute-finished-but-lease-gone rounds
            # (another claimant took the cell) + uncomputable skips
            "lost_leases": self._lost_leases,
            "skipped_cells": self._skipped_cells,
            "pending_rows": self.scheduler.pending_rows,
            "drift": drift,
            "budget": None
            if self.budget is None
            else {"budget": self.budget, "carryover": self._carryover},
            "sla": None
            if self.sla_epochs is None
            else {
                "sla_epochs": self.sla_epochs,
                "tracked_stale_cells": len(self._stale_since),
            },
        }
        return payload

    def _publish_metrics(self, phase: str) -> None:
        self.system.store.set_orchestrator_metrics(
            self.metrics_snapshot(phase)
        )

    # ------------------------------------------------------------ epochs

    def _checkpoint(self, phase: str, *, digest: str | None = None) -> None:
        """One atomic durable write of the orchestrator's full state:
        models + merged history (the pickle payload), the feed cursor,
        and the loop phase — a single temp-and-rename ``save_system``,
        so a crash can never leave the cursor ahead of the history it
        belongs to.  In HA mode the write is fenced: it only happens
        while this node still holds the leader seat."""
        self._fence()
        extra = dict(self.system.saved_extra)
        cursor = self.feed.checkpoint
        if cursor is not None:
            extra["feed_offset"] = int(cursor)
            # bind the cursor to its feed file: a byte offset applied to
            # a *different* feed would silently skip that file's head
            feed_path = getattr(self.feed, "path", None)
            if feed_path is not None:
                extra["feed_path"] = str(Path(feed_path).resolve())
        state = {"phase": phase, "epochs": self._epochs_completed}
        if digest is not None:
            state["store_digest"] = digest
        if self.budget is not None:
            state["carryover"] = int(self._carryover)
        if self._stale_since:
            state["stale_since"] = sorted(
                [u, t, e] for (u, t), e in self._stale_since.items()
            )
        extra["orchestrator"] = state
        # keep the in-memory copy in sync so later saves (ours or another
        # operator verb's) carry the cursor forward instead of wiping it
        self.system.saved_extra = extra
        save_system(self.system, self.system_path, extra=extra)
        # advisory health snapshot, after the durable write it describes
        self._publish_metrics(phase)

    def _dispatch_pool(self) -> PoolReport:
        self._fence()
        return run_worker_pool(
            self.system_path,
            self.db_path,
            n_workers=self.n_workers,
            db_backend=self.db_backend,
            warm_start=self.warm_start,
            claim_batch=self.claim_batch,
            lease_seconds=self.lease_seconds,
            shard_affinity=self.shard_affinity,
            leader_token=(
                (self.node_id, self.lease_epoch) if self.ha else None
            ),
        )

    def _drain_and_checkpoint(self) -> tuple[PoolReport, str]:
        """The kill-safety epilogue — checkpoint ``'draining'`` →
        dispatch pool → digest → count the epoch → checkpoint ``'idle'``
        — shared verbatim by normal epochs and :meth:`recover`, so the
        two paths can never diverge on the checkpoint protocol.  The
        fault hooks fire in both, letting the fault-injection suite kill
        recovery drains too."""
        self._checkpoint("draining")
        if self.fault_hook is not None:
            self.fault_hook("epoch-saved")
        pool = self._dispatch_pool()
        self._cells_drained += pool.cells_recomputed
        self._candidates_written += pool.candidates_written
        self._lost_leases += sum(w.lost_leases for w in pool.workers)
        self._skipped_cells += len(pool.skipped_cells)
        digest = self._close_epoch()
        if self.fault_hook is not None:
            self.fault_hook("epoch-complete")
        return pool, digest

    def _close_epoch(self) -> str:
        """Count a drained epoch and checkpoint ``'idle'`` with the
        store's digest, which it returns."""
        # fold the drain's outcome into the durable budget/SLA state
        # *before* the idle checkpoint, so the checkpointed carry-over
        # and stale-since map always describe the post-drain store
        if self.budget is not None:
            remaining = self.system.store.refresh_budget_remaining()
            self._carryover = min(int(remaining or 0), self.budget)
        if self._stale_since:
            still = set(
                self.system.store.stale_cells(self.system.model_fingerprints)
            )
            self._stale_since = {
                cell: first
                for cell, first in self._stale_since.items()
                if cell in still
            }
        digest = self.system.store.contents_digest()
        self._epochs_completed += 1
        self._checkpoint("idle", digest=digest)
        return digest

    def _epoch_prologue(self) -> tuple[dict, list]:
        """Arm the epoch's priority/budget/SLA state before the drain:
        fold the serving tier's access log into decayed scores, escalate
        cells stale past their SLA, and arm the durable budget row with
        ``budget + carry-over``.  Returns ``(scores, overdue)`` for the
        post-drain freshness report."""
        store = self.system.store
        store.materialize_priorities(halflife_seconds=self.priority_halflife)
        scores = store.user_priorities()
        overdue: list[tuple[str, int]] = []
        if self.sla_epochs is not None:
            epoch = self._epochs_completed
            stale = store.stale_cells(self.system.model_fingerprints)
            self._stale_since = {
                cell: self._stale_since.get(cell, epoch) for cell in stale
            }
            overdue = sorted(
                cell
                for cell, first in self._stale_since.items()
                if epoch - first >= self.sla_epochs
            )
            store.clear_escalations()
            if overdue:
                store.escalate_cells(overdue)
        if self.budget is not None:
            store.set_refresh_budget(self.budget + self._carryover)
        else:
            # an operator restarting without a budget means *unlimited*:
            # drop any budget row a previously budgeted run left armed
            store.set_refresh_budget(None)
        return scores, overdue

    def _epoch_freshness(self, pool, scores, overdue) -> dict | None:
        """The epoch's priority/budget/SLA outcome (``None`` when the
        orchestrator runs without budgets and SLAs).  Tiers by score
        snapshot: ``hot`` ≥ 1 (at least one un-decayed access), ``warm``
        > 0, ``cold`` no recorded traffic."""
        if self.budget is None and self.sla_epochs is None:
            return None
        store = self.system.store
        tiers = {"hot": 0, "warm": 0, "cold": 0}
        for worker in pool.workers:
            for user_id, _t in worker.cells:
                score = scores.get(user_id, 0.0)
                tiers[
                    "hot" if score >= 1.0 else "warm" if score > 0.0 else "cold"
                ] += 1
        # _drain_and_checkpoint already pruned fresh cells; survivors of
        # the overdue list are the cells the SLA escalated and the
        # budgeted drain *still* could not reach
        violations = sum(1 for cell in overdue if cell in self._stale_since)
        freshness = {
            "drained_by_tier": tiers,
            "sla_violations": violations,
            "traffic_weighted": store.traffic_weighted_freshness(
                self.system.model_fingerprints
            ),
        }
        if self.budget is not None:
            freshness["budget"] = {
                "budget": self.budget,
                "remaining": store.refresh_budget_remaining(),
                "carryover": self._carryover,
            }
        return freshness

    def _run_epoch(self, data, warm_start) -> EpochOutcome:
        """The scheduler's epoch executor: refit → arm priority/budget →
        checkpoint → drain → checkpoint.  ``warm_start`` equals the
        scheduler's setting and is forwarded to the pool (already
        captured in ``self.warm_start``)."""
        stale = self.system.refit(data)
        scores, overdue = self._epoch_prologue()
        pool, digest = self._drain_and_checkpoint()
        return EpochOutcome(
            stale_times=tuple(stale),
            rows=len(data),
            pool=pool,
            store_digest=digest,
            feed_offset=self.feed.checkpoint,
            freshness=self._epoch_freshness(pool, scores, overdue),
        )

    # ----------------------------------------------------------- running

    def recover(self) -> PoolReport | None:
        """Finish a drain a previous orchestrator did not live to see.

        Stale cells in the ledger at startup mean the dead orchestrator
        already refit the models and durably advanced the feed cursor,
        but its pool never (fully) drained — so the one correct move is
        to drain now, **before** polling for new data.  Cells the dead
        pool completed are fresh and are not recomputed; cells still
        under a dead worker's lease come back when the lease expires.
        A clean ledger (or a spent budget, below) with a ``'draining'``
        phase on record means the kill landed between the drain and its
        final checkpoint: the epoch is closed without a pool.  Returns
        the recovery pool's report, or ``None`` if there was nothing to
        recover.

        Stale cells of users **without a resumable session spec** do not
        count: no pool can ever compute them (they surface as
        ``skipped_cells``), so treating them as an interrupted drain
        would dispatch a do-nothing pool — and bump the epoch counter —
        on every startup for as long as those users stay stale.

        A budgeted orchestrator's recovery drain runs against whatever
        the **durable budget row** still allows — the dead epoch's queue
        position is preserved, never reset.  A row at 0 means the stale
        cells were deferred by a spent budget, not interrupted, so there
        is nothing to recover.  Only an orchestrator configured
        *without* a budget clears a leftover row first (restarting
        unbudgeted means unlimited).
        """
        self._recovered = True
        store = self.system.store
        if self.budget is None:
            store.set_refresh_budget(None)
        fingerprints = self.system.model_fingerprints
        state = dict(self.system.saved_extra.get("orchestrator") or {})
        resumable = {
            user_id
            for user_id, _, texts in store.load_session_specs()
            if texts is not None
        }
        recoverable = store.refresh_budget_remaining() != 0 and any(
            cell[0] in resumable for cell in store.stale_cells(fingerprints)
        )
        if not recoverable:
            if state.get("phase") == "draining":
                self._close_epoch()
            return None
        # the pre-drain checkpoint also guarantees the saved pickle
        # carries the current (refit) models before workers load it
        pool, _ = self._drain_and_checkpoint()
        self.last_recovery = pool
        return pool

    def poll_once(self) -> RefreshEpoch | None:
        """One scheduler step (poll the feed, maybe run a full epoch)."""
        return self.scheduler.poll_once()

    def run(
        self,
        *,
        max_polls: int | None = None,
        max_epochs: int | None = None,
        poll_interval: float = 0.0,
        sleep=time.sleep,
        on_epoch=None,
    ) -> list[RefreshEpoch]:
        """Recover any interrupted drain (unless :meth:`recover` already
        ran on this instance — the CLI calls it explicitly first to
        report the result), then poll until the feed is exhausted or a
        budget is reached (see :meth:`RefreshScheduler.run`).

        In HA mode, campaigns first (blocking until this node wins the
        seat) and heartbeats the lease on every idle poll — active
        polls renew it through their checkpoints' fences."""
        if self.ha:
            if self.lease_epoch is None:
                self.campaign(sleep=sleep)
            inner_sleep = sleep

            def sleep(seconds, _sleep=inner_sleep):
                self._fence()
                _sleep(seconds)

        if not self._recovered:
            self.recover()
        return self.scheduler.run(
            max_polls=max_polls,
            max_epochs=max_epochs,
            poll_interval=poll_interval,
            sleep=sleep,
            on_epoch=on_epoch,
        )
