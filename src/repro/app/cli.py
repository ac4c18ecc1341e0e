"""Command-line frontend: the demo's three screens as a terminal app.

Subcommands
-----------

``justintime demo``
    Scripted reenactment of §III: five denied applicants walk through
    Preferences → Queries → Insights with pre-set preferences.
``justintime interactive``
    The audience-participation mode: enter a profile and preferences,
    pick canned questions, read insights.  Reads from stdin so it is
    scriptable and testable.
``justintime quickstart``
    Minimal single-user run printing all six insights for John.
``justintime refresh``
    The incremental operator step: ingest new data against a saved
    system + candidate database and recompute only the stale cells.
``justintime refresh-workers``
    The scale-out operator: refit on new data, then drain the stale
    (user × time-point) cells with N lease-coordinated worker
    *processes* sharing the candidate database.
``justintime refresh-orchestrator``
    The streaming operator and deployable continuous-refresh service:
    one process that tails an append-only CSV feed, opens epochs on
    drift detection (MMD / label shift vs the training history) and/or
    a fixed cadence, refits, and dispatches a worker pool per epoch
    (``--workers 1`` for a single drain process) — checkpointing
    (models, feed cursor, store digest) atomically so a killed
    orchestrator resumes without re-ingesting or double-computing.
``justintime rebalance``
    The storage operator: migrate a file-backed sharded candidate
    database to a new shard count, digest-invariant and crash-safe
    (an interrupted migration is healed on the next open).
``justintime query``
    Run canned questions against a stored candidate database from the
    shell — human-readable by default, ``--json`` for the canonical
    serialization shared with the HTTP serving tier.
``justintime serve``
    The serving tier: an async HTTP/JSON API over the candidate
    database with a fingerprint-validated rendered-insight cache and
    per-shard read-only replica connections.
``justintime orchestrator-status``
    Read-side HA observability: the current leader lease (holder,
    epoch, age), the leader's last published metrics snapshot and the
    budget/freshness state — the CLI twin of ``GET /v1/orchestrator``.

``refresh-orchestrator --standby`` turns the orchestrator into a
campaigner: it blocks until the store-backed leader lease is won (the
previous leader died or resigned), *then* loads the dead leader's last
checkpoint and continues the feed from its cursor.  Every checkpoint
and pool dispatch is fenced on the lease epoch, so a deposed leader's
late writes are rejected instead of silently merging.

All subcommands accept ``--n-per-year``, ``--strategy``, ``--horizon``
and ``--seed`` to control the backing system, plus ``--db`` /
``--db-backend`` to pick the candidate store.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time
import uuid
from pathlib import Path
from typing import IO

import numpy as np

from repro.constraints import lending_domain_constraints
from repro.core import (
    AdminConfig,
    DriftGate,
    JustInTime,
    RefreshOrchestrator,
    UserSession,
    load_system,
    run_worker_pool,
    save_system,
)
from repro.core.insights import QUESTIONS
from repro.app.render import bar_chart, insight_block, profile_table, screen_header
from repro.data import (
    CsvFeed,
    LendingGenerator,
    TemporalDataset,
    john_profile,
    lending_schema,
    make_lending_dataset,
)
from repro.core.insights import InsightEngine
from repro.db.store import CandidateStore
from repro.exceptions import LeadershipLost, QueryError, StorageError
from repro.serve import (
    InsightServer,
    bundle_freshness_seconds,
    bundle_payload,
    dumps,
    orchestrator_payload,
)
from repro.temporal import lending_update_function

__all__ = [
    "build_system",
    "main",
    "run_admin",
    "run_demo",
    "run_interactive",
    "run_orchestrator_status",
    "run_query",
    "run_quickstart",
    "run_rebalance",
    "run_refresh",
    "run_refresh_orchestrator",
    "run_refresh_workers",
    "run_serve",
]


def build_system(
    n_per_year: int = 150,
    strategy: str = "last",
    horizon: int = 4,
    seed: int = 0,
    k: int = 6,
    load: str | None = None,
    db: str | None = None,
    db_backend: str | None = None,
) -> JustInTime:
    """Construct (or load) a fitted lending JustInTime system.

    With ``load`` set, the pre-trained system saved by ``justintime
    admin --save`` is reconstructed instead of retraining — the paper's
    deployment split between the administrator and the users.
    """
    store_path = db or ":memory:"
    if load:
        return load_system(load, store_path=store_path, store_backend=db_backend)
    schema = lending_schema()
    config = AdminConfig(T=horizon, strategy=strategy, k=k, random_state=seed)
    system = JustInTime(
        schema,
        lending_update_function(schema),
        config,
        domain_constraints=lending_domain_constraints(schema),
        store_path=store_path,
        store_backend=db_backend,
    )
    system.fit(make_lending_dataset(n_per_year=n_per_year, random_state=seed))
    return system


def _print_insights(session: UserSession, out: IO[str], alpha: float, feature: str) -> None:
    out.write(screen_header("Plans and Insights") + "\n")
    for insight in session.all_insights(alpha=alpha, feature=feature):
        out.write(insight_block(insight) + "\n\n")
    out.write(
        bar_chart(
            session.engine.confidence_series(),
            title="best achievable confidence per time point:",
            value_format="{:.2f}",
        )
        + "\n"
    )
    out.write(
        bar_chart(
            session.engine.effort_series(),
            title="minimal required effort (diff) per time point:",
        )
        + "\n\n"
    )


def run_demo(args, out: IO[str] | None = None) -> int:
    """Five denied applicants, each with different preferences (§III)."""
    out = out if out is not None else sys.stdout
    system = build_system(args.n_per_year, args.strategy, args.horizon,
                          args.seed, load=args.load, db=args.db,
                          db_backend=args.db_backend)
    generator = LendingGenerator(random_state=args.seed + 13)
    profiles = generator.sample_rejected(system.time_values[0], n=5)
    preference_sets = [
        [],  # no preferences
        ["annual_income <= base_annual_income * 1.2"],
        ["monthly_debt >= base_monthly_debt"],  # cannot reduce debt
        ["gap <= 2"],
        ["loan_amount == base_loan_amount", "household == base_household"],
    ]
    for i, (profile, prefs) in enumerate(zip(profiles, preference_sets), start=1):
        user_id = f"applicant-{i}"
        out.write(screen_header(f"Denied application {i}/5 — {user_id}") + "\n")
        out.write(profile_table(system.schema, profile) + "\n")
        out.write(screen_header("Personal Preferences") + "\n")
        if prefs:
            for p in prefs:
                out.write(f"  constraint: {p}\n")
        else:
            out.write("  (no personal constraints)\n")
        session = system.create_session(user_id, profile, user_constraints=prefs)
        out.write(
            f"present score: {session.current_score():.3f}"
            f" (threshold {system.future_models[0].threshold:.2f})\n"
        )
        _print_insights(session, out, alpha=args.alpha, feature="monthly_debt")
    return 0


def run_quickstart(args, out: IO[str] | None = None) -> int:
    """John's running example end to end."""
    out = out if out is not None else sys.stdout
    system = build_system(args.n_per_year, args.strategy, args.horizon,
                          args.seed, load=args.load, db=args.db,
                          db_backend=args.db_backend)
    out.write(screen_header("JustInTime quickstart — John, 29") + "\n")
    out.write(profile_table(system.schema, system.schema.vector(john_profile())) + "\n")
    session = system.create_session(
        "john",
        john_profile(),
        user_constraints=["annual_income <= base_annual_income * 1.2"],
    )
    out.write(f"rejected now: {session.is_rejected_now()}\n")
    _print_insights(session, out, alpha=args.alpha, feature="monthly_debt")
    return 0


def run_interactive(
    args, out: IO[str] | None = None, stdin: IO[str] | None = None
) -> int:
    """Audience-participation mode; reads answers line by line from stdin.

    ``out``/``stdin`` resolve to the *current* sys streams at call time
    (not import time) so test harnesses and REPL redirections work.
    """
    out = out if out is not None else sys.stdout
    stdin = stdin if stdin is not None else sys.stdin
    system = build_system(args.n_per_year, args.strategy, args.horizon,
                          args.seed, load=args.load, db=args.db,
                          db_backend=args.db_backend)
    schema = system.schema

    def ask(prompt: str, default: str) -> str:
        out.write(f"{prompt} [{default}]: ")
        out.flush()
        line = stdin.readline()
        if not line:
            return default
        line = line.strip()
        return line or default

    out.write(screen_header("Personal Preferences") + "\n")
    defaults = john_profile()
    values = {}
    for spec in schema:
        raw = ask(f"{spec.name} ({spec.description})", str(defaults[spec.name]))
        try:
            values[spec.name] = float(raw)
        except ValueError:
            out.write(f"  not a number, using default {defaults[spec.name]}\n")
            values[spec.name] = float(defaults[spec.name])
    constraints: list[str] = []
    while True:
        text = ask("add a constraint (empty to finish)", "")
        if not text:
            break
        constraints.append(text)
    session = system.create_session("participant", values, user_constraints=constraints)
    out.write(screen_header("Queries") + "\n")
    for qid, title in QUESTIONS.items():
        out.write(f"  {qid}: {title}\n")
    picked = ask("question ids to run, comma-separated", "q1,q2,q4,q5")
    out.write(screen_header("Plans and Insights") + "\n")
    for qid in (q.strip() for q in picked.split(",")):
        if qid not in QUESTIONS:
            out.write(f"  unknown question {qid!r}, skipping\n")
            continue
        params = {}
        if qid == "q3":
            params["feature"] = ask("dominant feature to test", "monthly_debt")
        if qid == "q6":
            params["alpha"] = float(ask("confidence level alpha", str(args.alpha)))
        if qid == "q7":
            params["budget"] = float(ask("effort budget (scaled diff)", "1.0"))
        out.write(insight_block(session.ask(qid, **params)) + "\n\n")
    return 0


def _runtime_parents() -> dict[str, argparse.ArgumentParser]:
    """Shared argparse parents for the operator verbs.

    The refresh family (``refresh``, ``refresh-workers``,
    ``refresh-orchestrator``) composes its runtime flags from these
    groups instead of re-declaring them per subparser, so a new flag
    (``--budget``) appears on every verb that composes the parent.
    ``--db``/``--db-backend`` deliberately stay root-level only: a
    subparser copy would clobber the root's parsed value with its
    default.
    """
    warm = argparse.ArgumentParser(add_help=False)
    warm.add_argument(
        "--cold",
        action="store_true",
        help="disable warm-start (bit-identical to a cold recompute)",
    )
    worker = argparse.ArgumentParser(add_help=False)
    worker.add_argument(
        "--workers", type=int, default=2, help="worker process count"
    )
    worker.add_argument(
        "--claim-batch",
        type=int,
        default=2,
        help="stale cells a worker leases per claim",
    )
    worker.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="lease duration; expired leases are reclaimable",
    )
    worker.add_argument(
        "--shard-affinity",
        action="store_true",
        help="pin worker i to shard i %% n_shards so each worker's"
        " upserts commit on its own shard file (sharded stores)",
    )
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument(
        "--feed", required=True, help="append-only CSV file to tail"
    )
    stream.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds to sleep between idle polls",
    )
    stream.add_argument(
        "--cadence",
        type=float,
        default=None,
        help="refresh every this many seconds when rows are pending",
    )
    stream.add_argument(
        "--drift-mmd",
        type=float,
        default=None,
        help="refresh when pending-batch MMD vs the recent history"
        " exceeds this",
    )
    stream.add_argument(
        "--drift-label-shift",
        type=float,
        default=None,
        help="refresh when the pending positive-rate shift exceeds this",
    )
    stream.add_argument(
        "--min-batch",
        type=int,
        default=1,
        help="buffer at least this many rows before any refresh",
    )
    stream.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="force a refresh when this many rows are buffered",
    )
    stream.add_argument(
        "--max-polls",
        type=int,
        default=None,
        help="stop after this many polls (default: run forever)",
    )
    stream.add_argument(
        "--max-epochs",
        type=int,
        default=None,
        help="stop after this many refresh epochs",
    )
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget",
        type=int,
        default=None,
        help="compute budget: recompute at most this many stale cells per"
        " refresh/epoch, highest-priority users first (the orchestrator"
        " carries unspent budget over between epochs; default: unlimited)",
    )
    return {
        "warm": warm,
        "worker": worker,
        "stream": stream,
        "budget": budget,
    }


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="justintime",
        description="JustInTime: personal temporal insights for altering"
        " model decisions (ICDE 2019 reproduction)",
    )
    parser.add_argument("--n-per-year", type=int, default=150)
    parser.add_argument(
        "--strategy",
        default="last",
        choices=["last", "full", "reweight", "weights", "edd"],
    )
    parser.add_argument("--horizon", type=int, default=4, help="T, future points")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float, default=0.55)
    parser.add_argument(
        "--load",
        default=None,
        help="load a pre-trained system saved by 'admin --save' instead of"
        " retraining",
    )
    parser.add_argument(
        "--db",
        default=None,
        help="candidate database file (default: in-memory)",
    )
    parser.add_argument(
        "--db-backend",
        default=None,
        choices=["sqlite", "memory", "sharded"],
        help="candidate store backend (default: inferred from --db)",
    )
    parents = _runtime_parents()
    warm, worker, stream, budget = (
        parents["warm"], parents["worker"], parents["stream"], parents["budget"]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="five denied applicants, scripted (§III)")
    sub.add_parser("quickstart", help="John's running example")
    sub.add_parser("interactive", help="enter your own profile")
    admin = sub.add_parser(
        "admin", help="train the future models once and save the system"
    )
    admin.add_argument("--save", required=True, help="output path (.pkl)")
    refresh = sub.add_parser(
        "refresh",
        help="re-forecast on new data and recompute only the stale"
        " (user × time-point) cells of the stored sessions",
        parents=[warm, budget],
    )
    refresh.add_argument(
        "--new-n", type=int, default=120, help="new samples to ingest"
    )
    refresh.add_argument(
        "--at",
        type=float,
        default=None,
        help="timestamp of the new samples (default: latest history year)",
    )
    workers = sub.add_parser(
        "refresh-workers",
        help="refit on new data, then drain the stale cells with N"
        " lease-coordinated worker processes",
        parents=[worker, warm, budget],
    )
    workers.add_argument(
        "--new-n",
        type=int,
        default=120,
        help="new samples to ingest before draining (0: only drain"
        " already-stale cells)",
    )
    workers.add_argument(
        "--at",
        type=float,
        default=None,
        help="timestamp of the new samples (default: latest history year)",
    )
    rebalance = sub.add_parser(
        "rebalance",
        help="migrate a sharded candidate database to a new shard count"
        " (digest-invariant, crash-safe)",
    )
    rebalance.add_argument(
        "--to-shards",
        type=int,
        required=True,
        help="target shard count (1-8)",
    )
    orchestrator = sub.add_parser(
        "refresh-orchestrator",
        help="the unified continuous-refresh service: tail a feed, refit"
        " on drift/cadence epochs, drain each epoch with a worker pool,"
        " checkpoint atomically for kill-safe resume",
        parents=[stream, worker, warm, budget],
    )
    orchestrator.add_argument(
        "--gate-mode",
        default="merged",
        choices=["merged", "batch", "ewma"],
        help="what the drift gate assesses: the merged pending buffer"
        " (default), each polled batch (sticky verdict), or an"
        " exponentially-weighted pending window",
    )
    orchestrator.add_argument(
        "--ewma-halflife",
        type=float,
        default=2.0,
        help="half-life, in batches, of the ewma gate-mode weights"
        " (a row's weight halves every this many later arrivals)",
    )
    orchestrator.add_argument(
        "--sla-epochs",
        type=int,
        default=None,
        help="staleness SLA: a cell stale for this many completed epochs"
        " escalates to the front of the budgeted drain regardless of"
        " its user's priority score",
    )
    orchestrator.add_argument(
        "--priority-halflife",
        type=float,
        default=3600.0,
        help="decay half-life (seconds) of the per-user activity scores"
        " folded from the serving tier's access_log",
    )
    orchestrator.add_argument(
        "--standby",
        action="store_true",
        help="campaign for the store-backed leader lease before loading"
        " the system; block until leadership is won (HA hot standby),"
        " then resume from the previous leader's last checkpoint",
    )
    orchestrator.add_argument(
        "--leader-ttl",
        type=float,
        default=30.0,
        help="leader lease time-to-live in seconds; a leader silent for"
        " this long is considered dead and its seat can be taken over",
    )
    orchestrator.add_argument(
        "--node-id",
        default=None,
        help="stable identity of this orchestrator in the leader lease"
        " (default: a generated orch-<pid>-<rand> id)",
    )
    status = sub.add_parser(
        "orchestrator-status",
        help="show the leader lease, the leader's last metrics snapshot"
        " and the budget/freshness state of a candidate database",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical JSON payload of GET /v1/orchestrator",
    )
    query = sub.add_parser(
        "query",
        help="answer canned questions for one user from a stored"
        " candidate database",
    )
    query.add_argument("--user", required=True, help="user id to query")
    query.add_argument(
        "--questions",
        default="q1,q2,q3,q4,q5,q6",
        help="comma-separated question ids (q1..q7)",
    )
    query.add_argument(
        "--feature",
        default=None,
        help="feature for Q3 (default: the first mutable feature)",
    )
    query.add_argument(
        "--budget",
        type=float,
        default=1.0,
        help="effort budget for Q7 (scaled diff)",
    )
    query.add_argument(
        "--plans",
        type=int,
        default=1,
        metavar="K",
        help="attach each answer's stored diverse plan set (up to K"
        " alternative plans with quality/min-distance metadata); the"
        " default 1 keeps the classic single-plan answers byte-identical",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical JSON bundle (the serving tier's wire"
        " format) instead of verbal insights",
    )
    query.add_argument(
        "--freshness",
        action="store_true",
        help="add meta.freshness (seconds since the oldest backing cell"
        " was recomputed) to the --json bundle; off by default so the"
        " output stays byte-identical to the plain wire format",
    )
    serve = sub.add_parser(
        "serve",
        help="HTTP/JSON insight API over a stored candidate database"
        " (fingerprint-validated cache + per-shard read replicas)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8123, help="0 picks a free port"
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="max resident rendered-insight cache entries",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="render every request from SQL (baseline mode)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="stop after serving this many requests (default: run forever)",
    )
    serve.add_argument(
        "--no-access-log",
        action="store_true",
        help="do not record served requests into the store's access_log"
        " (disables the refresh-priority feedback path)",
    )
    return parser


def run_admin(args, out: IO[str] | None = None) -> int:
    """The administrator's offline step: fit once, persist to disk."""
    out = out if out is not None else sys.stdout
    system = build_system(
        args.n_per_year, args.strategy, args.horizon, args.seed, db=args.db,
        db_backend=args.db_backend,
    )
    save_system(system, args.save)
    out.write(
        f"trained {len(system.future_models)} future models"
        f" (strategy={args.strategy}, T={args.horizon}) -> {args.save}\n"
    )
    return 0


def run_refresh(args, out: IO[str] | None = None) -> int:
    """The operator's incremental step: ingest new data, refresh sessions.

    Loads the saved system (``--load``) with its candidate database
    (``--db``), rehydrates the persisted sessions, samples ``--new-n``
    fresh labeled applications from the lending generator at ``--at``,
    and refreshes: models are refit, per-time-point fingerprints diffed,
    and only stale (user × time-point) cells recomputed and upserted.
    """
    out = out if out is not None else sys.stdout
    system = _load_refreshable_system(args, out, "refresh")
    if system is None:
        return 2
    resumed = system.resume_sessions()
    new_data, at = _sample_new_arrivals(system, args)
    report = system.refresh(
        new_data,
        warm_start=False if args.cold else None,
        budget=args.budget,
    )
    # persist the refit models + merged history: the next refresh must
    # start from this state, and stored model_fp stamps must keep
    # matching a system that exists on disk
    save_system(system, args.load)
    out.write(screen_header("Session refresh") + "\n")
    out.write(
        f"ingested {args.new_n} new samples at t={at:.2f};"
        f" resumed {len(resumed)} stored sessions\n"
    )
    out.write(
        f"stale time points: {list(report.stale_times)}"
        f" (unchanged: {list(report.fresh_times)})\n"
    )
    out.write(
        f"recomputed {report.cells_recomputed} (user x time-point) cells,"
        f" wrote {report.candidates_written} candidate rows"
        f" (warm_start={report.warm_start})\n"
    )
    if report.deferred_cells:
        out.write(
            f"budget={args.budget}: {report.deferred_cells} stale cells"
            " deferred to a later refresh (lowest-priority users first)\n"
        )
    if report.skipped_stale_cells:
        out.write(
            f"WARNING: {report.skipped_stale_cells} stored cells are stale"
            " but belong to users without a resumable session (opaque"
            " constraints); their candidates remain outdated\n"
        )
    out.write(f"saved refreshed system -> {args.load}\n")
    return 0


def _sample_new_arrivals(system, args):
    """Deterministic "new arrivals" batch for the operator verbs.

    Seeded off the persisted history size so consecutive ingests draw
    distinct samples, and shared by ``refresh`` and ``refresh-workers``
    so both verbs draw the *same* stream from the same saved state —
    the digest-equality comparison between them depends on it.  Returns
    ``(new_data, at)``.
    """
    generator = LendingGenerator(
        random_state=args.seed + 31 + len(system.history)
    )
    at = args.at if args.at is not None else system.history.span[1]
    X = generator.sample_profiles(args.new_n)
    years = np.full(args.new_n, float(at))
    return (
        TemporalDataset(X, generator.label(X, years), years, system.schema),
        at,
    )


def _format_drift(decision) -> str:
    """Epoch-log suffix describing the gate verdict, '' if unassessed
    (the orchestrator's epoch reporting)."""
    if decision is None or not decision.assessed:
        return ""
    parts = []
    if decision.mmd is not None:
        parts.append(f"mmd={decision.mmd:.4f}")
    if decision.label_shift is not None:
        parts.append(f"label-shift={decision.label_shift:.3f}")
    return f" ({', '.join(parts)})"


def _feed_start_offset(system, feed_path) -> int:
    """The checkpointed feed cursor, but only if it belongs to this feed.

    The saved byte offset is meaningless against a different file — and
    dangerous: resuming a larger new feed at the old offset would
    silently skip its head.  A checkpoint that recorded no path (pre-PR4
    saves) is trusted as before.
    """
    saved_path = system.saved_extra.get("feed_path")
    if saved_path and Path(saved_path).resolve() != Path(feed_path).resolve():
        return 0
    return int(system.saved_extra.get("feed_offset", 0))


def _load_refreshable_system(args, out: IO[str], verb: str):
    """Shared ``--load``/``--db`` validation for the operator verbs;
    returns the loaded system or ``None`` (after printing why)."""
    if not args.load or not args.db:
        out.write(
            f"{verb} needs --load (saved system) and --db (candidate"
            " database); run 'admin --save' and a session-creating"
            " command against the same --db first\n"
        )
        return None
    system = build_system(load=args.load, db=args.db, db_backend=args.db_backend)
    if system.history is None:
        out.write(
            "the saved system carries no training history (pre-refresh"
            " save format); re-save it with 'admin --save'\n"
        )
        return None
    return system


def run_refresh_workers(args, out: IO[str] | None = None) -> int:
    """The scale-out operator: refit, then drain stale cells with a pool.

    Ingests ``--new-n`` fresh samples (like ``refresh``), refits the
    models *without* recomputing any cells, saves the system, and spawns
    ``--workers`` processes that drain the store's staleness ledger
    under claim/renew/release leases.  Prints the store content digest
    at the end — identical digests across replicas (or vs a
    single-process ``refresh``) mean byte-identical candidates.
    """
    out = out if out is not None else sys.stdout
    system = _load_refreshable_system(args, out, "refresh-workers")
    if system is None:
        return 2
    if args.new_n:
        new_data, at = _sample_new_arrivals(system, args)
        stale = system.refit(new_data)
        out.write(
            f"ingested {args.new_n} new samples at t={at:.2f};"
            f" model-stale time points: {list(stale)}\n"
        )
    save_system(system, args.load)
    n_stale = len(system.store.stale_cells(system.model_fingerprints))
    # a durable budget row caps how many cells the whole pool may drain
    # (claims decrement it transactionally, so workers never overspend
    # it jointly); no --budget resets any stale row to unlimited
    system.store.set_refresh_budget(args.budget)
    schema = system.schema
    system.store.close()
    budget_txt = f" (budget: {args.budget} cells)" if args.budget else ""
    out.write(
        f"draining {n_stale} stale cells with {args.workers} worker"
        f" processes{budget_txt}\n"
    )
    report = run_worker_pool(
        args.load,
        args.db,
        n_workers=args.workers,
        db_backend=args.db_backend,
        warm_start=False if args.cold else None,
        claim_batch=args.claim_batch,
        lease_seconds=args.lease_seconds,
        shard_affinity=args.shard_affinity,
    )
    per_worker = ", ".join(
        f"{w.worker_id}: {len(w.cells)}" for w in report.workers
    )
    out.write(
        f"recomputed {report.cells_recomputed} cells"
        f" ({report.candidates_written} candidate rows) [{per_worker}]\n"
    )
    if report.skipped_cells:
        out.write(
            f"WARNING: {len(report.skipped_cells)} stale cells have no"
            " resumable session spec; their candidates remain outdated\n"
        )
    with CandidateStore(schema, args.db, backend=args.db_backend) as store:
        out.write(f"store digest: {store.contents_digest()}\n")
    return 0


def run_refresh_orchestrator(args, out: IO[str] | None = None) -> int:
    """The streaming service: drift → refit → pool dispatch, kill-safe.

    The one feed-driven refresh loop: rows appended to ``--feed`` are
    buffered, an epoch opens on drift/cadence/pending-cap, the models
    are refit (marking stored cells stale in the ledger), and
    ``--workers`` lease-coordinated processes drain the ledger —
    ``--workers 1`` is the single-drain-process deployment.  The models, merged history
    and feed cursor are checkpointed in **one atomic write** before the
    drain and again (with the store digest) after it, so a killed
    orchestrator restarts exactly where it died: no row is re-ingested,
    no finished cell recomputed.  Live sessions are never materialised
    here — workers recompute from the persisted session specs.

    With ``--standby`` the process first campaigns for the store-backed
    leader lease on a bare store handle — *before* loading the system —
    so that when it finally wins (the active leader died or resigned)
    it loads the dead leader's latest checkpoint, not a stale snapshot
    from its own start time.  Checkpoints and pool dispatches are then
    fenced on the lease epoch; losing the lease exits with status 1.
    """
    out = out if out is not None else sys.stdout
    standby = getattr(args, "standby", False)
    node_id = getattr(args, "node_id", None) or (
        f"orch-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    )
    leader_ttl = getattr(args, "leader_ttl", 30.0)
    if standby:
        if not args.db:
            out.write("--standby needs --db (the lease lives in the store)\n")
            return 2
        out.write(
            f"standby {node_id}: campaigning for the leader lease"
            f" (ttl={leader_ttl:g}s)\n"
        )
        out.flush()
        interval = max(leader_ttl / 4.0, 0.05)
        with CandidateStore(
            lending_schema(), args.db, backend=args.db_backend
        ) as seat:
            while True:
                epoch = seat.acquire_leader_lease(
                    node_id, ttl_seconds=leader_ttl
                )
                if epoch is not None:
                    out.write(
                        f"standby {node_id}: won the lease (epoch {epoch});"
                        " loading the last checkpoint\n"
                    )
                    out.flush()
                    break
                time.sleep(interval)
    system = _load_refreshable_system(args, out, "refresh-orchestrator")
    if system is None:
        return 2
    if (
        args.cadence is None
        and args.drift_mmd is None
        and args.drift_label_shift is None
    ):
        out.write(
            "refresh-orchestrator needs --cadence and/or a drift threshold"
            " (--drift-mmd / --drift-label-shift)\n"
        )
        return 2
    gate = None
    if args.drift_mmd is not None or args.drift_label_shift is not None:
        gate = DriftGate(args.drift_mmd, args.drift_label_shift)
    if args.gate_mode != "merged" and gate is None:
        out.write(
            f"--gate-mode {args.gate_mode} needs a drift threshold"
            " (--drift-mmd / --drift-label-shift)\n"
        )
        return 2
    start_offset = _feed_start_offset(system, args.feed)
    feed = CsvFeed(args.feed, system.schema, start_offset=start_offset)
    orchestrator = RefreshOrchestrator(
        system,
        feed,
        system_path=args.load,
        db_path=args.db,
        db_backend=args.db_backend,
        n_workers=args.workers,
        gate=gate,
        cadence=args.cadence,
        min_batch=args.min_batch,
        max_pending_rows=args.max_pending,
        gate_mode=args.gate_mode,
        ewma_halflife=args.ewma_halflife,
        warm_start=False if args.cold else None,
        claim_batch=args.claim_batch,
        lease_seconds=args.lease_seconds,
        shard_affinity=args.shard_affinity,
        budget=args.budget,
        sla_epochs=args.sla_epochs,
        priority_halflife=args.priority_halflife,
        ha=standby,
        node_id=node_id,
        leader_ttl=leader_ttl,
    )
    out.write(screen_header("Refresh orchestrator") + "\n")
    out.write(
        f"tailing {args.feed} from byte {start_offset};"
        f" gates: drift={'on' if gate else 'off'}"
        f" (mode={args.gate_mode}), cadence={args.cadence};"
        f" pool: {args.workers} workers;"
        f" budget={args.budget or 'unlimited'} cells/epoch,"
        f" sla={args.sla_epochs or 'off'}\n"
    )
    if standby:
        # instant renew-in-place: the seat was already won on the bare
        # handle above, under the same node_id
        orchestrator.campaign()
    recovered = orchestrator.recover()
    if recovered is not None:
        out.write(
            f"recovered an interrupted drain: {recovered.cells_recomputed}"
            f" cells ({recovered.candidates_written} candidate rows)\n"
        )

    def on_epoch(epoch):
        outcome = epoch.report
        digest_txt = (
            f" digest={outcome.store_digest[:16]}…"
            if outcome.store_digest
            else ""
        )
        fresh = getattr(outcome, "freshness", None)
        fresh_txt = ""
        if fresh:
            tiers = fresh.get("drained_by_tier", {})
            tier_txt = "/".join(
                str(tiers.get(t, 0)) for t in ("hot", "warm", "cold")
            )
            weighted = (fresh.get("traffic_weighted") or {}).get(
                "weighted_fresh_fraction"
            )
            fresh_txt = (
                f" drained(hot/warm/cold)={tier_txt}"
                f" sla-violations={fresh.get('sla_violations', 0)}"
            )
            if weighted is not None:
                fresh_txt += f" weighted-freshness={weighted:.3f}"
        out.write(
            f"epoch {epoch.index}: trigger={epoch.trigger}"
            f"{_format_drift(epoch.drift)}"
            f" rows={outcome.rows}"
            f" model-stale={list(outcome.stale_times)}"
            f" cells={outcome.cells_recomputed}"
            f" candidates={outcome.candidates_written}"
            f"{fresh_txt}{digest_txt}\n"
        )
        out.flush()

    try:
        epochs = orchestrator.run(
            max_polls=args.max_polls,
            max_epochs=args.max_epochs,
            poll_interval=args.poll_interval,
            on_epoch=on_epoch,
        )
    except LeadershipLost as exc:
        out.write(
            f"leadership lost: {exc}\n"
            "another orchestrator took over the lease; this one's"
            " in-flight checkpoint was fenced (not merged).  exiting.\n"
        )
        system.store.close()
        return 1
    if standby:
        orchestrator.resign()
    out.write(
        f"orchestrator stopped after {len(epochs)} epochs"
        f" ({orchestrator.epochs_completed} completed over the system's"
        f" lifetime); {orchestrator.pending_rows} rows still pending\n"
    )
    out.write(f"store digest: {system.store.contents_digest()}\n")
    system.store.close()
    return 0


def run_orchestrator_status(args, out: IO[str] | None = None) -> int:
    """HA observability from the shell: who leads, and how it is doing.

    Reads the leader lease, the leader's last published metrics
    snapshot, the refresh budget and the freshness report straight from
    the candidate database — the same payload ``serve`` exposes at
    ``GET /v1/orchestrator``, so scripted probes can use either.
    """
    out = out if out is not None else sys.stdout
    opened = _open_read_side(args, out, "orchestrator-status")
    if opened is None:
        return 2
    store, _, owner = opened
    try:
        payload = orchestrator_payload(store)
    finally:
        owner.close()
    if getattr(args, "json", False):
        out.write(dumps(payload) + "\n")
        return 0
    out.write(screen_header("Orchestrator status") + "\n")
    leader = payload["leader"]
    if leader is None:
        out.write("leader: none (no orchestrator has ever campaigned)\n")
    else:
        state = "EXPIRED" if leader["expired"] else "live"
        out.write(
            f"leader: {leader['leader_id']} (epoch {leader['epoch']},"
            f" {state}; lease renewed {leader['lease_age']:.1f}s ago)\n"
        )
    metrics = payload["metrics"]
    if metrics is None:
        out.write("metrics: none published yet\n")
    else:
        out.write(
            f"metrics ({metrics.get('phase', '?')},"
            f" node {metrics.get('node_id', '?')}):"
            f" epochs={metrics.get('epochs_completed', 0)}"
            f" cells={metrics.get('cells_drained', 0)}"
            f" candidates={metrics.get('candidates_written', 0)}"
            f" pending-rows={metrics.get('pending_rows', 0)}"
            f" takeovers={metrics.get('lease_takeovers', 0)}"
            f" lost-leases={metrics.get('lost_leases', 0)}\n"
        )
        drift = metrics.get("drift") or []
        if drift:
            last = drift[-1]
            out.write(
                f"last epoch: trigger={last.get('trigger')}"
                f" rows={last.get('rows')} mmd={last.get('mmd')}"
                f" label-shift={last.get('label_shift')}\n"
            )
    budget = payload["budget_remaining"]
    out.write(
        f"budget remaining: "
        f"{'unlimited' if budget is None else budget}\n"
    )
    freshness = payload["freshness"]
    if freshness:
        out.write(
            f"freshness: {freshness.get('users', 0)} users,"
            f" max-age={freshness.get('max_age', 0.0):.1f}s"
            f" mean-age={freshness.get('mean_age', 0.0):.1f}s\n"
        )
    return 0


def run_rebalance(args, out: IO[str] | None = None) -> int:
    """The storage operator: migrate the store to a new shard count.

    Opens the candidate database at ``--db`` (the backend and current
    shard count are inferred from the files on disk), migrates every
    user to ``crc32(user_id) % --to-shards``, and proves digest
    invariance before reporting: the store's canonical content hash
    must be byte-identical across the migration.  Interrupted
    migrations are healed automatically on the next open (build phase:
    rolled back; swap phase: rolled forward).
    """
    out = out if out is not None else sys.stdout
    if not args.db:
        out.write(
            "rebalance needs --db (candidate database); in-memory stores"
            " have nothing to migrate\n"
        )
        return 2
    out.write(screen_header("Shard rebalance") + "\n")
    try:
        with CandidateStore(
            lending_schema(), args.db, backend=args.db_backend
        ) as store:
            before = store.contents_digest()
            old_n = getattr(store.backend, "n_shards", 1)
            outcome = store.rebalance(args.to_shards)
            after = store.contents_digest()
    except StorageError as exc:
        out.write(f"rebalance failed: {exc}\n")
        return 2
    if before != after:  # pragma: no cover - the invariant the suite pins
        out.write("ERROR: store digest changed across the migration\n")
        return 1
    out.write(
        f"migrated {args.db}: {old_n} -> {outcome['n_shards']} shards,"
        f" {outcome['moved_users']} users rehomed\n"
    )
    out.write(f"store digest (unchanged): {before}\n")
    return 0


def _open_read_side(args, out: IO[str], verb: str):
    """``(store, time_values, owner)`` for the read-side verbs.

    With ``--load`` the saved system supplies its store and calendar
    time values; with ``--db`` alone the database is opened directly
    under the lending schema (time points render as their indices).
    ``owner`` is the object to close when done.
    """
    if not args.db and not args.load:
        out.write(
            f"{verb} needs --db (candidate database) and/or --load"
            " (saved system)\n"
        )
        return None
    if args.load:
        system = build_system(
            load=args.load, db=args.db, db_backend=args.db_backend
        )
        return system.store, system.time_values, system.store
    store = CandidateStore(lending_schema(), args.db, backend=args.db_backend)
    return store, [], store


def _default_q3_feature(schema) -> str:
    mutable = schema.mutable_indices()
    return schema.names[int(mutable[0])] if mutable.size else schema.names[0]


def run_query(args, out: IO[str] | None = None) -> int:
    """Shell access to the canned questions over a stored database.

    ``--json`` emits the canonical bundle serialization — byte-identical
    to what ``serve`` returns for the same user and parameters, because
    both go through :mod:`repro.serve.protocol`.
    """
    out = out if out is not None else sys.stdout
    opened = _open_read_side(args, out, "query")
    if opened is None:
        return 2
    store, time_values, owner = opened
    try:
        qids = [q.strip() for q in args.questions.split(",") if q.strip()]
        unknown = [q for q in qids if q not in QUESTIONS]
        if unknown:
            out.write(
                f"unknown question(s) {unknown}; available:"
                f" {sorted(QUESTIONS)}\n"
            )
            return 2
        ledger = store.cell_fingerprints(args.user)
        if not ledger:
            out.write(f"unknown user {args.user!r} (no stored cells)\n")
            return 2
        feature = args.feature or _default_q3_feature(store.schema)
        plans = getattr(args, "plans", 1)
        if plans < 1:
            out.write("--plans must be >= 1\n")
            return 2
        engine = InsightEngine(store, args.user, time_values)
        params = {
            "q3": {"feature": feature},
            "q6": {"alpha": args.alpha},
            "q7": {"budget": args.budget},
        }
        try:
            insights = {
                qid: engine.ask(qid, plans=plans, **params.get(qid, {}))
                for qid in qids
            }
        except QueryError as exc:
            out.write(f"query failed: {exc}\n")
            return 2
        if args.json:
            freshness = None
            if getattr(args, "freshness", False):
                freshness = bundle_freshness_seconds(store, args.user)
            out.write(
                dumps(
                    bundle_payload(
                        args.user, insights, ledger, freshness=freshness
                    )
                )
                + "\n"
            )
        else:
            out.write(screen_header(f"Plans and Insights — {args.user}") + "\n")
            for insight in insights.values():
                out.write(insight_block(insight) + "\n\n")
        return 0
    finally:
        owner.close()


def run_serve(args, out: IO[str] | None = None) -> int:
    """The serving tier: async HTTP/JSON API over the candidate store.

    Serves ``/insights`` (the rendered per-user bundle), ``/q/<qid>``,
    ``/healthz`` and ``/stats``; responses are cached per fingerprint
    vector and read through per-shard read-only replicas.  Runs until
    interrupted (or ``--max-requests``, for scripted runs).
    """
    out = out if out is not None else sys.stdout
    opened = _open_read_side(args, out, "serve")
    if opened is None:
        return 2
    store, time_values, owner = opened
    server = InsightServer(
        store,
        time_values,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        cache_enabled=not args.no_cache,
        access_log=not args.no_access_log,
    )

    async def _serve() -> None:
        await server.start()
        out.write(
            f"serving insights on http://{server.host}:{server.port}"
            f" (cache={'off' if args.no_cache else args.cache_size})\n"
        )
        out.flush()
        try:
            if args.max_requests is None:
                await asyncio.Event().wait()
            else:
                while server.requests_served < args.max_requests:
                    await asyncio.sleep(0.02)
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        out.write("interrupted\n")
    finally:
        owner.close()
    out.write(f"served {server.requests_served} requests\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "demo": run_demo,
        "quickstart": run_quickstart,
        "interactive": run_interactive,
        "admin": run_admin,
        "refresh": run_refresh,
        "refresh-workers": run_refresh_workers,
        "refresh-orchestrator": run_refresh_orchestrator,
        "orchestrator-status": run_orchestrator_status,
        "rebalance": run_rebalance,
        "query": run_query,
        "serve": run_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
