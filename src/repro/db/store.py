"""Relational candidate store over pluggable SQLite backends.

The original system stores generated candidates in MySQL; the schema here
mirrors the paper's two relations (SQLite executes the same SQL92 the
paper's Figure 2 shows):

``temporal_inputs(user_id, time, <feature columns...>, model_fp)``
    The future representations ``x_0 .. x_T`` of each user's profile.
    ``model_fp`` records the content fingerprint of the future model the
    cell's candidates were last computed under — one row per (user, t)
    cell, so it doubles as the refresh subsystem's staleness ledger.

``candidates(id, user_id, time, <feature columns...>, diff, gap, p, model_fp,
plan_rank, plan_quality, plan_min_dist)``
    The per-time-point decision-altering candidates; ``p`` is the model
    confidence (the paper's Q5 orders by ``p``), ``diff``/``gap`` the two
    distance properties, ``model_fp`` the producing model's fingerprint.
    ``plan_rank`` orders the cell's stored diverse plan set (greedy
    max-min selection order; ``-1`` = no plan set, the legacy value),
    ``plan_quality`` the plan's objective key and ``plan_min_dist`` its
    scaled distance to the nearest earlier pick (NULL for the seed).

``user_sessions(user_id, profile, constraints)``
    Session specs (profile vector + DSL constraint texts as JSON) so a
    long-running service can rehydrate sessions after a restart and
    refresh them.

``access_log(user_id, question, accessed_at)`` /
``user_priority(user_id, score, updated_at)``
    The serving-tier feedback loop: the HTTP tier appends raw read
    events (batched, fire-and-forget), and
    :meth:`CandidateStore.materialize_priorities` folds them into a
    half-life-decayed per-user activity score.  The claim scan orders
    stale cells by that score, so a constrained refresh budget is spent
    where read traffic actually lands.

``refresh_escalations(user_id, time)``
    Cells escalated past their staleness SLA: the orchestrator marks
    them and the claim scan drains them ahead of any score.

``refresh_leases(user_id, time, worker_id, lease_expires_at)``
    Cross-process refresh coordination: a worker that intends to
    recompute a stale (user, t) cell first *claims* it by writing a
    lease row.  Claims are atomic (``BEGIN IMMEDIATE`` serialises them
    on the main database's write lock, which every process of a shared
    file-backed store contends on), so a pool of worker processes can
    drain :meth:`CandidateStore.stale_cells` concurrently without
    double-computing; expired leases are reclaimable, which is how the
    pool recovers cells from crashed workers.  Lease timestamps default
    to the **store-side clock** (:meth:`CandidateStore.clock_now`,
    backed by ``julianday('now')``) so hosts sharing a store agree on
    expiry, and the claim scan is answered by the covering
    ``idx_temporal_inputs_ledger`` index — a partial scan over the
    stale rows, not O(cells) per round.

Feature columns are generated from the dataset schema; names are
validated as SQL identifiers.  All user-supplied *values* go through
parametrised statements (``?`` binds: the SQL is SQLite's).  Storage
topology (single file, in-memory, or user-sharded) is delegated to
:mod:`repro.db.backends`; on a sharded backend every table but
``access_log`` exists once per shard (the log is one router table,
beside the coordinator tables) and reads go through ``UNION ALL``
views, so all SQL below stays topology agnostic.

**Write path** — every write runs on the router connection under the
owning shard's schema prefix.  A bulk write is grouped per shard and
applied as **one** transaction, shards in ascending order: SQLite
commits a transaction that spans ATTACHed files atomically through its
super-journal, so a crash at any point leaves ``contents_digest()``
equal to a store that either completed the write or never started it,
with no recovery code of our own.  The super-journal needs a rollback
journal in every file, which is why the sharded backend refuses files
in WAL mode.  A deferred transaction locks only the shard files it
writes, so workers upserting cells of different shards never wait on
each other; taking shards in one global order keeps two multi-shard
writers from deadlocking until the busy timeout.
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
from pathlib import Path

import numpy as np

from repro.core.candidates import Candidate
from repro.core.objectives import CandidateMetrics
from repro.data.schema import DatasetSchema
from repro.db.backends import (
    CLOCK_SQL,
    ShardedSQLiteBackend,
    StoreBackend,
    complete_swap,
    make_backend,
)
from repro.exceptions import StorageError

__all__ = ["CandidateStore"]

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED = {"id", "user_id", "time", "diff", "gap", "p", "model_fp", "refreshed_at"}

#: the tables a sharded store keeps once per shard, all keyed by user
_SHARD_TABLES = (
    "temporal_inputs", "candidates", "user_sessions", "refresh_leases",
    "user_priority", "refresh_escalations",
)

#: statement openers accepted by the read-only expert passthrough
_READONLY_OPENERS = ("select", "with", "values", "explain")


def _strip_leading_comments(query: str) -> str:
    """Drop leading whitespace and ``--``/``/* */`` SQL comments so the
    opener check sees the first real token (experts annotate queries)."""
    s = query
    while True:
        s = s.lstrip()
        if s.startswith("--"):
            newline = s.find("\n")
            if newline == -1:
                return ""
            s = s[newline + 1 :]
        elif s.startswith("/*"):
            end = s.find("*/")
            if end == -1:
                return ""
            s = s[end + 2 :]
        else:
            return s


def _batched(seq, size):
    """Fixed-size chunks of ``seq`` (IN-list batches stay well under
    SQLite's bind-variable limit)."""
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


class CandidateStore:
    """Candidate + temporal-input relational store over sqlite3.

    Parameters
    ----------
    schema:
        Dataset schema; one column per feature is created in both tables.
    path:
        Database file, or ``':memory:'`` (default) for an in-process DB.
    backend:
        Backend name (``'sqlite'``, ``'memory'``, ``'sharded'``), a
        :class:`~repro.db.backends.StoreBackend` instance, or ``None`` to
        infer from ``path``.
    n_shards:
        Shard count for the ``'sharded'`` backend (ignored otherwise);
        ``None`` uses the on-disk count, or 4 for a new store.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        path: str | Path = ":memory:",
        *,
        backend: str | StoreBackend | None = None,
        n_shards: int | None = None,
    ):
        for name in schema.names:
            if not _IDENTIFIER_RE.match(name):
                raise StorageError(f"feature name {name!r} is not a SQL identifier")
            if name.lower() in _RESERVED:
                raise StorageError(
                    f"feature name {name!r} collides with a reserved column"
                )
        self.schema = schema
        self._attach_backend(make_backend(backend, path, n_shards=n_shards))

    def _attach_backend(self, backend: StoreBackend) -> None:
        """Bind this store to ``backend`` (initial open and the
        post-rebalance reopen): router connection, row factory, DDL."""
        self._backend = backend
        self._conn = backend.conn
        self._conn.row_factory = sqlite3.Row
        self._create_tables()

    @property
    def backend(self) -> StoreBackend:
        return self._backend

    # ------------------------------------------------------------- schema

    def _table_ddl(self, db: str) -> list[str]:
        """Per-schema DDL, shared by :meth:`_create_tables` and the
        rebalance staging-shard builder (which runs it against a fresh
        file where ``db`` is ``main``)."""
        feature_cols = ", ".join(f"{name} REAL NOT NULL" for name in self.schema.names)
        return [
            f"""
            CREATE TABLE IF NOT EXISTS {db}.temporal_inputs (
                user_id TEXT NOT NULL,
                time INTEGER NOT NULL,
                {feature_cols},
                model_fp TEXT NOT NULL DEFAULT '',
                refreshed_at REAL NOT NULL DEFAULT 0,
                PRIMARY KEY (user_id, time)
            )
            """,
            f"""
            CREATE TABLE IF NOT EXISTS {db}.candidates (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                user_id TEXT NOT NULL,
                time INTEGER NOT NULL,
                {feature_cols},
                diff REAL NOT NULL,
                gap INTEGER NOT NULL,
                p REAL NOT NULL,
                model_fp TEXT NOT NULL DEFAULT '',
                plan_rank INTEGER NOT NULL DEFAULT -1,
                plan_quality REAL,
                plan_min_dist REAL
            )
            """,
            f"CREATE INDEX IF NOT EXISTS {db}.idx_candidates_user_time"
            " ON candidates (user_id, time)",
            f"""
            CREATE TABLE IF NOT EXISTS {db}.user_sessions (
                user_id TEXT PRIMARY KEY,
                profile TEXT NOT NULL,
                constraints TEXT
            )
            """,
            f"""
            CREATE TABLE IF NOT EXISTS {db}.refresh_leases (
                user_id TEXT NOT NULL,
                time INTEGER NOT NULL,
                worker_id TEXT NOT NULL,
                lease_expires_at REAL NOT NULL,
                PRIMARY KEY (user_id, time)
            )
            """,
            f"""
            CREATE TABLE IF NOT EXISTS {db}.user_priority (
                user_id TEXT PRIMARY KEY,
                score REAL NOT NULL,
                updated_at REAL NOT NULL
            )
            """,
            # covering: the claim scan's LEFT JOIN probes (user_id) and
            # reads only score, so the lookup never touches the table
            f"CREATE INDEX IF NOT EXISTS {db}.idx_user_priority_score"
            " ON user_priority (user_id, score)",
            f"""
            CREATE TABLE IF NOT EXISTS {db}.refresh_escalations (
                user_id TEXT NOT NULL,
                time INTEGER NOT NULL,
                PRIMARY KEY (user_id, time)
            )
            """,
        ]

    def _ledger_index_sql(self, db: str) -> str:
        """The staleness-ledger covering index.  The claim scan probes
        (time = ?, model_fp mismatch): the equality seeks straight to
        the time partition and the mismatch — spelled as two range
        seeks, see :data:`_STALE_PREDICATE` — skips the (usually
        dominant) fresh-fingerprint run inside it, so a claim round
        touches only the stale rows instead of scanning O(cells).
        user_id makes the index covering — the scan never reads the
        (wide) table rows at all."""
        return (
            f"CREATE INDEX IF NOT EXISTS {db}.idx_temporal_inputs_ledger"
            " ON temporal_inputs (time, model_fp, user_id)"
        )

    #: coordination tables, always in the router's ``main`` schema: the
    #: rebalance phase row read by
    #: :func:`repro.db.backends.recover_rebalance`, the refresh budget,
    #: the leader lease, the orchestrator's metrics snapshot and the access log
    _COORDINATOR_DDL = (
        """
        CREATE TABLE IF NOT EXISTS main.rebalance_state (
            phase TEXT NOT NULL,
            old_shards INTEGER NOT NULL,
            new_shards INTEGER NOT NULL
        )
        """,
        # the per-epoch compute budget, shared by every claiming worker:
        # each claim decrements `remaining` inside its own BEGIN
        # IMMEDIATE transaction, so the cap holds across processes and
        # survives kill -9 mid-drain.  No row means unlimited.
        """
        CREATE TABLE IF NOT EXISTS main.refresh_budget (
            id INTEGER PRIMARY KEY CHECK (id = 1),
            remaining INTEGER NOT NULL
        )
        """,
        # orchestrator leader election: a singleton lease arbitrated by
        # the store-side clock, exactly like worker leases.  `epoch` is
        # the fencing token — it increments on every leadership change
        # and never resets, so a deposed leader's stale (leader_id,
        # epoch) pair can be rejected even after the node re-campaigns.
        """
        CREATE TABLE IF NOT EXISTS main.leader_lease (
            id INTEGER PRIMARY KEY CHECK (id = 1),
            leader_id TEXT NOT NULL,
            epoch INTEGER NOT NULL,
            acquired_at REAL NOT NULL,
            renewed_at REAL NOT NULL,
            lease_expires_at REAL NOT NULL
        )
        """,
        # last orchestrator health/metrics snapshot (JSON), written at
        # checkpoint boundaries so the serving tier and CLI can report
        # orchestrator health without sharing its process.  Coordinator
        # state: excluded from `contents_digest`.
        """
        CREATE TABLE IF NOT EXISTS main.orchestrator_metrics (
            id INTEGER PRIMARY KEY CHECK (id = 1),
            updated_at REAL NOT NULL,
            payload TEXT NOT NULL
        )
        """,
        # a spool that materialize_priorities reads whole: no index
        """
        CREATE TABLE IF NOT EXISTS main.access_log (
            user_id TEXT NOT NULL,
            question TEXT NOT NULL,
            accessed_at REAL NOT NULL
        )
        """,
    )

    def _create_tables(self) -> None:
        with self._conn:
            # sqlite3 opens no implicit transaction for DDL: without an
            # explicit BEGIN every statement below commits on its own
            self._conn.execute("BEGIN")
            for statement in self._COORDINATOR_DDL:
                self._conn.execute(statement)
            for db in self._backend.schemas():
                for statement in self._table_ddl(db):
                    self._conn.execute(statement)
                # older stores keep an access log per shard: carry it over
                if db != "main" and self._conn.execute(
                    f"SELECT 1 FROM {db}.sqlite_master WHERE name = 'access_log'"
                ).fetchone():
                    self._conn.execute(
                        "INSERT INTO main.access_log SELECT user_id, question,"
                        f" accessed_at FROM {db}.access_log ORDER BY rowid"
                    )
                    self._conn.execute(f"DROP TABLE {db}.access_log")
                # migrate databases created before the refresh subsystem:
                # their tables predate the model_fp column (cells read as
                # fingerprint '' — i.e. stale, which is the safe default)
                for table in ("temporal_inputs", "candidates"):
                    columns = {
                        row[1]
                        for row in self._conn.execute(
                            f"PRAGMA {db}.table_info({table})"
                        )
                    }
                    if "model_fp" not in columns:
                        self._conn.execute(
                            f"ALTER TABLE {db}.{table} ADD COLUMN"
                            " model_fp TEXT NOT NULL DEFAULT ''"
                        )
                    # pre-priority databases lack the freshness stamp;
                    # 0 reads as "never stamped", which freshness
                    # reporting surfaces rather than treating as ancient
                    if table == "temporal_inputs" and "refreshed_at" not in columns:
                        self._conn.execute(
                            f"ALTER TABLE {db}.{table} ADD COLUMN"
                            " refreshed_at REAL NOT NULL DEFAULT 0"
                        )
                    # pre-plan-set databases lack the plan metadata; rank
                    # -1 reads as "no stored plan set", which keeps those
                    # rows' digest serialisation byte-identical to before
                    # the columns existed
                    if table == "candidates" and "plan_rank" not in columns:
                        for ddl in (
                            " plan_rank INTEGER NOT NULL DEFAULT -1",
                            " plan_quality REAL",
                            " plan_min_dist REAL",
                        ):
                            self._conn.execute(
                                f"ALTER TABLE {db}.{table} ADD COLUMN" + ddl
                            )
                # created after the legacy migration so model_fp exists
                self._conn.execute(self._ledger_index_sql(db))
            if self._backend.sharded:
                # read-side: one UNION ALL view per table so global
                # queries (expert SQL, Figure-2 canned SQL) are
                # shard-transparent; sqlite views are read-only, which
                # suits the expert interface
                for table in _SHARD_TABLES:
                    union = " UNION ALL ".join(
                        f"SELECT * FROM {db}.{table}"
                        for db in self._backend.schemas()
                    )
                    self._conn.execute(
                        f"CREATE TEMP VIEW IF NOT EXISTS {table} AS {union}"
                    )

    def _db_for(self, user_id: str) -> str:
        """Qualified schema prefix owning ``user_id``'s rows."""
        return self._backend.schema_for(user_id)

    def close(self) -> None:
        # standard SQLite hygiene: accumulate planner statistics where
        # needed before the connection goes away, so long-lived stores
        # give the cost model real table sizes (the claim scan's
        # fingerprint range seeks depend on it at scale)
        try:
            self._conn.execute("PRAGMA optimize")
        except sqlite3.Error:
            pass  # read-only/poisoned connection: stats are best-effort
        self._backend.close()

    def __enter__(self) -> "CandidateStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- writes

    def _insert_sql(
        self, db: str, table: str, extra_columns: tuple[str, ...] = ()
    ) -> str:
        columns = ["user_id", "time", *self.schema.names, *extra_columns]
        placeholders = ", ".join("?" for _ in columns)
        return (
            f"INSERT INTO {db}.{table} ({', '.join(columns)})"
            f" VALUES ({placeholders})"
        )

    def _input_rows(
        self,
        user_id: str,
        trajectory,
        fingerprints: dict[int, str] | None,
        stamp: float | None = None,
    ) -> list[tuple]:
        trajectory = np.atleast_2d(np.asarray(trajectory, dtype=float))
        if trajectory.shape[1] != len(self.schema):
            raise StorageError(
                f"trajectory has {trajectory.shape[1]} columns,"
                f" schema expects {len(self.schema)}"
            )
        fingerprints = fingerprints or {}
        stamp = float(self.clock_now() if stamp is None else stamp)
        return [
            (user_id, t, *map(float, row), fingerprints.get(t) or "", stamp)
            for t, row in enumerate(trajectory)
        ]

    #: columns appended after the feature block in ``candidates`` inserts
    _CANDIDATE_EXTRA = (
        "diff",
        "gap",
        "p",
        "model_fp",
        "plan_rank",
        "plan_quality",
        "plan_min_dist",
    )

    def _candidate_rows(
        self, user_id: str, candidates, fingerprints: dict[int, str] | None
    ) -> list[tuple]:
        fingerprints = fingerprints or {}
        return [
            (
                user_id,
                int(c.time),
                *map(float, c.x),
                float(c.diff),
                int(c.gap),
                float(c.confidence),
                fingerprints.get(int(c.time)) or "",
                int(getattr(c, "plan_rank", -1)),
                None
                if getattr(c, "plan_quality", None) is None
                else float(c.plan_quality),
                None
                if getattr(c, "plan_min_dist", None) is None
                else float(c.plan_min_dist),
            )
            for c in candidates
        ]

    @staticmethod
    def _spec_row(user_id: str, profile, constraint_texts) -> tuple:
        """Marshal one session spec to a ``user_sessions`` row.

        ``constraint_texts`` is a list of JSON-able entries — DSL strings
        or ``{"expr", "times", "label"}`` dicts for scoped constraints —
        or ``None`` when the session's constraints are not serialisable
        (opaque :class:`ConstraintsFunction` objects), in which case the
        session is not resumable by default.
        """
        profile_json = json.dumps([float(v) for v in np.asarray(profile).ravel()])
        constraints_json = (
            None
            if constraint_texts is None
            else json.dumps(list(constraint_texts))
        )
        return (user_id, profile_json, constraints_json)

    def store_temporal_inputs(
        self, user_id: str, trajectory, fingerprints: dict[int, str] | None = None
    ) -> None:
        """Insert/replace the rows ``x_0 .. x_T`` for ``user_id``."""
        rows = self._input_rows(user_id, trajectory, fingerprints)
        db = self._db_for(user_id)
        with self._conn:
            self._conn.execute(
                f"DELETE FROM {db}.temporal_inputs WHERE user_id = ?",
                (user_id,),
            )
            self._conn.executemany(
                self._insert_sql(db, "temporal_inputs", ("model_fp", "refreshed_at")),
                rows,
            )

    def store_candidates(
        self,
        user_id: str,
        candidates: list[Candidate],
        fingerprints: dict[int, str] | None = None,
    ) -> None:
        """Append candidates (any time points) for ``user_id``."""
        rows = self._candidate_rows(user_id, candidates, fingerprints)
        db = self._db_for(user_id)
        with self._conn:
            self._conn.executemany(
                self._insert_sql(db, "candidates", self._CANDIDATE_EXTRA), rows
            )

    def store_sessions(
        self,
        sessions,
        fingerprints: dict[int, str] | None = None,
        specs=None,
    ) -> None:
        """Bulk multi-user write in one transaction.

        ``sessions`` is an iterable of ``(user_id, trajectory,
        candidates)`` triples.  For every user the existing rows are
        replaced and the temporal inputs + candidates inserted; the
        whole batch is one transaction (a 50-user ingest pays one
        commit instead of 150), all-or-nothing across shards (see
        :meth:`_grouped_write`).  ``fingerprints`` maps
        time index to the producing model's content fingerprint;
        ``specs`` is an optional iterable of ``(user_id, profile,
        constraint_texts_or_None)`` persisted to ``user_sessions`` for
        later rehydration.
        """
        per_db: dict[str, list] = {}
        seen: set[str] = set()
        stamp = self.clock_now()
        for user_id, trajectory, candidates in sessions:
            if user_id in seen:
                raise StorageError(
                    f"duplicate user_id {user_id!r} in store_sessions batch"
                )
            seen.add(user_id)
            per_db.setdefault(self._db_for(user_id), []).append(
                _SessionWrite(
                    self, user_id, trajectory, candidates, fingerprints, stamp
                )
            )
        for spec in specs or ():
            per_db.setdefault(self._db_for(spec[0]), []).append(
                _SpecWrite(self, spec)
            )
        self._grouped_write(per_db)

    def upsert_cells(
        self, cells, fingerprints: dict[int, str] | None = None
    ) -> int:
        """Replace the candidates of specific (user, time) cells.

        ``cells`` is an iterable of ``(user_id, time, candidates)`` or
        ``(user_id, time, candidates, x_t)`` tuples; the whole batch is
        **one transaction** (see :meth:`_grouped_write`) — a worker
        whose claimed cells live in one shard locks only that shard's
        file, and a batch spanning shards commits all-or-nothing.  Rows
        of untouched cells are left byte-identical.  The cell's
        ``temporal_inputs`` ledger row is stamped with the new model
        fingerprint; if that row is missing (e.g. the user was fully
        cleared while their session stayed live) it is re-inserted from
        ``x_t`` when given, and the upsert fails otherwise — candidates
        without a horizon row would be invisible to the staleness ledger
        and the Figure-2 horizon queries.  Returns the number of
        candidate rows written.
        """
        fingerprints = fingerprints or {}
        per_db: dict[str, list] = {}
        stamp = self.clock_now()
        for cell in cells:
            user_id, time, candidates = cell[0], int(cell[1]), cell[2]
            x_t = cell[3] if len(cell) > 3 else None
            per_db.setdefault(self._db_for(user_id), []).append(
                _CellWrite(
                    self, user_id, time, candidates, x_t, fingerprints, stamp
                )
            )
        return self._grouped_write(per_db)

    def _grouped_write(self, ops_by_db: dict[str, list]) -> int:
        """Apply per-schema op groups as **one** router transaction;
        returns candidate rows written.

        A batch that spans shards commits through SQLite's super-journal,
        so it lands in every shard or in none, even if the process dies
        mid-commit.  The transaction is deferred: each shard file is
        locked at its first write, so a batch locks only the shards it
        touches.  Shards are taken in ascending order — two writers that
        took them in opposite orders would each hold the shard the other
        waits for until the busy timeout.
        """
        with self._conn:
            return sum(
                op.apply(self, db)
                for db, ops in sorted(ops_by_db.items())
                for op in ops
            )

    # --------------------------------------------------------- rebalancing

    def rebalance(self, n_shards: int, *, fault_hook=None) -> dict:
        """Migrate a file-backed sharded store to ``n_shards`` shards.

        Every user is rehomed to ``crc32(user_id) % n_shards`` with
        **digest invariance**: ``contents_digest()`` and the
        ``stale_cells()`` ordering are identical before and after (the
        digest excludes storage ids and both orderings are global
        ``(user, time)``, not per-shard concatenation).  The migration
        is crash-recoverable at every point:

        * **build** — the new layout is written to ``<path>.rebal<i>``
          staging files; the live shards are never touched, so a crash
          aborts cleanly (next open discards the staging files);
        * **swap** — staging files replace the shard files one atomic
          rename at a time, rolled forward by
          :func:`repro.db.backends.recover_rebalance` on the next open
          if interrupted.

        The phase ledger lives in the router's ``rebalance_state``
        table.  Other writers must be quiescent (lease workers should be
        drained first — leases are carried over, so an operator mistake
        delays work rather than losing it).  A writer that died
        mid-transaction needs no special care: SQLite rolls its hot
        journals back when the build first reads each shard.
        ``fault_hook`` is test instrumentation: raising from it simulates
        the process dying at that stage, with no cleanup.  Returns
        ``{'n_shards': m, 'moved_users': k}``.
        """
        backend = self._backend
        if not isinstance(backend, ShardedSQLiteBackend) or backend.path == ":memory:":
            raise StorageError(
                "rebalance needs a file-backed 'sharded' store; open the"
                " database with backend='sharded' first"
            )
        m = int(n_shards)
        if not 1 <= m <= ShardedSQLiteBackend.MAX_SHARDS:
            raise StorageError(
                f"n_shards must be in [1, {ShardedSQLiteBackend.MAX_SHARDS}],"
                f" got {m}"
            )
        old_n = backend.n_shards
        if m == old_n:
            return {"n_shards": m, "moved_users": 0}
        path = backend.path
        killed = False

        def fire(stage: str) -> None:
            nonlocal killed
            if fault_hook is not None:
                killed = True
                fault_hook(stage)
                killed = False

        with self._conn:
            self._conn.execute("DELETE FROM main.rebalance_state")
            self._conn.execute(
                "INSERT INTO main.rebalance_state"
                " (phase, old_shards, new_shards) VALUES (?, ?, ?)",
                ("build", old_n, m),
            )
        fire("state-build")
        try:
            moved = self._build_rebalance_shards(path, old_n, m, fire)
            with self._conn:
                self._conn.execute(
                    "UPDATE main.rebalance_state SET phase = ?", ("swap",)
                )
            fire("state-swap")
        except BaseException:
            if killed:
                raise  # simulated kill -9: leave the crash site as it fell
            # real failure (disk full, bad data): abort cleanly — the
            # live shards were never touched during the build
            for i in range(m):
                Path(f"{path}.rebal{i}").unlink(missing_ok=True)
            with self._conn:
                self._conn.execute("DELETE FROM main.rebalance_state")
            raise
        # the rename phase shuffles files under the open handles: close
        # every connection, roll the swap forward, reopen on the new
        # layout
        self._backend.close()
        state_conn = sqlite3.connect(path)
        try:
            complete_swap(path, old_n, m, state_conn, fault_hook=fault_hook)
        finally:
            state_conn.close()
        self._attach_backend(make_backend("sharded", path, n_shards=m))
        return {"n_shards": m, "moved_users": moved}

    def _build_rebalance_shards(
        self, path: str, old_n: int, new_n: int, fire
    ) -> int:
        """Write the new shard layout to ``<path>.rebal<i>`` staging
        files, copying whole users in global ``(user, time, id)`` order
        (``id`` itself is left to the fresh AUTOINCREMENT so intra-cell
        candidate order — the only id property the digest depends on —
        survives).  Returns how many users changed shards."""
        ddl = [*self._table_ddl("main"), self._ledger_index_sql("main")]
        feats = ", ".join(self.schema.names)
        copies = (
            (
                "temporal_inputs",
                f"user_id, time, {feats}, model_fp, refreshed_at",
                "ORDER BY user_id, time",
            ),
            (
                "candidates",
                f"user_id, time, {feats}, diff, gap, p, model_fp,"
                " plan_rank, plan_quality, plan_min_dist",
                "ORDER BY user_id, time, id",
            ),
            ("user_sessions", "user_id, profile, constraints", "ORDER BY user_id"),
            (
                "refresh_leases",
                "user_id, time, worker_id, lease_expires_at",
                "ORDER BY user_id, time",
            ),
            (
                "user_priority",
                "user_id, score, updated_at",
                "ORDER BY user_id",
            ),
            (
                "refresh_escalations",
                "user_id, time",
                "ORDER BY user_id, time",
            ),
        )
        # enumerate each old shard's users once, pre-grouped by target
        # shard (not once per target — that would rescan every old
        # shard new_n times): {old_i: {target_i: [users...]}}
        routing: dict[int, dict[int, list[str]]] = {}
        moved = 0
        for old_i in range(old_n):
            source = sqlite3.connect(f"{path}.shard{old_i}")
            try:
                users = sorted(
                    str(r[0])
                    for r in source.execute(
                        " UNION ".join(
                            f"SELECT user_id FROM {table}" for table in _SHARD_TABLES
                        )
                    )
                )
            finally:
                source.close()
            per_target = routing.setdefault(old_i, {})
            for user in users:
                target = ShardedSQLiteBackend.shard_index(user, new_n)
                per_target.setdefault(target, []).append(user)
                if ShardedSQLiteBackend.shard_index(user, old_n) != target:
                    moved += 1
        for i in range(new_n):
            staging = f"{path}.rebal{i}"
            Path(staging).unlink(missing_ok=True)
            conn = sqlite3.connect(staging)
            try:
                for statement in ddl:
                    conn.execute(statement)
                for old_i in range(old_n):
                    mine = routing[old_i].get(i)
                    if not mine:
                        continue
                    conn.execute(
                        "ATTACH DATABASE ? AS src", (f"{path}.shard{old_i}",)
                    )
                    for batch in _batched(mine, 400):
                        marks = ", ".join("?" for _ in batch)
                        for table, columns, order in copies:
                            conn.execute(
                                f"INSERT INTO main.{table} ({columns})"
                                f" SELECT {columns} FROM src.{table}"
                                f" WHERE user_id IN ({marks}) {order}",
                                batch,
                            )
                    conn.commit()
                    conn.execute("DETACH DATABASE src")
            finally:
                conn.close()
            fire(f"built:{i}")
        return moved

    def clear_user(self, user_id: str, time: int | None = None) -> None:
        """Remove rows belonging to ``user_id``.

        With ``time`` given, only that (user, time) cell is invalidated —
        its candidates are dropped and its ledger row stamped with the
        empty fingerprint (i.e. stale, so :meth:`stale_cells` reports it
        and a refresh recomputes it), while the user's still-valid cells
        at other time points survive untouched.  The temporal-input
        vector itself stays: it is model independent, and the Figure-2
        horizon queries (Q3/Q6) must keep seeing the full horizon.
        Without ``time``, every row of the user is dropped (including
        the persisted session spec) — note that if the user still has a
        *registered* live session, the next refresh will recompute and
        re-store their cells; use :meth:`JustInTime.drop_session` to
        fully forget a user.
        """
        conn, db = self._conn, self._db_for(user_id)
        with conn:
            if time is None:
                conn.execute(
                    f"DELETE FROM {db}.candidates WHERE user_id = ?",
                    (user_id,),
                )
                conn.execute(
                    f"DELETE FROM {db}.temporal_inputs WHERE user_id = ?",
                    (user_id,),
                )
                conn.execute(
                    f"DELETE FROM {db}.user_sessions WHERE user_id = ?",
                    (user_id,),
                )
            else:
                conn.execute(
                    f"DELETE FROM {db}.candidates"
                    " WHERE user_id = ? AND time = ?",
                    (user_id, int(time)),
                )
                conn.execute(
                    f"UPDATE {db}.temporal_inputs SET model_fp = ''"
                    " WHERE user_id = ? AND time = ?",
                    (user_id, int(time)),
                )

    # -------------------------------------------------------------- reads

    def read(self, query: str, params=()) -> list[sqlite3.Row]:
        """Run trusted, fixed read SQL and return all rows.

        The public read seam for code that *generates* its SQL — the
        canned Figure-2 queries, the prepared-statement layer
        (:mod:`repro.db.prepared`), the insights layer and the serving
        tier.  No expert-interface policing (and none of its per-call
        PRAGMA round-trips); only :meth:`sql` — the expert passthrough
        behind the canned-question UI, which accepts *user* SQL — is
        policed."""
        try:
            return self._conn.execute(query, params).fetchall()
        except sqlite3.Error as exc:
            raise StorageError(f"SQL error: {exc}") from exc

    def sql(self, query: str, params=()) -> list[sqlite3.Row]:
        """Expert passthrough: run **read-only** SQL and return rows.

        The paper lets "expert users compose additional SQL queries";
        this is that interface, intended to sit behind a canned-question
        UI — so it must never be able to mutate the store.  Enforcement
        is two-layer: a statement-opener check rejects anything that is
        not a ``SELECT``/``WITH``/``VALUES``/``EXPLAIN`` with a clear
        error, and ``PRAGMA query_only`` makes the connection itself
        refuse writes for the duration (catching e.g. a
        ``WITH ... INSERT`` that passes the opener check).
        """
        stripped = _strip_leading_comments(query)
        opener = stripped.split("(", 1)[0].split(None, 1)
        if not opener or opener[0].lower() not in _READONLY_OPENERS:
            raise StorageError(
                "sql() is read-only: statements must start with one of"
                f" {tuple(o.upper() for o in _READONLY_OPENERS)};"
                " use the store's write methods to modify data"
            )
        self._conn.execute("PRAGMA query_only = ON")
        try:
            cursor = self._conn.execute(query, params)
            return cursor.fetchall()
        except (sqlite3.Error, sqlite3.Warning) as exc:
            lowered = str(exc).lower()
            # "attempt to write a readonly database" (query_only) or
            # "cannot modify X because it is a view" (sharded union views)
            if "readonly" in lowered or "read-only" in lowered or (
                "cannot modify" in lowered
            ):
                raise StorageError(
                    f"sql() is read-only: statement rejected ({exc})"
                ) from exc
            raise StorageError(f"SQL error: {exc}") from exc
        finally:
            self._conn.execute("PRAGMA query_only = OFF")

    def candidate_count(self, user_id: str | None = None) -> int:
        if user_id is None:
            rows = self.read("SELECT COUNT(*) AS n FROM candidates")
        else:
            rows = self.read(
                "SELECT COUNT(*) AS n FROM candidates WHERE user_id = ?",
                (user_id,),
            )
        return int(rows[0]["n"])

    def temporal_input(self, user_id: str, time: int) -> np.ndarray:
        """Fetch one temporal-input vector back out of the store."""
        rows = self.read(
            "SELECT * FROM temporal_inputs WHERE user_id = ? AND time = ?",
            (user_id, int(time)),
        )
        if not rows:
            raise StorageError(
                f"no temporal input for user {user_id!r} at time {time}"
            )
        row = rows[0]
        return np.array([row[name] for name in self.schema.names], dtype=float)

    def times_for(self, user_id: str) -> list[int]:
        """Sorted distinct time points present in temporal_inputs."""
        rows = self.read(
            "SELECT DISTINCT time FROM temporal_inputs WHERE user_id = ?"
            " ORDER BY time",
            (user_id,),
        )
        return [int(r["time"]) for r in rows]

    def user_ids(self) -> list[str]:
        """Sorted distinct user ids present in temporal_inputs."""
        rows = self.read(
            "SELECT DISTINCT user_id FROM temporal_inputs ORDER BY user_id"
        )
        return [str(r["user_id"]) for r in rows]

    def cell_fingerprints(self, user_id: str) -> dict[int, str]:
        """``{time: model fingerprint}`` the user's cells were computed under."""
        rows = self.read(
            "SELECT time, model_fp FROM temporal_inputs WHERE user_id = ?"
            " ORDER BY time",
            (user_id,),
        )
        return {int(r["time"]): str(r["model_fp"]) for r in rows}

    def ledger_snapshot(self) -> dict[str, dict[int, str]]:
        """The whole staleness ledger in one scan:
        ``{user_id: {time: model_fp}}`` (one scan beats per-user or
        per-time queries, which on the sharded backend would each fan out
        across every shard)."""
        rows = self.read(
            "SELECT user_id, time, model_fp FROM temporal_inputs"
            " ORDER BY user_id, time"
        )
        snapshot: dict[str, dict[int, str]] = {}
        for row in rows:
            snapshot.setdefault(str(row["user_id"]), {})[int(row["time"])] = str(
                row["model_fp"]
            )
        return snapshot

    def stale_cells(
        self, fingerprints: dict[int, str]
    ) -> list[tuple[str, int]]:
        """(user, time) cells whose ledger fingerprint differs from current.

        ``fingerprints`` maps time index to the *current* model
        fingerprint; any cell recorded under a different (or empty)
        fingerprint is stale.  Cells at time points missing from
        ``fingerprints`` are not reported.

        **Ordering contract:** rows come back ``ORDER BY user_id, time``
        (SQLite BINARY collation), evaluated inside the database on every
        backend — on the sharded backend the ORDER BY applies to the
        ``UNION ALL`` view output, so the order is identical across
        ``sqlite`` / ``memory`` / ``sharded`` rather than reflecting
        shard layout.  Worker pools claim cells in this order, which
        makes claim sequences reproducible in tests.
        """
        if not fingerprints:
            return []
        values, params = self._fingerprint_values(fingerprints)
        rows = self.read(
            "SELECT ti.user_id AS user_id, ti.time AS time"
            " FROM temporal_inputs AS ti"
            f" JOIN (VALUES {values}) AS fp"
            f" ON {self._STALE_PREDICATE}"
            " ORDER BY ti.user_id, ti.time",
            params,
        )
        return [(str(r["user_id"]), int(r["time"])) for r in rows]

    # ------------------------------------------------------------- leases

    #: The staleness join predicate against the fingerprint VALUES
    #: table.  The fingerprint mismatch is spelled ``< OR >`` rather
    #: than ``!=`` deliberately: an inequality cannot seek, so ``!=``
    #: degrades the ledger index to a full covering-index walk of each
    #: probed time partition (every fresh row visited and filtered),
    #: while the OR form becomes a MULTI-INDEX OR of two *range seeks*
    #: per partition that skip the contiguous fresh-fingerprint run
    #: entirely — a measured ~200× per claim round at 400k cells.  Both
    #: columns are NOT NULL text, so the forms are equivalent.
    _STALE_PREDICATE = (
        "ti.time = fp.column1"
        " AND (ti.model_fp < fp.column2 OR ti.model_fp > fp.column2)"
    )

    def _fingerprint_values(
        self, fingerprints: dict[int, str]
    ) -> tuple[str, list]:
        """``(values_sql, params)`` of the staleness predicate's
        ``(time, fingerprint)`` VALUES join — with
        :data:`_STALE_PREDICATE`, the one definition shared by
        :meth:`stale_cells`, the claim scan and the stale probe, so the
        three can never diverge on what "stale" means."""
        pairs = sorted((int(t), fp or "") for t, fp in fingerprints.items())
        values = ", ".join("(?, ?)" for _ in pairs)
        return values, [value for pair in pairs for value in pair]

    def clock_now(self) -> float:
        """Unix seconds read from the **store-side clock**.

        Lease arithmetic (claim expiry, renewal windows) uses this
        instead of ``time.time()`` by default: the value comes from
        SQLite's own clock (:data:`~repro.db.backends.CLOCK_SQL`), so
        every worker of a shared store reads one clock source and host
        clock skew cannot shrink or stretch leases.  Tests (and callers
        that need a reproducible clock) keep passing ``now=`` explicitly.
        """
        row = self._conn.execute(f"SELECT {CLOCK_SQL}").fetchone()
        return float(row[0])

    def _begin_immediate(self) -> None:
        """Open an IMMEDIATE transaction (write locks up front, on the
        main database and on every attached shard).  Every process
        sharing a file-backed store — plain or sharded, whose router
        file is the main database — contends on the main database's
        lock, so everything until COMMIT is atomic across the worker
        pool."""
        if self._conn.in_transaction:
            raise StorageError(
                "cannot lock the store inside an open transaction"
            )
        try:
            self._conn.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as exc:
            raise StorageError(f"could not lock store: {exc}") from exc

    def claim_stale_cells(
        self,
        fingerprints: dict[int, str],
        worker_id: str,
        *,
        limit: int = 4,
        lease_seconds: float = 30.0,
        now: float | None = None,
        exclude=(),
        prefer_schema: str | None = None,
    ) -> list[tuple[str, int]]:
        """Atomically lease up to ``limit`` stale cells to ``worker_id``.

        Walks :meth:`stale_cells` in its deterministic (user, time) order
        and writes a lease row for each cell that is unleased, expired,
        or already held by this worker (re-claiming one's own lease just
        extends it, so a retrying worker is idempotent).  The scan and
        all lease writes happen in **one** ``BEGIN IMMEDIATE``
        transaction, so two workers can never claim the same cell: the
        loser of the lock race sees the winner's fresh leases and skips
        them.

        ``now`` defaults to the store-side clock (:meth:`clock_now`,
        consistent across hosts sharing the store) and is injectable for
        tests; a lease is free again once ``lease_expires_at <= now``,
        which is how cells of crashed workers get recovered.
        ``exclude`` lists (user, time) cells to skip, e.g. cells this
        worker found uncomputable (no resumable session spec) that would
        otherwise be re-claimed forever.

        ``prefer_schema`` is the **shard-affinity** knob for worker
        pools on a sharded store: the claim scan drains that schema
        first (falling through to the others only when it has no stale
        cells left), so workers pinned to distinct shards upsert into
        distinct shard files and their writes never contend on one
        lock.  ``None`` keeps the global ledger order.  Returns the
        claimed cells.

        When a refresh budget is armed (:meth:`set_refresh_budget`),
        the claim is additionally capped at the budget's remaining
        cells, and the remainder is decremented by the number actually
        claimed — all inside the same ``BEGIN IMMEDIATE``, so
        concurrent workers can never jointly overspend the budget.  An
        exhausted budget claims nothing (workers observe this via
        :meth:`refresh_budget_remaining` and stop instead of spinning).
        """
        if limit < 1:
            raise StorageError("limit must be >= 1")
        now = float(self.clock_now() if now is None else now)
        expires = now + float(lease_seconds)
        excluded = {(str(u), int(t)) for u, t in exclude}
        claimed: list[tuple[str, int]] = []
        self._begin_immediate()
        try:
            budget_row = self.read(
                "SELECT remaining FROM main.refresh_budget WHERE id = 1"
            )
            scan_limit = int(limit)
            if budget_row:
                remaining = int(budget_row[0]["remaining"])
                if remaining <= 0:
                    self._conn.commit()
                    return []
                scan_limit = min(scan_limit, remaining)
            candidates = self._claimable_cells(
                fingerprints, worker_id, now, scan_limit + len(excluded),
                prefer_schema=prefer_schema,
            )
            for user_id, t in candidates:
                if len(claimed) >= scan_limit:
                    break
                if (user_id, t) in excluded:
                    continue
                db = self._db_for(user_id)
                cursor = self._conn.execute(
                    f"""
                    INSERT INTO {db}.refresh_leases
                        (user_id, time, worker_id, lease_expires_at)
                    VALUES (?, ?, ?, ?)
                    ON CONFLICT (user_id, time) DO UPDATE SET
                        worker_id = excluded.worker_id,
                        lease_expires_at = excluded.lease_expires_at
                    WHERE refresh_leases.lease_expires_at <= ?
                       OR refresh_leases.worker_id = excluded.worker_id
                    """,
                    (user_id, t, str(worker_id), expires, now),
                )
                if cursor.rowcount:
                    claimed.append((user_id, t))
            if budget_row and claimed:
                self._conn.execute(
                    "UPDATE main.refresh_budget"
                    " SET remaining = remaining - ? WHERE id = 1",
                    (len(claimed),),
                )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        return claimed

    def _claim_scan_sql(
        self,
        db: str,
        fingerprints: dict[int, str],
        worker_id: str,
        now: float,
        limit: int,
    ) -> tuple[str, list]:
        """One schema's claim-round scan as ``(query, params)``.

        The lease filter runs inside SQL so a claim round is a bounded
        query instead of materialising the whole stale set under the
        write lock, and the ledger probe ``(ti.time = …, ti.model_fp !=
        …)`` is answered by the covering index
        ``idx_temporal_inputs_ledger`` — a partial scan over the stale
        rows only, not O(cells).  The scan addresses each schema's
        tables **directly** (not the sharded ``UNION ALL`` views: the
        planner satisfies the view's merge-ordering with full
        primary-key scans per shard, exactly the O(cells) walk the index
        exists to avoid).  Shared by :meth:`_claimable_cells`
        (execution) and :meth:`claim_query_plan` (EXPLAIN QUERY PLAN
        verification).

        **Priority ordering:** rows come back ``ORDER BY escalated
        DESC, priority DESC, user_id, time`` — SLA-escalated cells
        first, then the serving tier's decayed activity score (via a
        covering-index lookup into ``user_priority``; users without a
        score rank at 0.0), with the original deterministic ``(user,
        time)`` order as the tie-break.  A store with no priority rows
        and no escalations therefore claims in *exactly* the pre-
        priority ledger order, which the digest-identity suites pin.
        """
        values, fp_params = self._fingerprint_values(fingerprints)
        query = (
            "SELECT ti.user_id AS user_id, ti.time AS time,"
            " COALESCE(up.score, 0.0) AS priority,"
            " CASE WHEN esc.user_id IS NULL THEN 0 ELSE 1 END AS escalated"
            f" FROM {db}.temporal_inputs AS ti"
            f" JOIN (VALUES {values}) AS fp"
            f" ON {self._STALE_PREDICATE}"
            f" LEFT JOIN {db}.user_priority AS up"
            " ON up.user_id = ti.user_id"
            f" LEFT JOIN {db}.refresh_escalations AS esc"
            " ON esc.user_id = ti.user_id AND esc.time = ti.time"
            f" LEFT JOIN {db}.refresh_leases AS rl"
            " ON rl.user_id = ti.user_id AND rl.time = ti.time"
            " WHERE rl.user_id IS NULL OR rl.lease_expires_at <= ?"
            " OR rl.worker_id = ?"
            " ORDER BY escalated DESC, priority DESC, ti.user_id, ti.time"
            " LIMIT ?"
        )
        return query, [*fp_params, float(now), str(worker_id), int(limit)]

    def _claimable_cells(
        self,
        fingerprints: dict[int, str],
        worker_id: str,
        now: float,
        limit: int,
        prefer_schema: str | None = None,
    ) -> list[tuple[str, int]]:
        """Stale cells not blocked by a live foreign lease, in priority
        order, at most ``limit`` (see :meth:`_claim_scan_sql`).

        Each schema is scanned with its own bounded, index-backed query;
        the per-schema results (each already capped at ``limit``) are
        merged and re-capped here under the same ``(escalated DESC,
        priority DESC, user, time)`` order the per-schema SQL emits.
        Python tuple ordering on ``(user_id, time)`` matches SQLite's
        BINARY collation — UTF-8 byte order and code-point order agree —
        so with no priorities or escalations the merged order equals the
        global ledger order of :meth:`stale_cells`.

        With ``prefer_schema`` set (shard affinity), that schema is
        scanned first and later schemas only until the limit fills —
        the claim order becomes shard-local priority order, still
        deterministic for a given lease/priority state.
        """
        if not fingerprints or limit < 1:
            return []
        schemas = list(self._backend.schemas())
        affinity = prefer_schema in schemas
        if affinity:
            schemas.remove(prefer_schema)
            schemas.insert(0, prefer_schema)
        cells: list[tuple[int, float, str, int]] = []
        for db in schemas:
            query, params = self._claim_scan_sql(
                db, fingerprints, worker_id, now, limit - len(cells) if affinity else limit
            )
            cells.extend(
                (
                    -int(r["escalated"]),
                    -float(r["priority"]),
                    str(r["user_id"]),
                    int(r["time"]),
                )
                for r in self.read(query, params)
            )
            if affinity and len(cells) >= limit:
                break
        if not affinity:
            cells.sort()
        return [(user_id, t) for _, _, user_id, t in cells[:limit]]

    def claim_query_plan(
        self, fingerprints: dict[int, str] | None = None
    ) -> list[str]:
        """``EXPLAIN QUERY PLAN`` detail lines of the claim scan.

        Scale guard-rail introspection: tests and benchmarks assert
        every schema's plan SEARCHes ``temporal_inputs`` via the
        covering ledger index (``idx_temporal_inputs_ledger``), never a
        table scan.  On a populated ledger the plan is a MULTI-INDEX OR
        of two *range* seeks (``model_fp<?`` / ``model_fp>?``) per time
        partition — what actually skips the fresh rows; on a near-empty
        store the cost model may collapse to a single ``time=?`` probe,
        which is equivalent there.  ``fingerprints`` defaults to a
        representative single-entry map.  Returns the concatenated
        detail lines of every schema's plan.
        """
        fingerprints = fingerprints or {0: "fp0"}
        details: list[str] = []
        for db in self._backend.schemas():
            query, params = self._claim_scan_sql(db, fingerprints, "plan", 0.0, 1)
            details.extend(
                str(row[-1])
                for row in self.read("EXPLAIN QUERY PLAN " + query, params)
            )
        return details

    def has_stale_cells(
        self, fingerprints: dict[int, str], exclude=()
    ) -> bool:
        """Whether any stale cell remains outside ``exclude`` —
        regardless of leases.  Workers use this to distinguish "queue
        drained" from "remaining cells are leased to someone else"
        (the latter may become claimable again if that worker dies).

        Workers poll this once per wait cycle, so like the claim scan
        it addresses each schema's tables directly (index-backed ledger
        probe) instead of materialising the whole stale set through the
        sharded views.  The exclusion filter stays in Python — binding
        it as SQL parameters would hit SQLite's variable limit on large
        unrecoverable sets — but stays bounded: each schema fetches at
        most ``len(exclude) + 1`` rows, and by pigeonhole any full fetch
        must contain a non-excluded stale cell.
        """
        if not fingerprints:
            return False
        excluded = {(str(u), int(t)) for u, t in exclude}
        values, params = self._fingerprint_values(fingerprints)
        limit = len(excluded) + 1
        for db in self._backend.schemas():
            rows = self.read(
                "SELECT ti.user_id AS user_id, ti.time AS time"
                f" FROM {db}.temporal_inputs AS ti"
                f" JOIN (VALUES {values}) AS fp"
                f" ON {self._STALE_PREDICATE}"
                " LIMIT ?",
                [*params, limit],
            )
            if any(
                (str(r["user_id"]), int(r["time"])) not in excluded
                for r in rows
            ):
                return True
        return False

    def renew_leases(
        self,
        worker_id: str,
        cells,
        *,
        lease_seconds: float = 30.0,
        now: float | None = None,
    ) -> int:
        """Extend this worker's live leases on ``cells``; returns how many
        were actually renewed.  A lease that already expired is *not*
        renewed (another worker may have legitimately reclaimed the
        cell), so a return value below ``len(cells)`` tells the worker
        to drop the lost cells instead of writing a result it no longer
        owns.  ``now`` defaults to the store-side clock
        (:meth:`clock_now`)."""
        now = float(self.clock_now() if now is None else now)
        expires = now + float(lease_seconds)
        renewed = 0
        # one transaction per shard (each cell is an independent
        # conditional update, so no cross-shard transaction is needed):
        # a worker's renewals never contend with another shard's writers
        for db, db_cells in self._cells_by_db(cells).items():
            with self._conn:
                for user_id, t in db_cells:
                    cursor = self._conn.execute(
                        f"UPDATE {db}.refresh_leases SET lease_expires_at = ?"
                        " WHERE user_id = ? AND time = ? AND worker_id = ?"
                        " AND lease_expires_at > ?",
                        (expires, user_id, t, str(worker_id), now),
                    )
                    renewed += cursor.rowcount
        return renewed

    def _cells_by_db(self, cells) -> dict[str, list[tuple[str, int]]]:
        """Group (user, time) cells by owning schema, input order kept."""
        grouped: dict[str, list[tuple[str, int]]] = {}
        for user_id, t in cells:
            grouped.setdefault(self._db_for(str(user_id)), []).append(
                (str(user_id), int(t))
            )
        return grouped

    def release_cells(self, worker_id: str, cells) -> int:
        """Drop this worker's lease rows for ``cells`` (after the cell's
        recompute was upserted, or to hand an unprocessed cell back to
        the pool early).  Releasing a cell leased to another worker is a
        no-op.  Returns the number of leases released."""
        released = 0
        for db, db_cells in self._cells_by_db(cells).items():
            with self._conn:
                for user_id, t in db_cells:
                    cursor = self._conn.execute(
                        f"DELETE FROM {db}.refresh_leases"
                        " WHERE user_id = ? AND time = ? AND worker_id = ?",
                        (user_id, t, str(worker_id)),
                    )
                    released += cursor.rowcount
        return released

    def prune_expired_leases(self, now: float | None = None) -> int:
        """Delete lease rows that already expired; returns how many.

        Hygiene for the lease table: a worker that upserted a cell but
        died before releasing it leaves a lease row behind even though
        the cell is fresh (so no survivor ever claims — and thereby
        overwrites — the row).  Workers call this once their drain ends;
        only rows with ``lease_expires_at <= now`` go, so live foreign
        leases are never touched.  ``now`` defaults to the store-side
        clock (:meth:`clock_now`).
        """
        now = float(self.clock_now() if now is None else now)
        pruned = 0
        with self._conn:
            for db in self._backend.schemas():
                cursor = self._conn.execute(
                    f"DELETE FROM {db}.refresh_leases"
                    " WHERE lease_expires_at <= ?",
                    (now,),
                )
                pruned += cursor.rowcount
        return pruned

    def lease_rows(self) -> list[tuple[str, int, str, float]]:
        """Current lease table, ``(user_id, time, worker_id,
        lease_expires_at)`` ordered by (user, time) — monitoring and
        test introspection."""
        rows = self.read(
            "SELECT user_id, time, worker_id, lease_expires_at"
            " FROM refresh_leases ORDER BY user_id, time"
        )
        return [
            (
                str(r["user_id"]),
                int(r["time"]),
                str(r["worker_id"]),
                float(r["lease_expires_at"]),
            )
            for r in rows
        ]

    # --------------------------------------------------- leader election
    #
    # The worker-lease machinery generalised to a single seat: N
    # orchestrator processes campaign over `main.leader_lease` and the
    # store clock — never host clocks — arbitrates who leads.  The
    # monotonically increasing `epoch` is a fencing token: every write
    # a leader makes on behalf of its leadership (checkpoints, drain
    # dispatch) first proves `(leader_id, epoch)` is still the live
    # seat, so a deposed leader that wakes up late is rejected instead
    # of silently merging its stale state over the new leader's.

    def acquire_leader_lease(
        self,
        node_id: str,
        *,
        ttl_seconds: float = 30.0,
        now: float | None = None,
    ) -> int | None:
        """Campaign for the leader seat; returns the fencing ``epoch``
        on success, ``None`` while another node's lease is live.

        Exactly one of three things happens, all inside one ``BEGIN
        IMMEDIATE`` so two campaigners can never both win:

        - no seat yet → take it at epoch 1;
        - this node already holds a live seat → renew in place (same
          epoch — re-campaigning is idempotent, like re-claiming one's
          own cell lease);
        - the seat's lease expired → take over at ``epoch + 1`` (the
          increment is what fences the previous leader's late writes).

        ``now`` defaults to the store-side clock (:meth:`clock_now`)
        and is injectable for tests.
        """
        now = float(self.clock_now() if now is None else now)
        expires = now + float(ttl_seconds)
        node_id = str(node_id)
        self._begin_immediate()
        try:
            rows = self.read(
                "SELECT leader_id, epoch, lease_expires_at"
                " FROM main.leader_lease WHERE id = 1"
            )
            epoch: int | None
            if not rows:
                self._conn.execute(
                    "INSERT INTO main.leader_lease"
                    " (id, leader_id, epoch, acquired_at, renewed_at,"
                    " lease_expires_at)"
                    " VALUES (1, ?, 1, ?, ?, ?)",
                    (node_id, now, now, expires),
                )
                epoch = 1
            elif (
                str(rows[0]["leader_id"]) == node_id
                and float(rows[0]["lease_expires_at"]) > now
            ):
                epoch = int(rows[0]["epoch"])
                self._conn.execute(
                    "UPDATE main.leader_lease"
                    " SET renewed_at = ?, lease_expires_at = ?"
                    " WHERE id = 1",
                    (now, expires),
                )
            elif float(rows[0]["lease_expires_at"]) <= now:
                epoch = int(rows[0]["epoch"]) + 1
                self._conn.execute(
                    "UPDATE main.leader_lease"
                    " SET leader_id = ?, epoch = ?, acquired_at = ?,"
                    " renewed_at = ?, lease_expires_at = ?"
                    " WHERE id = 1",
                    (node_id, epoch, now, now, expires),
                )
            else:
                epoch = None
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        return epoch

    def renew_leader_lease(
        self,
        node_id: str,
        epoch: int,
        *,
        ttl_seconds: float = 30.0,
        now: float | None = None,
    ) -> bool:
        """Heartbeat: extend the lease iff this node still holds the
        seat *at this epoch* and the lease has not already expired (an
        expired lease may have been taken over, so renewing it would
        resurrect a deposed leader).  Returns whether the seat is still
        held — ``False`` tells the caller to stop leading immediately.
        """
        now = float(self.clock_now() if now is None else now)
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE main.leader_lease"
                " SET renewed_at = ?, lease_expires_at = ?"
                " WHERE id = 1 AND leader_id = ?"
                " AND epoch = ? AND lease_expires_at > ?",
                (now, now + float(ttl_seconds), str(node_id), int(epoch), now),
            )
        return bool(cursor.rowcount)

    def resign_leader_lease(
        self, node_id: str, epoch: int, *, now: float | None = None
    ) -> bool:
        """Step down cleanly: expire (never delete) this node's lease so
        a standby can take over without waiting out the TTL.  The row —
        and its ``epoch`` — stays, keeping the fencing token monotonic
        across leaderships.  A resign by a node that no longer holds the
        seat is a no-op; returns whether the seat was released.
        """
        now = float(self.clock_now() if now is None else now)
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE main.leader_lease SET lease_expires_at = ?"
                " WHERE id = 1 AND leader_id = ?"
                " AND epoch = ? AND lease_expires_at > ?",
                (now, str(node_id), int(epoch), now),
            )
        return bool(cursor.rowcount)

    def verify_leader(
        self, node_id: str, epoch: int, *, now: float | None = None
    ) -> bool:
        """Whether ``(node_id, epoch)`` is the live seat right now —
        the fencing check run before every leadership-scoped write."""
        now = float(self.clock_now() if now is None else now)
        rows = self.read(
            "SELECT 1 FROM main.leader_lease"
            " WHERE id = 1 AND leader_id = ?"
            " AND epoch = ? AND lease_expires_at > ?",
            (str(node_id), int(epoch), now),
        )
        return bool(rows)

    def leader_status(self, *, now: float | None = None) -> dict | None:
        """Current seat as a dict (monitoring / ``orchestrator-status``),
        or ``None`` when no node has ever campaigned.  ``lease_age`` is
        seconds since the last heartbeat, on the store clock."""
        now = float(self.clock_now() if now is None else now)
        rows = self.read(
            "SELECT leader_id, epoch, acquired_at, renewed_at,"
            " lease_expires_at FROM main.leader_lease WHERE id = 1"
        )
        if not rows:
            return None
        row = rows[0]
        expires = float(row["lease_expires_at"])
        return {
            "leader_id": str(row["leader_id"]),
            "epoch": int(row["epoch"]),
            "acquired_at": float(row["acquired_at"]),
            "renewed_at": float(row["renewed_at"]),
            "lease_expires_at": expires,
            "lease_age": max(0.0, now - float(row["renewed_at"])),
            "expired": expires <= now,
        }

    def set_orchestrator_metrics(
        self, payload: dict, *, now: float | None = None
    ) -> None:
        """Durably publish the orchestrator's health/metrics snapshot
        (coordinator state, digest-excluded) for the serving tier and
        ``orchestrator-status`` to read without sharing its process."""
        now = float(self.clock_now() if now is None else now)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._conn:
            self._conn.execute(
                "INSERT INTO main.orchestrator_metrics (id, updated_at, payload)"
                " VALUES (1, ?, ?)"
                " ON CONFLICT (id) DO UPDATE SET"
                " updated_at = excluded.updated_at,"
                " payload = excluded.payload",
                (now, blob),
            )

    def orchestrator_metrics(self) -> dict | None:
        """Last published snapshot as ``{"updated_at": ts, "metrics":
        {...}}``, or ``None`` before any orchestrator checkpointed."""
        rows = self.read(
            "SELECT updated_at, payload FROM main.orchestrator_metrics"
            " WHERE id = 1"
        )
        if not rows:
            return None
        return {
            "updated_at": float(rows[0]["updated_at"]),
            "metrics": json.loads(str(rows[0]["payload"])),
        }

    # ----------------------------------------- priority / budget / freshness

    def set_refresh_budget(self, remaining: int | None) -> None:
        """Arm (or clear) the durable per-epoch refresh budget.

        The budget lives in ``main.refresh_budget`` — coordinator
        state, not shard data, so it is excluded from
        :meth:`contents_digest` and survives worker crashes: each
        :meth:`claim_stale_cells` decrements it inside the claim's own
        ``BEGIN IMMEDIATE``.  ``None`` deletes the row, returning the
        store to unlimited draining.
        """
        with self._conn:
            if remaining is None:
                self._conn.execute("DELETE FROM main.refresh_budget WHERE id = 1")
            else:
                self._conn.execute(
                    "INSERT INTO main.refresh_budget (id, remaining)"
                    " VALUES (1, ?)"
                    " ON CONFLICT (id) DO UPDATE SET remaining = excluded.remaining",
                    (int(remaining),),
                )

    def refresh_budget_remaining(self) -> int | None:
        """Cells the armed budget still allows, or ``None`` when no
        budget is armed (unlimited).  Never negative."""
        rows = self.read("SELECT remaining FROM main.refresh_budget WHERE id = 1")
        if not rows:
            return None
        return max(0, int(rows[0]["remaining"]))

    def record_accesses(self, entries, now: float | None = None) -> int:
        """Append serving-tier read events to the ``access_log``.

        ``entries`` is an iterable of ``(user_id, question, ts)``;
        ``ts=None`` stamps the event with ``now`` (store-side clock by
        default).  On a sharded store the log is one router table: a
        batch is one commit to a file no replica opens, so a flush never
        stalls a read.  It shares the router's write lock with claims,
        lease and budget writes (whose ``BEGIN IMMEDIATE`` locks every
        file anyway) but runs off the serving event loop; a single-file
        store keeps the log with its data.  Returns the rows written,
        raw material for :meth:`materialize_priorities`, not digested.
        """
        entries = [
            (str(user), str(question), None if ts is None else float(ts))
            for user, question, ts in entries
        ]
        if not entries:
            return 0
        if any(ts is None for _, _, ts in entries):
            now = float(self.clock_now() if now is None else now)
        with self._conn:
            self._conn.executemany(
                "INSERT INTO main.access_log"
                " (user_id, question, accessed_at) VALUES (?, ?, ?)",
                [(user, q, now if ts is None else ts) for user, q, ts in entries],
            )
        return len(entries)

    def materialize_priorities(
        self, *, now: float | None = None, halflife_seconds: float = 3600.0
    ) -> dict[str, float]:
        """Fold the ``access_log`` into decayed ``user_priority`` scores.

        Exponential decay with the given half-life: an existing score is
        decayed from its ``updated_at`` to ``now``, each logged access
        contributes ``0.5 ** (age / halflife)``, and the merged score is
        re-stamped at ``now``.  The fold is one ``BEGIN IMMEDIATE``
        transaction taken *before* its first read (read and delete the
        router's log, upsert every shard's scores), so a concurrent
        :meth:`record_accesses` batch either lands before the fold reads
        the log or waits and survives for the next one — never lost.
        Returns the merged ``{user_id: score}`` mapping across all shards.
        """
        now = float(self.clock_now() if now is None else now)
        halflife = float(halflife_seconds)
        if halflife <= 0:
            raise StorageError("halflife_seconds must be > 0")
        conn = self._conn
        merged: dict[str, float] = {}
        self._begin_immediate()
        try:
            by_db: dict[str, list] = {}
            for user, ts in conn.execute(
                "SELECT user_id, accessed_at FROM main.access_log"
            ).fetchall():
                user = str(user)
                by_db.setdefault(self._db_for(user), []).append((user, ts))
            conn.execute("DELETE FROM main.access_log")
            for db in self._backend.schemas():
                old = conn.execute(
                    f"SELECT user_id, score, updated_at FROM {db}.user_priority"
                ).fetchall()
                scores: dict[str, float] = {}
                for user, score, updated in old:
                    age = max(0.0, now - float(updated))
                    scores[str(user)] = float(score) * 0.5 ** (age / halflife)
                for user, ts in by_db.get(db, ()):
                    age = max(0.0, now - float(ts))
                    scores[user] = scores.get(user, 0.0) + 0.5 ** (age / halflife)
                conn.executemany(
                    f"INSERT INTO {db}.user_priority"
                    " (user_id, score, updated_at) VALUES (?, ?, ?)"
                    " ON CONFLICT (user_id) DO UPDATE SET"
                    " score = excluded.score, updated_at = excluded.updated_at",
                    [(user, score, now) for user, score in scores.items()],
                )
                merged.update(scores)
            conn.commit()
        except BaseException:
            conn.rollback()
            raise
        return merged

    def set_user_priorities(
        self, scores: dict[str, float], now: float | None = None
    ) -> None:
        """Directly upsert priority scores (tests, benchmarks, and
        operators overriding the access-log feedback path), in one
        transaction with shards in ascending order, as
        :meth:`_grouped_write` takes them."""
        if not scores:
            return
        now = float(self.clock_now() if now is None else now)
        grouped: dict[str, list[tuple[str, float, float]]] = {}
        for user, score in scores.items():
            grouped.setdefault(self._db_for(str(user)), []).append(
                (str(user), float(score), now)
            )
        with self._conn:
            for db, rows in sorted(grouped.items()):
                self._conn.executemany(
                    f"INSERT INTO {db}.user_priority"
                    " (user_id, score, updated_at) VALUES (?, ?, ?)"
                    " ON CONFLICT (user_id) DO UPDATE SET"
                    " score = excluded.score, updated_at = excluded.updated_at",
                    rows,
                )

    def user_priorities(self) -> dict[str, float]:
        """Current ``{user_id: score}`` across all shards."""
        rows = self.read("SELECT user_id, score FROM user_priority")
        return {str(r["user_id"]): float(r["score"]) for r in rows}

    def escalate_cells(self, cells) -> None:
        """Mark cells as SLA-escalated: the claim scan orders them ahead
        of every score (``escalated DESC`` leads the ORDER BY), so a
        cell stale past its SLA drains first regardless of traffic.
        One transaction, shards in ascending order."""
        with self._conn:
            for db, db_cells in sorted(self._cells_by_db(cells).items()):
                self._conn.executemany(
                    f"INSERT OR REPLACE INTO {db}.refresh_escalations"
                    " (user_id, time) VALUES (?, ?)",
                    db_cells,
                )

    def clear_escalations(self, cells=None) -> int:
        """Drop escalation marks — all of them (``cells=None``, e.g. at
        the top of an epoch before re-deriving the overdue set) or a
        specific list — in one transaction, shards in ascending order.
        Returns the number of rows removed."""
        if cells is None:
            deletes = [
                (f"DELETE FROM {db}.refresh_escalations", ())
                for db in sorted(self._backend.schemas())
            ]
        else:
            deletes = [
                (
                    f"DELETE FROM {db}.refresh_escalations"
                    " WHERE user_id = ? AND time = ?",
                    cell,
                )
                for db, db_cells in sorted(self._cells_by_db(cells).items())
                for cell in db_cells
            ]
        with self._conn:
            return sum(
                self._conn.execute(sql, params).rowcount for sql, params in deletes
            )

    def traffic_weighted_freshness(
        self, fingerprints: dict[int, str]
    ) -> dict:
        """Freshness of the store as read traffic would experience it.

        A cell is stale when its ledger fingerprint differs from the
        current one in ``fingerprints`` (times absent from
        ``fingerprints`` don't count either way, matching
        :meth:`stale_cells`).  Each user's fresh fraction is weighted by
        their priority score, so the headline number answers "what
        fraction of *traffic* is served fresh", not "what fraction of
        cells is fresh".  Users without a score weigh 0; when no user
        has positive weight the weighted number falls back to the
        unweighted mean.
        """
        ledger = self.ledger_snapshot()
        weights = self.user_priorities()
        total_cells = 0
        stale_cells = 0
        fractions: dict[str, float] = {}
        for user, times in ledger.items():
            considered = 0
            stale = 0
            for t, fp in times.items():
                current = fingerprints.get(t)
                if current is None:
                    continue
                considered += 1
                if fp != current:
                    stale += 1
            total_cells += considered
            stale_cells += stale
            fractions[user] = (
                1.0 if considered == 0 else (considered - stale) / considered
            )
        total_weight = sum(weights.get(user, 0.0) for user in fractions)
        if total_weight > 0:
            weighted = (
                sum(
                    weights.get(user, 0.0) * frac
                    for user, frac in fractions.items()
                )
                / total_weight
            )
        elif fractions:
            weighted = sum(fractions.values()) / len(fractions)
        else:
            weighted = 1.0
        return {
            "users": len(fractions),
            "cells": total_cells,
            "stale_cells": stale_cells,
            "fresh_fraction": (
                1.0 if total_cells == 0
                else (total_cells - stale_cells) / total_cells
            ),
            "weighted_fresh_fraction": weighted,
        }

    def freshness_report(self, now: float | None = None) -> dict:
        """Age-based freshness summary from the ``refreshed_at`` stamps.

        Per user the *oldest* backing cell bounds how stale any answer
        for that user can be; the report aggregates that bound across
        users (max and priority-weighted mean).  Rows written before the
        stamp column existed carry ``refreshed_at = 0`` and are counted
        separately as ``unstamped_users`` instead of polluting the ages.
        """
        now = float(self.clock_now() if now is None else now)
        rows = self.read(
            "SELECT user_id, MIN(refreshed_at) AS oldest"
            " FROM temporal_inputs GROUP BY user_id"
        )
        weights = self.user_priorities()
        ages: dict[str, float] = {}
        unstamped = 0
        for r in rows:
            oldest = float(r["oldest"])
            if oldest <= 0:
                unstamped += 1
                continue
            ages[str(r["user_id"])] = max(0.0, now - oldest)
        total_weight = sum(weights.get(user, 0.0) for user in ages)
        if total_weight > 0:
            weighted_mean = (
                sum(weights.get(user, 0.0) * age for user, age in ages.items())
                / total_weight
            )
        elif ages:
            weighted_mean = sum(ages.values()) / len(ages)
        else:
            weighted_mean = 0.0
        return {
            "users": len(ages) + unstamped,
            "unstamped_users": unstamped,
            "max_age": max(ages.values(), default=0.0),
            "mean_age": (
                sum(ages.values()) / len(ages) if ages else 0.0
            ),
            "weighted_mean_age": weighted_mean,
            "now": now,
        }

    # -------------------------------------------------------------- reads

    def cell_vectors(self, user_id: str, time: int) -> np.ndarray:
        """Stored candidate feature vectors of one cell, shape ``(n, d)``.

        Insertion-ordered (by rowid); the warm-start path feeds these to
        the beam as seed states.
        """
        rows = self.read(
            "SELECT * FROM candidates WHERE user_id = ? AND time = ?"
            " ORDER BY id",
            (user_id, int(time)),
        )
        if not rows:
            return np.empty((0, len(self.schema)))
        return np.vstack([self.row_to_vector(row) for row in rows])

    def load_candidates(
        self, user_id: str, time: int | None = None
    ) -> list[Candidate]:
        """Reconstruct the user's :class:`Candidate` objects from rows,
        optionally restricted to one time point (the warm-start top-m
        selection ranks a single cell's stored candidates)."""
        if time is None:
            rows = self.read(
                "SELECT * FROM candidates WHERE user_id = ? ORDER BY time, id",
                (user_id,),
            )
        else:
            rows = self.read(
                "SELECT * FROM candidates WHERE user_id = ? AND time = ?"
                " ORDER BY id",
                (user_id, int(time)),
            )
        return [
            Candidate(
                self.row_to_vector(row),
                int(row["time"]),
                CandidateMetrics(
                    diff=float(row["diff"]),
                    gap=int(row["gap"]),
                    confidence=float(row["p"]),
                ),
                plan_rank=(
                    -1 if row["plan_rank"] is None else int(row["plan_rank"])
                ),
                plan_quality=(
                    None
                    if row["plan_quality"] is None
                    else float(row["plan_quality"])
                ),
                plan_min_dist=(
                    None
                    if row["plan_min_dist"] is None
                    else float(row["plan_min_dist"])
                ),
            )
            for row in rows
        ]

    def load_session_specs(self) -> list[tuple[str, np.ndarray, list[str] | None]]:
        """Persisted session specs: ``(user_id, profile, constraint_texts)``."""
        rows = self.read(
            "SELECT user_id, profile, constraints FROM user_sessions"
            " ORDER BY user_id"
        )
        specs = []
        for row in rows:
            constraints = (
                None
                if row["constraints"] is None
                else list(json.loads(row["constraints"]))
            )
            specs.append(
                (
                    str(row["user_id"]),
                    np.asarray(json.loads(row["profile"]), dtype=float),
                    constraints,
                )
            )
        return specs

    def row_to_vector(self, row: sqlite3.Row) -> np.ndarray:
        """Extract the feature vector from any row with feature columns."""
        return np.array([row[name] for name in self.schema.names], dtype=float)

    def contents_digest(self) -> str:
        """SHA-256 over the store's canonical logical contents.

        Two stores holding the same sessions, temporal inputs and
        candidates produce the same digest **regardless of which worker
        wrote which cell**: rows are serialised in (user, time) order and
        the ``candidates.id`` autoincrement — pure storage metadata whose
        global values depend on cell *completion* order across a worker
        pool — is excluded.  Per-cell candidate order is preserved (rows
        of one cell are written by a single worker in generation order,
        so ``id`` still sorts them within the cell).  This is the
        identity check behind "an N-process refresh equals the
        single-process refresh byte for byte".

        Plan-set metadata (``plan_rank``/``plan_quality``/
        ``plan_min_dist``) is folded in only for rows that carry it
        (``plan_rank >= 0``): rows without a stored plan set — legacy
        databases, candidates stored by hand — serialise exactly as they
        did before the columns existed, so historical digests remain
        comparable.
        """
        digest = hashlib.sha256()
        feature_cols = ", ".join(self.schema.names)
        for row in self.read(
            f"SELECT user_id, time, {feature_cols}, model_fp"
            " FROM temporal_inputs ORDER BY user_id, time"
        ):
            digest.update(repr(tuple(row)).encode())
        for row in self.read(
            f"SELECT user_id, time, {feature_cols}, diff, gap, p, model_fp,"
            " plan_rank, plan_quality, plan_min_dist"
            " FROM candidates ORDER BY user_id, time, id"
        ):
            values = tuple(row)
            digest.update(repr(values[:-3]).encode())
            rank = values[-3]
            if rank is not None and int(rank) >= 0:
                digest.update(repr(values[-3:]).encode())
        for row in self.read(
            "SELECT user_id, profile, constraints FROM user_sessions"
            " ORDER BY user_id"
        ):
            digest.update(repr(tuple(row)).encode())
        return digest.hexdigest()


# --------------------------------------------------------------- write ops
#
# One shard-local unit of a grouped write.  Rows are marshalled (and
# validated) at construction time — before any transaction opens —
# and ``apply`` runs inside the grouped write's transaction, executing
# the deletes/inserts under the shard's schema prefix ``db`` and
# returning the number of candidate rows written.


class _CellWrite:
    """Replace one (user, time) cell — see :meth:`CandidateStore.upsert_cells`."""

    __slots__ = ("user_id", "time", "rows", "ledger_fp", "x_row", "stamp")

    def __init__(self, store, user_id, time, candidates, x_t, fingerprints, stamp):
        self.user_id = str(user_id)
        self.time = int(time)
        self.stamp = float(stamp)
        self.rows = store._candidate_rows(self.user_id, candidates, fingerprints)
        for row in self.rows:
            if int(row[1]) != self.time:
                raise StorageError(
                    f"candidate for time {row[1]} in cell"
                    f" ({self.user_id!r}, {self.time})"
                )
        self.ledger_fp = fingerprints.get(self.time) or ""
        if x_t is None:
            self.x_row = None
        else:
            vector = np.asarray(x_t, dtype=float).ravel()
            if vector.size != len(store.schema):
                raise StorageError(
                    f"x_t has {vector.size} entries, schema"
                    f" expects {len(store.schema)}"
                )
            self.x_row = (
                self.user_id, self.time, *map(float, vector), self.ledger_fp,
                self.stamp,
            )

    def apply(self, store, db) -> int:
        conn = store._conn
        conn.execute(
            f"DELETE FROM {db}.candidates"
            " WHERE user_id = ? AND time = ?",
            (self.user_id, self.time),
        )
        conn.executemany(
            store._insert_sql(db, "candidates", store._CANDIDATE_EXTRA),
            self.rows,
        )
        cursor = conn.execute(
            f"UPDATE {db}.temporal_inputs SET model_fp = ?,"
            " refreshed_at = ?"
            " WHERE user_id = ? AND time = ?",
            (self.ledger_fp, self.stamp, self.user_id, self.time),
        )
        if cursor.rowcount == 0:
            if self.x_row is None:
                raise StorageError(
                    f"cell ({self.user_id!r}, {self.time}) has no"
                    " temporal_inputs row; pass x_t to restore it"
                )
            conn.execute(
                store._insert_sql(db, "temporal_inputs", ("model_fp", "refreshed_at")),
                self.x_row,
            )
        return len(self.rows)


class _SessionWrite:
    """Replace one user's full horizon — the per-user unit of
    :meth:`CandidateStore.store_sessions`."""

    __slots__ = ("user_id", "input_rows", "cand_rows")

    def __init__(self, store, user_id, trajectory, candidates, fingerprints,
                 stamp=None):
        self.user_id = str(user_id)
        self.input_rows = store._input_rows(
            user_id, trajectory, fingerprints, stamp=stamp
        )
        self.cand_rows = store._candidate_rows(user_id, candidates, fingerprints)

    def apply(self, store, db) -> int:
        conn = store._conn
        conn.execute(
            f"DELETE FROM {db}.candidates WHERE user_id = ?",
            (self.user_id,),
        )
        conn.execute(
            f"DELETE FROM {db}.temporal_inputs WHERE user_id = ?",
            (self.user_id,),
        )
        conn.executemany(
            store._insert_sql(db, "temporal_inputs", ("model_fp", "refreshed_at")),
            self.input_rows,
        )
        conn.executemany(
            store._insert_sql(db, "candidates", store._CANDIDATE_EXTRA),
            self.cand_rows,
        )
        return len(self.cand_rows)


class _SpecWrite:
    """Persist one session spec (``user_sessions`` upsert)."""

    __slots__ = ("row",)

    def __init__(self, store, spec):
        self.row = store._spec_row(*spec)

    def apply(self, store, db) -> int:
        conn = store._conn
        conn.execute(
            f"INSERT OR REPLACE INTO {db}.user_sessions"
            " (user_id, profile, constraints) VALUES (?, ?, ?)",
            self.row,
        )
        return 0
