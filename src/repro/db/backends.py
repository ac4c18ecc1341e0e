"""Pluggable storage backends for the candidate store.

:class:`~repro.db.store.CandidateStore` owns the relational schema, SQL
generation and row marshalling; a :class:`StoreBackend` owns *where* the
rows live.  Three backends are provided:

``SQLiteBackend`` (``'sqlite'``)
    One SQLite database file — the durable single-node default.
``MemoryBackend`` (``'memory'``)
    One in-process ``:memory:`` database — tests, demos, ephemeral
    sessions.
``ShardedSQLiteBackend`` (``'sharded'``)
    ``n_shards`` SQLite databases attached to one router connection;
    each user's rows live in exactly one shard, chosen by a stable hash
    of the user id.  Writes address the owning shard's schema on the
    router connection (separate files → separate write locks when
    backed by disk; a transaction spanning shards commits atomically
    through SQLite's super-journal), while global reads — the expert
    SQL passthrough and the Figure-2 canned queries — go through
    ``UNION ALL`` views, so the query layer is backend agnostic.

All backends speak sqlite3 underneath: the contract is *connection
topology* (how many databases, which schema a user's rows live in) plus
a small **DB-API dialect seam** (:meth:`StoreBackend.placeholder`,
:meth:`StoreBackend.begin_immediate_sql`,
:meth:`StoreBackend.for_update_suffix`, :meth:`StoreBackend.clock_sql`)
— the handful of spots where SQL engines actually differ — so an
out-of-process backend (postgres/mysql) is a ~100-line subclass, not a
store rewrite.  The shared backend-contract test suite in
``tests/test_store_backends.py`` runs every public store operation
against all three.
"""

from __future__ import annotations

import sqlite3
import zlib
from pathlib import Path

from repro.exceptions import StorageError

#: SQLite busy timeout (seconds).  Worker-pool processes contend on the
#: shared file's write lock during lease claims and cell upserts; the
#: sqlite3 default of 5s is too twitchy when a claim scan lands behind a
#: bulk upsert on a loaded machine.
_BUSY_TIMEOUT_S = 30.0

__all__ = [
    "BACKEND_NAMES",
    "MemoryBackend",
    "ShardedSQLiteBackend",
    "SQLiteBackend",
    "StoreBackend",
    "make_backend",
    "recover_rebalance",
]


class StoreBackend:
    """Connection topology behind a :class:`~repro.db.store.CandidateStore`.

    Subclasses provide one sqlite3 connection (possibly with several
    attached databases) and answer two questions: which database schemas
    hold table copies, and which schema owns a given user's rows.  Every
    read and write of the store runs on that one connection.

    The backend also owns the **SQL dialect seam** — the four spots
    where relational engines actually differ, so the store's SQL
    generation stays engine agnostic:

    :meth:`placeholder`
        Bind-parameter marker (sqlite3 ``?``; a postgres/mysql backend
        returns ``%s``).
    :meth:`begin_immediate_sql`
        Statement opening a transaction that takes the coordination
        write lock *up front* — what serialises lease claims across
        processes.  SQLite: ``BEGIN IMMEDIATE``; postgres would return
        ``BEGIN`` and rely on ``SELECT ... FOR UPDATE`` row locks
        (:meth:`for_update_suffix`).
    :meth:`for_update_suffix`
        Row-lock suffix appended to the claim scan.  Empty for the
        sqlite3 family (the immediate transaction already owns the
        database write lock); ``" FOR UPDATE"`` on server backends.
    :meth:`clock_sql`
        The **store-side clock**: lease timestamps are taken from an
        SQL expression evaluated *by the database*, not from
        ``time.time()`` in whichever process happens to call — so every
        worker sharing a store reads the same clock source and host
        clock skew cannot shrink or stretch leases.  For the sqlite3
        family that is ``julianday('now')`` converted to Unix seconds;
        an out-of-process backend would return its server-side
        equivalent (e.g. ``EXTRACT(EPOCH FROM now())``).
    """

    #: the router connection: every read, write and lease claim
    conn: sqlite3.Connection

    #: Unix-epoch seconds as computed by SQLite itself.  2440587.5 is the
    #: julian day of 1970-01-01T00:00:00Z; julianday('now') has ~1 ms
    #: resolution, ample for multi-second leases.
    CLOCK_SQL = "(julianday('now') - 2440587.5) * 86400.0"

    def schemas(self) -> tuple[str, ...]:
        """Database schema names holding one copy of each table."""
        raise NotImplementedError

    def schema_for(self, user_id: str) -> str:
        """Schema owning ``user_id``'s rows (stable across processes)."""
        raise NotImplementedError

    # ------------------------------------------------------ dialect seam

    def placeholder(self) -> str:
        """Bind-parameter marker of the engine's DB-API paramstyle."""
        return "?"

    def begin_immediate_sql(self) -> str:
        """Statement opening a write-lock-up-front transaction."""
        return "BEGIN IMMEDIATE"

    def for_update_suffix(self) -> str:
        """Row-lock suffix for the claim scan ('' when the transaction
        lock already covers it)."""
        return ""

    def clock_sql(self) -> str:
        """SQL expression yielding the store-side clock in Unix seconds."""
        return self.CLOCK_SQL

    # ----------------------------------------------------- read replicas

    def replica_connection(
        self, schema: str
    ) -> tuple[sqlite3.Connection, str] | None:
        """A **new read-only** connection to ``schema``, or ``None``.

        The serving tier's replica pool calls this to open reader
        connections that cannot contend with (or corrupt) the write
        path: each is an independent handle onto the schema's database,
        opened read-only at the engine level and additionally pinned
        with ``PRAGMA query_only`` so even a bug in the serving layer
        cannot write through it.  Returns ``(connection, prefix)``, the
        prefix qualifying table names on that connection (a connection
        straight to a shard file sees it as ``main``); ``None`` means
        the topology has no separately-openable replica (in-memory
        databases are reachable only through their creating connection)
        and the pool must fall back to the router.
        ``check_same_thread=False`` because the pool hands connections
        to server executor threads (each connection is used by one
        thread at a time).

        A server backend (postgres/mysql) overrides this to connect to
        an actual read replica — same seam, same pool.
        """
        return None

    @property
    def sharded(self) -> bool:
        return len(self.schemas()) > 1

    def close(self) -> None:
        self.conn.close()


class SQLiteBackend(StoreBackend):
    """Single SQLite database (file-backed unless ``':memory:'``)."""

    name = "sqlite"

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        # check_same_thread=False: the serving tier's replica pool falls
        # back to this connection (behind a mutex) when the database has
        # no separately-openable replica files
        self.conn = sqlite3.connect(
            self.path, timeout=_BUSY_TIMEOUT_S, check_same_thread=False
        )

    def schemas(self) -> tuple[str, ...]:
        return ("main",)

    def schema_for(self, user_id: str) -> str:
        return "main"

    def replica_connection(
        self, schema: str
    ) -> tuple[sqlite3.Connection, str] | None:
        if self.path == ":memory:":
            return None
        return _open_replica(self.path), "main"


class MemoryBackend(SQLiteBackend):
    """In-process ``:memory:`` database; contents die with the store."""

    name = "memory"

    def __init__(self):
        super().__init__(":memory:")


class ShardedSQLiteBackend(StoreBackend):
    """``n_shards`` databases attached to one router connection.

    ``path`` of ``':memory:'`` attaches independent in-memory shards;
    otherwise shard ``i`` lives in ``<path>.shard<i>``.  The shard count
    is capped by SQLite's attached-database limit (10 by default); the
    cap here is 8, leaving room for the router and one user attach.
    """

    name = "sharded"
    MAX_SHARDS = 8

    def __init__(self, path: str | Path = ":memory:", n_shards: int = 4):
        if not 1 <= n_shards <= self.MAX_SHARDS:
            raise StorageError(
                f"n_shards must be in [1, {self.MAX_SHARDS}], got {n_shards}"
            )
        self.path = str(path)
        self.n_shards = n_shards
        if self.path != ":memory:":
            # a crashed rebalance may have left the shard files mid-swap;
            # finish (or roll back) the migration before counting them
            recover_rebalance(self.path)
            # reopening with a different shard count than exists on disk
            # would rehome users (crc32 % n_shards): fewer shards hides
            # rows, more shards duplicates them on the next rewrite
            existing = _existing_shard_count(self.path)
            if existing not in (0, n_shards):
                raise StorageError(
                    f"{self.path} has {existing} shard files but n_shards"
                    f"={n_shards}; reopen with the original shard count"
                )
        # file-backed shards get a file-backed router at <path> (it holds
        # the coordinator tables — rebalance state, refresh budget,
        # leader lease — never user rows): SQLite only guarantees atomic
        # commits across attached databases when the main database is
        # not ':memory:', and the lease claim path relies on the
        # router's write lock
        router = ":memory:" if self.path == ":memory:" else self.path
        # check_same_thread=False for the same reason as SQLiteBackend:
        # the replica pool's in-memory fallback serves reads through the
        # router from server worker threads, serialised by a mutex
        self.conn = sqlite3.connect(
            router, timeout=_BUSY_TIMEOUT_S, check_same_thread=False
        )
        for i in range(n_shards):
            target = (
                ":memory:" if self.path == ":memory:" else f"{self.path}.shard{i}"
            )
            self.conn.execute(f"ATTACH DATABASE ? AS shard{i}", (target,))
        if self.path != ":memory:":
            self._require_rollback_journals()

    def _require_rollback_journals(self) -> None:
        """Refuse files whose journal mode breaks multi-shard atomicity.

        SQLite commits a transaction that spans attached files
        atomically only through its super-journal, and only files with a
        rollback journal take part in it.  An operator can switch a file
        to WAL (the mode persists inside the file); a write spanning that
        shard and another could then survive a crash in one and not the
        other.  ``off`` and ``memory`` keep no journal on disk at all.
        """
        for db in ("main", *self.schemas()):
            mode = str(self.conn.execute(f"PRAGMA {db}.journal_mode").fetchone()[0])
            if mode.lower() in ("wal", "off", "memory"):
                self.conn.close()
                name = self.path if db == "main" else f"{self.path}.{db}"
                raise StorageError(
                    f"{name} uses journal_mode={mode}; a sharded store needs"
                    " a rollback journal in every file so a write spanning"
                    " shards commits atomically (run PRAGMA"
                    " journal_mode=DELETE on it)"
                )

    def schemas(self) -> tuple[str, ...]:
        return tuple(f"shard{i}" for i in range(self.n_shards))

    @staticmethod
    def shard_index(user_id: str, n_shards: int) -> int:
        """Stable shard assignment: crc32 survives processes and python
        versions (unlike ``hash()``), so it also survives restarts —
        and rebalancing reuses the same function for the target
        layout."""
        return zlib.crc32(str(user_id).encode()) % n_shards

    def schema_for(self, user_id: str) -> str:
        return f"shard{self.shard_index(user_id, self.n_shards)}"

    def replica_connection(
        self, schema: str
    ) -> tuple[sqlite3.Connection, str] | None:
        """Read-only connection straight to the shard file.

        Replica reads address the owning shard directly (prefix
        ``main``), skipping the router's ``UNION ALL`` views — a
        per-user read only ever needs its own shard, and the direct
        index scan is what makes replica reads fast.
        """
        if self.path == ":memory:":
            return None
        index = int(schema.removeprefix("shard"))
        return _open_replica(f"{self.path}.shard{index}"), "main"


def _open_replica(path: str) -> sqlite3.Connection:
    """Open ``path`` as a read-only reader connection.

    ``mode=ro`` refuses the open at the engine level if anything tried
    to write; ``PRAGMA query_only`` belt-and-braces the session so a
    stray ``INSERT`` raises instead of upgrading to a write lock.
    """
    conn = sqlite3.connect(
        f"file:{path}?mode=ro",
        uri=True,
        timeout=_BUSY_TIMEOUT_S,
        check_same_thread=False,
    )
    conn.row_factory = sqlite3.Row
    conn.execute("PRAGMA query_only = ON")
    return conn


_BACKENDS = {
    "sqlite": SQLiteBackend,
    "memory": MemoryBackend,
    "sharded": ShardedSQLiteBackend,
}

#: Names accepted wherever a backend is given as a string.
BACKEND_NAMES: tuple[str, ...] = tuple(sorted(_BACKENDS))


def _existing_shard_count(path: str) -> int:
    """Consecutive ``<path>.shard<i>`` files already on disk."""
    count = 0
    while Path(f"{path}.shard{count}").exists():
        count += 1
    return count


# -------------------------------------------------- rebalance recovery
#
# `CandidateStore.rebalance(n_shards)` migrates a file-backed sharded
# store to a new shard count in two durable phases recorded in the
# router's `rebalance_state` table:
#
#   phase 'build' — the new layout is written to staging files
#       `<path>.rebal<i>`; the live shard files are never touched, so a
#       crash here simply aborts (staging files are disposable).
#   phase 'swap'  — staging files replace the shard files one atomic
#       rename at a time (old files are parked at `<path>.old<i>` until
#       the state row clears).  Each index has exactly one consistent
#       action, so the swap is restartable from any crash point.
#
# `recover_rebalance(path)` is called before any shard-count inference
# (`make_backend`, `ShardedSQLiteBackend.__init__`) so a half-swapped
# directory is healed before anything reads it.


def recover_rebalance(path: str | Path) -> str | None:
    """Finish or roll back a rebalance a dead process left half done.

    Returns ``'completed'`` (swap rolled forward), ``'aborted'`` (build
    discarded) or ``None`` (no migration was in flight).  Safe to call
    any time the store is not actively rebalancing; parked ``.old<i>``
    files of a fully finished swap are swept as a side effect.
    """
    router = Path(path)
    if not router.exists():
        return None
    conn = sqlite3.connect(str(router), timeout=_BUSY_TIMEOUT_S)
    try:
        try:
            row = conn.execute(
                "SELECT phase, old_shards, new_shards FROM rebalance_state"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            lowered = str(exc).lower()
            if "no such table" in lowered or "not a database" in lowered:
                # no state table was ever created (or the path is not
                # SQLite at all — the real open will say so properly):
                # nothing was in flight
                return None
            # anything else (e.g. 'database is locked' past the busy
            # timeout) must NOT read as 'no migration in flight' — the
            # caller would infer a shard layout from a possibly
            # half-swapped directory
            raise StorageError(
                f"could not check for an interrupted rebalance: {exc}"
            ) from exc
        if row is None:
            _sweep_files(str(router), "old")
            return None
        phase, old_n, new_n = str(row[0]), int(row[1]), int(row[2])
        if phase == "build":
            # live shards untouched: discard staging, forget the intent
            _sweep_files(str(router), "rebal")
            with conn:
                conn.execute("DELETE FROM rebalance_state")
            return "aborted"
        complete_swap(str(router), old_n, new_n, conn)
        return "completed"
    finally:
        conn.close()


def complete_swap(
    path: str, old_n: int, new_n: int, state_conn: sqlite3.Connection,
    fault_hook=None,
) -> None:
    """Roll the rename phase of a rebalance forward to completion.

    Idempotent and restartable: for every shard index exactly one
    consistent action remains (`.rebal<i>` present → it is the new
    shard; absent with ``i >= new_n`` → the old shard is surplus), and
    each step is a single atomic :func:`os.replace`.  ``fault_hook`` is
    test instrumentation — raising from it simulates the process dying
    between renames.
    """
    for i in range(max(old_n, new_n)):
        staging = Path(f"{path}.rebal{i}")
        shard = Path(f"{path}.shard{i}")
        parked = Path(f"{path}.old{i}")
        if staging.exists():
            if shard.exists():
                shard.replace(parked)
            staging.replace(shard)
        elif i >= new_n and shard.exists():
            shard.replace(parked)  # shrinking: surplus shard retired
        if fault_hook is not None:
            fault_hook(f"swapped:{i}")
    with state_conn:
        state_conn.execute("DELETE FROM rebalance_state")
    if fault_hook is not None:
        fault_hook("state-cleared")
    _sweep_files(path, "old")


def _sweep_files(path: str, tag: str) -> None:
    """Delete every ``<path>.<tag><i>`` file (parked/staging leftovers).

    Globbed, not counted: a crash mid-swap can park a non-contiguous
    index set (e.g. only ``.old2``).
    """
    router = Path(path)
    for leftover in router.parent.glob(f"{router.name}.{tag}[0-9]*"):
        leftover.unlink()


def make_backend(
    backend: str | StoreBackend | None,
    path: str | Path = ":memory:",
    n_shards: int | None = None,
) -> StoreBackend:
    """Resolve a backend spec to an instance.

    ``None`` infers from ``path``: ``'memory'`` for ``':memory:'``;
    ``'sharded'`` (with the on-disk shard count) when ``path`` does not
    exist but ``<path>.shard0`` does — so a sharded database reopens
    correctly without re-passing the flag; ``'sqlite'`` otherwise,
    preserving the historical ``CandidateStore(schema, path)``
    behaviour.

    ``n_shards=None`` means the on-disk shard count, or 4 for a new
    store; an explicit count that disagrees with the disk raises.
    """
    path_str = str(path)
    if isinstance(backend, StoreBackend):
        # a pre-built instance carries its own location — a conflicting
        # explicit path would be silently ignored (data written elsewhere
        # than the caller believes), so reject the ambiguity
        instance_path = getattr(backend, "path", ":memory:")
        if path_str != ":memory:" and instance_path != path_str:
            raise StorageError(
                f"backend instance is bound to {instance_path!r} but"
                f" path={path_str!r} was also given; pass one or the other"
            )
        return backend
    if path_str != ":memory:":
        # heal a crashed rebalance before the shard files are counted —
        # a half-swapped directory would otherwise infer a wrong layout.
        # ShardedSQLiteBackend.__init__ runs the same (idempotent, two
        # cheap queries) probe so *direct* construction is covered too;
        # this call must stay because the inference and mismatch guards
        # below read the shard files before any backend exists.
        recover_rebalance(path_str)
    existing_shards = (
        0 if path_str == ":memory:" else _existing_shard_count(path_str)
    )
    if n_shards is None:
        n_shards = existing_shards or 4
    if backend is None:
        if path_str == ":memory:":
            backend = "memory"
        elif existing_shards:
            # <path>.shard0 .. exist: this is a sharded store (the file
            # at <path> itself is only its router/journal anchor)
            backend = "sharded"
            n_shards = existing_shards
        else:
            backend = "sqlite"
    if backend not in _BACKENDS:
        raise StorageError(
            f"unknown store backend {backend!r}; choose from {BACKEND_NAMES}"
        )
    # backend-type mismatch guard: opening existing data with the wrong
    # topology would silently present an empty store (sharded views
    # shadow a plain database; a bare router file has no tables)
    if (
        backend == "sharded"
        and not existing_shards
        and path_str != ":memory:"
        and Path(path_str).exists()
        and Path(path_str).stat().st_size > 0
    ):
        raise StorageError(
            f"{path_str} holds a plain SQLite database (no shard files);"
            " open it with backend='sqlite'"
        )
    if backend == "sqlite" and existing_shards:
        raise StorageError(
            f"{path_str} is a sharded store ({existing_shards} shard"
            " files); open it with backend='sharded'"
        )
    if backend == "memory" and path_str != ":memory:":
        # silently dropping a real path would make the caller believe
        # their sessions were persisted
        raise StorageError(
            f"backend 'memory' cannot take a database path ({path_str});"
            " drop the path or use backend='sqlite'/'sharded'"
        )
    if backend == "memory":
        return MemoryBackend()
    if backend == "sharded":
        return ShardedSQLiteBackend(path, n_shards=n_shards)
    return SQLiteBackend(path)
