"""Per-shard read-only replica connections for the serving tier.

Writers on different shards already never wait on each other (a
router transaction locks only the shard files it writes); this module
gives *readers* the same property: a bounded pool of read-only
connections per shard, opened through the backend's
:meth:`~repro.db.backends.StoreBackend.replica_connection` dialect seam
(``mode=ro`` + ``PRAGMA query_only``), so N concurrent readers never
touch — let alone contend with — the router connection.

:class:`ReplicaStoreView` is the duck-typed read-only store facade a
checked-out replica is wrapped in: it exposes exactly the surface the
canned queries and :class:`~repro.core.insights.InsightEngine` consume
(``read`` / ``placeholder`` / ``schema`` / ``times_for`` /
``cell_fingerprints`` / ``temporal_input`` / ``row_to_vector``), so the
serving tier runs the *same* query and rendering code as the direct
store path — answer identity is by construction, not by parallel
implementation.

Topology changes are survived per checkout: acquiring a replica
re-validates it against the live store (backend identity catches an
online ``rebalance()`` having swapped in a whole new layout; an inode
probe catches the shard *file* having been atomically replaced under an
open handle) and transparently reopens when stale.  In-memory backends
have no separately-openable files; there the pool degrades to the
store's own router connection behind a mutex — correct, just not
concurrent, which is fine for tests and demos.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from contextlib import contextmanager
from queue import LifoQueue

import numpy as np

from repro.db.store import CandidateStore
from repro.exceptions import StorageError

__all__ = ["ReplicaPool", "ReplicaStoreView"]


class ReplicaStoreView:
    """Read-only store facade over one replica connection.

    Implements the read surface of :class:`CandidateStore` the query
    and insight layers use.  For sharded backends the connection points
    directly at the user's shard file (tables under ``main``), skipping
    the router's ``UNION ALL`` views — valid because every query the
    serving tier runs is scoped to a single user, and a user's rows
    live in exactly one shard.
    """

    def __init__(self, conn: sqlite3.Connection, schema, placeholder: str):
        self._conn = conn
        self.schema = schema
        self.placeholder = placeholder

    def read(self, query: str, params=()) -> list[sqlite3.Row]:
        try:
            return self._conn.execute(query, params).fetchall()
        except sqlite3.Error as exc:
            raise StorageError(f"SQL error: {exc}") from exc

    # internal alias kept in lockstep with CandidateStore's
    _read = read

    def times_for(self, user_id: str) -> list[int]:
        return self._prepared().times_for(self.read, user_id)

    def cell_fingerprints(self, user_id: str) -> dict[int, str]:
        return self._prepared().cell_fingerprints(self.read, user_id)

    def temporal_input(self, user_id: str, time: int) -> np.ndarray:
        row = self._prepared().temporal_input_row(self.read, user_id, time)
        if row is None:
            raise StorageError(
                f"no temporal input for user {user_id!r} at time {time}"
            )
        return self.row_to_vector(row)

    def row_to_vector(self, row: sqlite3.Row) -> np.ndarray:
        return np.array([row[name] for name in self.schema.names], dtype=float)

    def _prepared(self):
        # local import: repro.db.queries imports the store module, and
        # the prepared layer is dialect-keyed, so resolve lazily
        from repro.db.prepared import prepared_for

        return prepared_for(self.placeholder, self.schema.names)


class _Replica:
    """One pooled connection plus the identity it was opened against."""

    __slots__ = ("conn", "prefix", "path", "inode")

    def __init__(self, conn, prefix, path, inode):
        self.conn = conn
        self.prefix = prefix
        self.path = path
        self.inode = inode


class ReplicaPool:
    """Bounded pool of read-only replica connections per shard.

    Parameters
    ----------
    store:
        The live store (the pool follows its backend across an online
        ``rebalance()``).
    per_schema:
        Replica connections kept per shard.  Acquisition blocks when all
        are checked out — natural backpressure instead of unbounded
        file handles.
    """

    def __init__(self, store: CandidateStore, per_schema: int = 4):
        if per_schema < 1:
            raise StorageError("per_schema must be >= 1")
        self.store = store
        self.per_schema = int(per_schema)
        self._lock = threading.Lock()
        #: serialises fallback reads through the store's own router
        #: connection when the backend has no openable replicas
        self._router_lock = threading.Lock()
        self._built_for = store.backend
        self._queues: dict[str, LifoQueue] = {}
        self.reuses = 0
        self.opens = 0
        self.reopens = 0

    # ------------------------------------------------------------ internals

    def _queue_for(self, schema: str) -> LifoQueue:
        with self._lock:
            backend = self.store.backend
            if backend is not self._built_for:
                # rebalance() attached a new backend: every pooled
                # connection points at a retired layout — drop them all
                for queue in self._queues.values():
                    while not queue.empty():
                        replica = queue.get_nowait()
                        if replica is not None:
                            replica.conn.close()
                self._queues.clear()
                self._built_for = backend
            queue = self._queues.get(schema)
            if queue is None:
                # LIFO so a just-returned (hot) replica is handed out
                # before an unopened slot — N sequential readers share
                # one connection instead of round-robining cold opens
                queue = LifoQueue()
                for _ in range(self.per_schema):
                    queue.put(None)  # lazily-opened slot
                self._queues[schema] = queue
            return queue

    @staticmethod
    def _inode(path: str) -> int | None:
        try:
            return os.stat(path).st_ino
        except OSError:
            return None

    def _open(self, schema: str) -> _Replica | None:
        opened = self.store.backend.replica_connection(schema)
        if opened is None:
            return None
        conn, prefix = opened
        path = getattr(self.store.backend, "path", ":memory:")
        if schema.startswith("shard"):
            path = f"{path}.{schema}"
        self.opens += 1
        return _Replica(conn, prefix, path, self._inode(path))

    def _validate(self, replica: _Replica, schema: str) -> _Replica | None:
        """Reopen when the shard file was atomically swapped underneath
        (rebalance parks the old file and renames a staging file into
        place — the open handle keeps reading the *old* inode)."""
        if self._inode(replica.path) == replica.inode:
            self.reuses += 1
            return replica
        replica.conn.close()
        self.reopens += 1
        return self._open(schema)

    # -------------------------------------------------------------- checkout

    @contextmanager
    def view(self, user_id: str):
        """Check out a read-only :class:`ReplicaStoreView` for a user.

        Routes to the user's shard; blocks when all of that shard's
        replicas are checked out; returns the replica to the pool on
        exit.
        """
        store = self.store
        schema = store.backend.schema_for(user_id)
        queue = self._queue_for(schema)
        replica = queue.get()
        try:
            if replica is not None:
                replica = self._validate(replica, schema)
            if replica is None:
                replica = self._open(schema)
            if replica is None:
                # no openable replica for this topology (in-memory):
                # serialise through the store's router connection
                with self._router_lock:
                    yield ReplicaStoreView(
                        store._conn, store.schema, store.placeholder
                    )
                return
            yield ReplicaStoreView(replica.conn, store.schema, store.placeholder)
        finally:
            queue.put(replica)

    # ------------------------------------------------------------- lifecycle

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "opens": self.opens,
                "reuses": self.reuses,
                "reopens": self.reopens,
                "schemas": len(self._queues),
            }

    def close(self) -> None:
        with self._lock:
            for queue in self._queues.values():
                while not queue.empty():
                    replica = queue.get_nowait()
                    if replica is not None:
                        replica.conn.close()
            self._queues.clear()
