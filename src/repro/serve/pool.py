"""Per-shard read-only replica connections for the serving tier.

Writers on different shards already never wait on each other (a
router transaction locks only the shard files it writes); this module
gives *readers* the same property: one read-only connection per shard,
opened through the backend's
:meth:`~repro.db.backends.StoreBackend.replica_connection`
(``mode=ro`` + ``PRAGMA query_only``), so reads never touch — let alone
contend with — the router connection.  The server checks views out on
its event-loop thread only, one request at a time, so every checkout of
a shard shares that shard's one replica.

:class:`ReplicaStoreView` is the duck-typed read-only store facade a
checked-out replica is wrapped in: it exposes exactly the surface the
canned queries and :class:`~repro.core.insights.InsightEngine` consume
(``read`` / ``schema`` / ``cell_fingerprints`` / ``row_to_vector``),
so the serving tier runs the *same* query and rendering code as the
direct store path — answer identity is by construction, not by
parallel implementation.  The pool builds the feature-name tuple and
looks up the compiled query set once; every view shares them.

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

import numpy as np

from repro.db.prepared import prepared_for
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

    def __init__(self, conn: sqlite3.Connection, schema, names, queries):
        self._conn = conn
        self.schema = schema
        self._names = names
        self._queries = queries

    def read(self, query: str, params=()) -> list[sqlite3.Row]:
        try:
            return self._conn.execute(query, params).fetchall()
        except sqlite3.Error as exc:
            raise StorageError(f"SQL error: {exc}") from exc

    def cell_fingerprints(self, user_id: str) -> dict[int, str]:
        """The user's ``{time: model_fp}`` ledger, in time order."""
        return self._queries.cell_fingerprints(self.read, user_id)

    def row_to_vector(self, row: sqlite3.Row) -> np.ndarray:
        return np.array([row[name] for name in self._names], dtype=float)


class _Replica:
    """One shard's connection plus the file identity it was opened on."""

    __slots__ = ("conn", "path", "inode")

    def __init__(self, conn, path, inode):
        self.conn = conn
        self.path = path
        self.inode = inode


class ReplicaPool:
    """One read-only replica connection per shard.

    Checkouts of a shard share its connection, so one thread at a time
    reads through the pool (the server's event loop); :meth:`stats` may
    be read from any thread.

    Parameters
    ----------
    store:
        The live store (the pool follows its backend across an online
        ``rebalance()``).
    """

    def __init__(self, store: CandidateStore):
        self.store = store
        #: every view's feature names and compiled query set
        self._names = tuple(store.schema.names)
        self._queries = prepared_for(self._names)
        #: serialises fallback reads through the store's own router
        #: connection when the backend has no openable replicas
        self._router_lock = threading.Lock()
        self._built_for = store.backend
        self._replicas: dict[str, _Replica] = {}
        self.reuses = 0
        self.opens = 0
        self.reopens = 0

    @staticmethod
    def _inode(path: str) -> int | None:
        try:
            return os.stat(path).st_ino
        except OSError:
            return None

    def _replica_for(self, schema: str) -> _Replica | None:
        """The shard's replica, validated against the live store and
        (re)opened as needed; ``None`` when the backend has none."""
        backend = self.store.backend
        if backend is not self._built_for:
            # rebalance() attached a new backend: every replica points
            # at a retired layout — drop them all
            self.close()
            self._built_for = backend
        replica = self._replicas.get(schema)
        if replica is not None:
            if self._inode(replica.path) == replica.inode:
                self.reuses += 1
                return replica
            # the shard file was atomically swapped underneath (rebalance
            # parks the old file and renames a staging file into place —
            # the open handle keeps reading the *old* inode)
            replica.conn.close()
            del self._replicas[schema]
            self.reopens += 1
        opened = backend.replica_connection(schema)
        if opened is None:
            return None
        path = backend.path
        if schema.startswith("shard"):
            path = f"{path}.{schema}"
        self.opens += 1
        replica = self._replicas[schema] = _Replica(
            opened[0], path, self._inode(path)
        )
        return replica

    # -------------------------------------------------------------- checkout

    @contextmanager
    def view(self, user_id: str):
        """Check out a read-only :class:`ReplicaStoreView` for a user.

        Routes to the user's shard replica; without one (in-memory
        backends) the view reads the store's router connection, holding
        the pool's router lock until exit.
        """
        store = self.store
        replica = self._replica_for(store.backend.schema_for(user_id))
        if replica is not None:
            yield ReplicaStoreView(
                replica.conn, store.schema, self._names, self._queries
            )
            return
        with self._router_lock:
            yield ReplicaStoreView(
                store._conn, store.schema, self._names, self._queries
            )

    # ------------------------------------------------------------- lifecycle

    def stats(self) -> dict[str, int]:
        return {
            "opens": self.opens,
            "reuses": self.reuses,
            "reopens": self.reopens,
            "schemas": len(self._replicas),
        }

    def close(self) -> None:
        for replica in self._replicas.values():
            replica.conn.close()
        self._replicas.clear()
