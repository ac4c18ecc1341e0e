"""Tests for the SQLite candidate store."""

import sqlite3
import threading

import numpy as np
import pytest

from repro.core import Candidate, CandidateMetrics
from repro.data import DatasetSchema, FeatureSpec
from repro.db import CandidateStore
from repro.db.backends import ShardedSQLiteBackend
from repro.exceptions import StorageError


@pytest.fixture()
def store(schema):
    with CandidateStore(schema) as s:
        yield s


def make_candidate(x, time=0, diff=1.0, gap=1, confidence=0.8):
    return Candidate(
        np.asarray(x, dtype=float),
        time,
        CandidateMetrics(diff=diff, gap=gap, confidence=confidence),
    )


class TestSchemaSafety:
    def test_reserved_column_rejected(self):
        bad = DatasetSchema([FeatureSpec("diff")])
        with pytest.raises(StorageError, match="reserved"):
            CandidateStore(bad)

    def test_non_identifier_rejected(self):
        bad = DatasetSchema([FeatureSpec("weird name")])
        with pytest.raises(StorageError, match="identifier"):
            CandidateStore(bad)


class TestTemporalInputs:
    def test_roundtrip(self, store, john):
        trajectory = np.vstack([john, john + 0, john + 0])
        trajectory[1, 0] += 1
        trajectory[2, 0] += 2
        store.store_temporal_inputs("u1", trajectory)
        assert store.times_for("u1") == [0, 1, 2]
        back = store.temporal_input("u1", 1)
        assert np.allclose(back, trajectory[1])

    def test_replace_on_restore(self, store, john):
        store.store_temporal_inputs("u1", np.vstack([john] * 4))
        store.store_temporal_inputs("u1", np.vstack([john] * 2))
        assert store.times_for("u1") == [0, 1]

    def test_wrong_width_rejected(self, store):
        with pytest.raises(StorageError):
            store.store_temporal_inputs("u1", np.zeros((2, 3)))

    def test_missing_row_raises(self, store):
        with pytest.raises(StorageError):
            store.temporal_input("nobody", 0)


class TestCandidates:
    def test_insert_and_count(self, store, john):
        store.store_candidates("u1", [make_candidate(john), make_candidate(john, 1)])
        assert store.candidate_count("u1") == 2
        assert store.candidate_count() == 2

    def test_rows_carry_metrics(self, store, john):
        store.store_candidates(
            "u1", [make_candidate(john, time=2, diff=3.5, gap=2, confidence=0.9)]
        )
        row = store.sql("SELECT * FROM candidates WHERE user_id = 'u1'")[0]
        assert row["time"] == 2
        assert row["diff"] == pytest.approx(3.5)
        assert row["gap"] == 2
        assert row["p"] == pytest.approx(0.9)

    def test_row_to_vector(self, store, john):
        store.store_candidates("u1", [make_candidate(john)])
        row = store.sql("SELECT * FROM candidates")[0]
        assert np.allclose(store.row_to_vector(row), john)

    def test_clear_user_isolates(self, store, john):
        store.store_candidates("u1", [make_candidate(john)])
        store.store_candidates("u2", [make_candidate(john)])
        store.store_temporal_inputs("u1", john.reshape(1, -1))
        store.clear_user("u1")
        assert store.candidate_count("u1") == 0
        assert store.candidate_count("u2") == 1
        assert store.times_for("u1") == []


class TestSqlPassthrough:
    def test_valid_query(self, store, john):
        store.store_candidates("u1", [make_candidate(john)])
        rows = store.sql("SELECT COUNT(*) AS n FROM candidates")
        assert rows[0]["n"] == 1

    def test_parametrised(self, store, john):
        store.store_candidates("u1", [make_candidate(john, confidence=0.9)])
        rows = store.sql("SELECT * FROM candidates WHERE p > ?", (0.5,))
        assert len(rows) == 1

    def test_invalid_sql_raises_storage_error(self, store):
        with pytest.raises(StorageError, match="SQL error"):
            store.sql("SELECT * FROM not_a_table")


class TestFileBacked:
    def test_persists_to_disk(self, schema, john, tmp_path):
        path = tmp_path / "candidates.db"
        with CandidateStore(schema, path) as store:
            store.store_candidates("u1", [make_candidate(john)])
        with CandidateStore(schema, path) as store:
            assert store.candidate_count("u1") == 1

    def test_fresh_sharded_store_creates_its_tables_in_one_transaction(
        self, schema, tmp_path
    ):
        """sqlite3 opens no implicit transaction for DDL, so without an
        explicit BEGIN each CREATE over the router and every shard would
        commit (and sync its journal) on its own."""
        backend = ShardedSQLiteBackend(tmp_path / "ddl.db", n_shards=4)
        statements = []
        backend.conn.set_trace_callback(statements.append)
        store = CandidateStore(schema, backend=backend)
        backend.conn.set_trace_callback(None)
        verbs = [statement.split()[0].upper() for statement in statements]
        assert verbs.count("BEGIN") == verbs.count("COMMIT") == 1
        begin, commit = verbs.index("BEGIN"), verbs.index("COMMIT")
        creates = [i for i, verb in enumerate(verbs) if verb == "CREATE"]
        # the router's four coordinator tables plus every shard's tables
        assert len(creates) > 4 * 5
        assert begin < min(creates) and max(creates) < commit
        store.close()


@pytest.mark.parametrize("backend", ["sqlite", "sharded"])
class TestAccessFold:
    def test_access_recorded_mid_fold_is_never_lost(self, schema, tmp_path, backend):
        """A second handle logs an access while the fold is between its
        ``access_log`` and ``user_priority`` reads.  The fold's delete of
        the log must not drop it uncounted: the score plus the leftover
        log rows account for both accesses."""
        path = tmp_path / "candidates.db"
        folder = CandidateStore(schema, path, backend=backend)
        other = CandidateStore(schema, path)
        now = folder.clock_now()
        folder.record_accesses([("u1", "q1", now)])
        writer = threading.Thread(
            target=other.record_accesses, args=([("u1", "q2", now)],)
        )
        priority_read = f"SELECT user_id, score, updated_at FROM {folder._db_for('u1')}."

        def trace(statement: str) -> None:
            if statement.startswith(priority_read) and writer.ident is None:
                writer.start()
                # long enough to land unless the fold holds the lock
                writer.join(timeout=0.5)

        folder.backend.conn.set_trace_callback(trace)
        try:
            scores = folder.materialize_priorities(now=now)
        finally:
            folder.backend.conn.set_trace_callback(None)
        assert writer.ident is not None, "the fold never read user_priority"
        writer.join(timeout=60.0)
        assert not writer.is_alive()
        leftover = folder.sql(
            "SELECT COUNT(*) AS n FROM access_log WHERE user_id = 'u1'"
        )[0]["n"]
        assert scores["u1"] + leftover == pytest.approx(2.0)
        other.close()
        folder.close()


#: one user per shard of a 4-shard store (crc32 placement)
ONE_PER_SHARD = ("u2", "u4", "u1", "u5")


class TestAccessLogPlacement:
    """The access log is one table in the router's ``main`` schema, so
    a flush is one commit to a file no shard replica opens."""

    def sharded(self, schema, tmp_path, n_shards=4):
        return CandidateStore(
            schema, tmp_path / "c.db", backend="sharded", n_shards=n_shards
        )

    @staticmethod
    def logged(store):
        rows = store.read(
            "SELECT user_id, question, accessed_at FROM main.access_log ORDER BY rowid"
        )
        return [tuple(r) for r in rows]

    @staticmethod
    def assert_no_shard_log(store):
        for db in store.backend.schemas():
            names = {r[0] for r in store.read(f"SELECT name FROM {db}.sqlite_master")}
            assert "temporal_inputs" in names
            assert not {"access_log", "idx_access_log_user"} & names

    def test_flush_succeeds_while_every_shard_file_is_locked(self, schema, tmp_path):
        store = self.sharded(schema, tmp_path)
        assert sorted(store._db_for(u) for u in ONE_PER_SHARD) == list(
            store.backend.schemas()
        )
        holders = [
            sqlite3.connect(f"{tmp_path / 'c.db'}.shard{i}", isolation_level=None)
            for i in range(4)
        ]
        try:
            for holder in holders:
                holder.execute("BEGIN EXCLUSIVE")
            store.backend.conn.execute("PRAGMA busy_timeout = 200")
            entries = [(user, "bundle", 100.0) for user in ONE_PER_SHARD]
            assert store.record_accesses(entries) == 4
            assert self.logged(store) == entries
        finally:
            for holder in holders:
                holder.rollback()
                holder.close()
        store.close()

    def test_flush_names_no_shard_schema(self, schema, tmp_path):
        store = self.sharded(schema, tmp_path)
        statements = []
        store.backend.conn.set_trace_callback(statements.append)
        try:
            store.record_accesses([(user, "bundle", None) for user in ONE_PER_SHARD])
        finally:
            store.backend.conn.set_trace_callback(None)
        assert any("access_log" in statement for statement in statements)
        assert not [s for s in statements if "shard" in s.lower()]
        store.close()

    def test_fresh_store_has_no_access_log_in_any_shard(self, schema, tmp_path):
        store = self.sharded(schema, tmp_path)
        self.assert_no_shard_log(store)
        store.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "sharded"])
    def test_unqualified_access_log_reads_on_every_backend(
        self, schema, tmp_path, backend
    ):
        path = ":memory:" if backend == "memory" else tmp_path / "c.db"
        store = CandidateStore(schema, path, backend=backend)
        store.record_accesses([(user, "q1", 5.0) for user in ONE_PER_SHARD])
        assert store.sql("SELECT COUNT(*) AS n FROM access_log")[0]["n"] == 4
        store.close()

    def test_logged_rows_survive_rebalance_and_fold_the_same(self, schema, tmp_path):
        entries = [
            (f"u{i}", "bundle", 1000.0 - 7.0 * i * j)
            for i in range(1, 9)
            for j in range(3)
        ]
        control = CandidateStore(schema)
        control.record_accesses(entries)
        expected = control.materialize_priorities(now=1000.0, halflife_seconds=60.0)
        control.close()
        store = self.sharded(schema, tmp_path, n_shards=2)
        store.record_accesses(entries)
        store.rebalance(4)
        assert store.backend.n_shards == 4
        assert self.logged(store) == entries
        scores = store.materialize_priorities(now=1000.0, halflife_seconds=60.0)
        assert scores == expected
        assert store.user_priorities() == expected
        store.close()

    def test_pre_router_store_carries_its_shard_logs_over(self, schema, tmp_path):
        """A store written when every shard held its own ``access_log``
        reopens with those rows in the router's log and no shard table
        left; the fold then gives TestAccessFeedback's roundtrip scores."""
        self.sharded(schema, tmp_path).close()
        now = 5000.0
        old_rows = {
            0: [("u2", "bundle", now)],
            2: [("u1", "bundle", now), ("u1", "q1", now)],
        }
        for i, rows in old_rows.items():
            shard = sqlite3.connect(f"{tmp_path / 'c.db'}.shard{i}")
            shard.execute(
                "CREATE TABLE access_log (user_id TEXT NOT NULL,"
                " question TEXT NOT NULL, accessed_at REAL NOT NULL)"
            )
            shard.execute("CREATE INDEX idx_access_log_user ON access_log (user_id)")
            shard.executemany("INSERT INTO access_log VALUES (?, ?, ?)", rows)
            shard.commit()
            shard.close()
        store = CandidateStore(schema, tmp_path / "c.db")
        assert store.backend.n_shards == 4
        assert self.logged(store) == old_rows[0] + old_rows[2]
        self.assert_no_shard_log(store)
        merged = store.materialize_priorities(now=now, halflife_seconds=60.0)
        assert merged["u1"] == pytest.approx(2.0)
        assert merged["u2"] == pytest.approx(1.0)
        store.close()


class TestPriorityWriters:
    """``set_user_priorities``, ``escalate_cells`` and
    ``clear_escalations`` each apply as one transaction, shards in
    ascending order, as a bulk write does."""

    CELLS = [(user, t) for user in ONE_PER_SHARD for t in (0, 1)]

    def sharded(self, schema, tmp_path):
        store = CandidateStore(schema, tmp_path / "c.db", backend="sharded", n_shards=4)
        assert sorted(store._db_for(u) for u in ONE_PER_SHARD) == list(
            store.backend.schemas()
        )
        return store

    @staticmethod
    def traced(store, call):
        statements = []
        store.backend.conn.set_trace_callback(statements.append)
        try:
            result = call()
        finally:
            store.backend.conn.set_trace_callback(None)
        verbs = [statement.split()[0].upper() for statement in statements]
        shards = [
            word.split(".")[0]
            for statement in statements
            for word in statement.split()
            if word.startswith("shard")
        ]
        # every shard written, each shard's statements before the next's
        assert shards == sorted(shards)
        assert set(shards) == set(store.backend.schemas())
        return verbs.count("COMMIT"), result

    @staticmethod
    def escalations(store):
        rows = store.read("SELECT user_id, time FROM refresh_escalations")
        return sorted(tuple(r) for r in rows)

    def test_each_call_commits_once_over_every_shard(self, schema, tmp_path):
        store = self.sharded(schema, tmp_path)
        scores = {user: 1.0 for user in ONE_PER_SHARD}
        traced = self.traced
        assert traced(store, lambda: store.set_user_priorities(scores, now=10.0))[0] == 1
        assert traced(store, lambda: store.escalate_cells(self.CELLS))[0] == 1
        assert traced(store, lambda: store.clear_escalations(self.CELLS[::2])) == (1, 4)
        assert traced(store, store.clear_escalations) == (1, 4)
        assert self.escalations(store) == []
        store.close()

    @pytest.mark.parametrize(
        "writer", ["set_user_priorities", "escalate_cells", "clear_escalations"]
    )
    def test_a_failing_last_shard_leaves_every_shard_unchanged(
        self, schema, tmp_path, writer
    ):
        store = self.sharded(schema, tmp_path)
        store.set_user_priorities({user: 2.0 for user in ONE_PER_SHARD}, now=5.0)
        store.escalate_cells(self.CELLS[::2])
        before = (store.user_priorities(), self.escalations(store))
        last = store.backend.schemas()[-1]
        table, event = {
            "set_user_priorities": ("user_priority", "INSERT"),
            "escalate_cells": ("refresh_escalations", "INSERT"),
            "clear_escalations": ("refresh_escalations", "DELETE"),
        }[writer]
        store.backend.conn.execute(
            f"CREATE TRIGGER {last}.fail BEFORE {event} ON {table}"
            " BEGIN SELECT RAISE(ABORT, 'injected'); END"
        )
        call = {
            "set_user_priorities": lambda: store.set_user_priorities(
                {user: 9.0 for user in ONE_PER_SHARD}, now=50.0
            ),
            "escalate_cells": lambda: store.escalate_cells(self.CELLS),
            "clear_escalations": store.clear_escalations,
        }[writer]
        with pytest.raises(sqlite3.DatabaseError, match="injected"):
            call()
        assert (store.user_priorities(), self.escalations(store)) == before
        store.close()
