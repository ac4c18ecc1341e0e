"""Tests for the SQLite candidate store."""

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
