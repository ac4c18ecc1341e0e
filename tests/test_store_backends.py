"""Shared backend-contract suite for the candidate store.

Every public store operation must behave identically on all three
backends (single-file SQLite, in-memory, user-sharded SQLite); the
tests below are parametrised over backend factories so one suite is the
contract.  That includes the **lease/ledger contract** (stale-cell
ordering, atomic claim/renew/release, expiry semantics, the indexed
claim scan and the store-side clock) — consolidated here so every new
backend automatically proves the whole refresh-coordination surface —
and the **concurrency contract**: shard-count-invariant digests and
stale ordering, multi-shard batches that survive real process death
(``os._exit`` inside the transaction, SIGKILL at seeded moments) whole
or not at all, and N concurrent writers with interleaved
claim/upsert/release converging to the serial digest (the storage
torture section at the bottom).  Sharding-specific behaviour (routing,
cross-shard reads) has its own class; *cross-connection* lease
behaviour (crash recovery, write-lock contention) needs multiple
connections to one file and lives in ``tests/test_leases.py``.
"""

import multiprocessing
import os
import re
import shutil
import signal
import sqlite3
import threading
import time
import zlib

import numpy as np
import pytest

from repro.core import Candidate, CandidateMetrics
from repro.data import DatasetSchema, FeatureSpec
from repro.db import (
    BACKEND_NAMES,
    CandidateStore,
    MemoryBackend,
    ShardedSQLiteBackend,
    SQLiteBackend,
    make_backend,
    q4_minimal_overall_modification,
)
from repro.exceptions import StorageError


def make_candidate(x, time=0, diff=1.0, gap=1, confidence=0.8):
    return Candidate(
        np.asarray(x, dtype=float),
        time,
        CandidateMetrics(diff=diff, gap=gap, confidence=confidence),
    )


BACKENDS = ["sqlite", "memory", "sharded"]


@pytest.fixture(params=BACKENDS)
def store(request, schema, tmp_path):
    path = ":memory:" if request.param == "memory" else tmp_path / "cands.db"
    with CandidateStore(schema, path, backend=request.param) as s:
        yield s


class TestBackendResolution:
    def test_names_registry(self):
        assert BACKEND_NAMES == ("memory", "sharded", "sqlite")

    def test_infers_from_path(self, tmp_path):
        assert isinstance(make_backend(None, ":memory:"), MemoryBackend)
        backend = make_backend(None, tmp_path / "x.db")
        assert isinstance(backend, SQLiteBackend)
        backend.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(StorageError, match="unknown store backend"):
            make_backend("mysql")

    def test_memory_backend_with_real_path_rejected(self, tmp_path):
        """A caller passing a db path with backend='memory' would believe
        their data is persisted — refuse instead of silently dropping."""
        with pytest.raises(StorageError, match="memory"):
            make_backend("memory", tmp_path / "x.db")

    def test_instance_passthrough(self, schema):
        backend = MemoryBackend()
        store = CandidateStore(schema, backend=backend)
        assert store.backend is backend
        store.close()

    def test_instance_with_conflicting_path_rejected(self, schema, tmp_path):
        """A pre-built backend carries its own location; a different
        explicit path would be silently ignored — reject the ambiguity."""
        backend = MemoryBackend()
        with pytest.raises(StorageError, match="pass one or the other"):
            CandidateStore(schema, tmp_path / "x.db", backend=backend)
        backend.close()

    def test_shard_count_bounds(self):
        with pytest.raises(StorageError, match="n_shards"):
            ShardedSQLiteBackend(n_shards=0)
        with pytest.raises(StorageError, match="n_shards"):
            ShardedSQLiteBackend(n_shards=99)


class TestContractWrites:
    """The original store semantics, now enforced per backend."""

    def test_temporal_inputs_roundtrip(self, store, john):
        trajectory = np.vstack([john, john, john])
        trajectory[1, 0] += 1
        store.store_temporal_inputs("u1", trajectory)
        assert store.times_for("u1") == [0, 1, 2]
        assert np.allclose(store.temporal_input("u1", 1), trajectory[1])

    def test_candidates_roundtrip(self, store, john):
        store.store_candidates("u1", [make_candidate(john), make_candidate(john, 1)])
        assert store.candidate_count("u1") == 2
        loaded = store.load_candidates("u1")
        assert [c.time for c in loaded] == [0, 1]
        assert np.allclose(loaded[0].x, john)

    def test_store_sessions_bulk(self, store, john):
        trajectory = np.vstack([john, john])
        store.store_sessions(
            [
                ("u1", trajectory, [make_candidate(john)]),
                ("u2", trajectory, [make_candidate(john), make_candidate(john, 1)]),
            ],
            fingerprints={0: "fp0", 1: "fp1"},
        )
        assert store.candidate_count() == 3
        assert store.user_ids() == ["u1", "u2"]
        assert store.cell_fingerprints("u1") == {0: "fp0", 1: "fp1"}

    def test_rows_carry_model_fp(self, store, john):
        store.store_candidates("u1", [make_candidate(john, time=1)], {1: "abc123"})
        row = store.sql("SELECT * FROM candidates")[0]
        assert row["model_fp"] == "abc123"

    def test_upsert_cells_replaces_only_target(self, store, john):
        trajectory = np.vstack([john, john])
        store.store_sessions(
            [("u1", trajectory, [make_candidate(john, 0), make_candidate(john, 1)])],
            fingerprints={0: "old0", 1: "old1"},
        )
        before_t0 = [
            tuple(r)
            for r in store.sql(
                "SELECT * FROM candidates WHERE time = 0 ORDER BY id"
            )
        ]
        written = store.upsert_cells(
            [("u1", 1, [make_candidate(john, 1), make_candidate(john + 1, 1)])],
            fingerprints={1: "new1"},
        )
        assert written == 2
        after_t0 = [
            tuple(r)
            for r in store.sql(
                "SELECT * FROM candidates WHERE time = 0 ORDER BY id"
            )
        ]
        assert before_t0 == after_t0  # untouched cell byte-identical
        assert store.cell_fingerprints("u1") == {0: "old0", 1: "new1"}
        assert store.candidate_count("u1") == 3

    def test_upsert_rejects_cross_time_candidates(self, store, john):
        store.store_temporal_inputs("u1", np.vstack([john, john]))
        with pytest.raises(StorageError, match="cell"):
            store.upsert_cells([("u1", 0, [make_candidate(john, time=1)])])

    def test_stale_cells(self, store, john):
        trajectory = np.vstack([john, john])
        store.store_sessions(
            [
                ("u1", trajectory, [make_candidate(john)]),
                ("u2", trajectory, [make_candidate(john)]),
            ],
            fingerprints={0: "fp0", 1: "fp1"},
        )
        store.upsert_cells([("u2", 1, [make_candidate(john, 1)])], {1: "fp1b"})
        assert store.stale_cells({0: "fp0", 1: "fp1b"}) == [("u1", 1)]
        assert store.stale_cells({0: "fp0", 1: "fp1"}) == [("u2", 1)]

    def test_clear_user_per_time(self, store, john):
        trajectory = np.vstack([john, john])
        store.store_sessions(
            [("u1", trajectory, [make_candidate(john, 0), make_candidate(john, 1)])],
            fingerprints={0: "fp0", 1: "fp1"},
        )
        store.clear_user("u1", time=0)
        # candidates of the cell are gone; the horizon row survives but
        # reads as stale (empty fingerprint) so a refresh recomputes it
        assert store.candidate_count("u1") == 1
        assert store.load_candidates("u1")[0].time == 1
        assert store.times_for("u1") == [0, 1]
        assert store.cell_fingerprints("u1") == {0: "", 1: "fp1"}
        assert store.stale_cells({0: "fp0", 1: "fp1"}) == [("u1", 0)]

    def test_clear_user_all(self, store, john):
        store.store_sessions(
            [("u1", john.reshape(1, -1), [make_candidate(john)])],
            specs=[("u1", john, ["gap <= 2"])],
        )
        store.clear_user("u1")
        assert store.candidate_count("u1") == 0
        assert store.times_for("u1") == []
        assert store.load_session_specs() == []

    def test_session_specs_roundtrip(self, store, john):
        store.store_sessions(
            [("u1", john.reshape(1, -1), [make_candidate(john)])],
            specs=[("u1", john, ["gap <= 2"]), ],
        )
        specs = store.load_session_specs()
        assert len(specs) == 1
        user_id, profile, texts = specs[0]
        assert user_id == "u1"
        assert np.allclose(profile, john)
        assert texts == ["gap <= 2"]

    def test_opaque_constraints_persist_as_none(self, store, john):
        store.store_sessions(
            [("u1", john.reshape(1, -1), [])],
            specs=[("u1", john, None)],
        )
        assert store.load_session_specs()[0][2] is None


class TestContractReadOnlySql:
    def test_select_works(self, store, john):
        store.store_candidates("u1", [make_candidate(john)])
        assert store.sql("SELECT COUNT(*) AS n FROM candidates")[0]["n"] == 1

    def test_cte_select_works(self, store, john):
        store.store_candidates("u1", [make_candidate(john)])
        rows = store.sql("WITH c AS (SELECT * FROM candidates) SELECT * FROM c")
        assert len(rows) == 1

    def test_comment_prefixed_select_works(self, store, john):
        store.store_candidates("u1", [make_candidate(john)])
        rows = store.sql(
            "-- annotated expert query\n/* multi\nline */ SELECT * FROM candidates"
        )
        assert len(rows) == 1

    def test_comment_prefixed_write_still_rejected(self, store, john):
        store.store_candidates("u1", [make_candidate(john)])
        with pytest.raises(StorageError, match="read-only"):
            store.sql("-- sneaky\nDELETE FROM candidates")
        assert store.candidate_count() == 1

    @pytest.mark.parametrize(
        "statement",
        [
            "DELETE FROM candidates",
            "INSERT INTO candidates (user_id) VALUES ('x')",
            "UPDATE candidates SET p = 0",
            "DROP TABLE candidates",
            "PRAGMA query_only = OFF",
            "CREATE TABLE evil (x)",
        ],
    )
    def test_write_statements_rejected(self, store, john, statement):
        store.store_candidates("u1", [make_candidate(john)])
        with pytest.raises(StorageError, match="read-only"):
            store.sql(statement)
        # nothing was mutated and the store still accepts writes
        assert store.candidate_count("u1") == 1
        store.store_candidates("u1", [make_candidate(john, 1)])
        assert store.candidate_count("u1") == 2

    def test_with_insert_rejected_by_connection(self, store, john):
        store.store_candidates("u1", [make_candidate(john)])
        with pytest.raises(StorageError, match="read-only"):
            store.sql(
                "WITH c AS (SELECT 1) INSERT INTO candidates"
                " (user_id, time) VALUES ('x', 0)"
            )
        assert store.candidate_count() == 1

    def test_invalid_sql_still_clear_error(self, store):
        with pytest.raises(StorageError, match="SQL error"):
            store.sql("SELECT * FROM not_a_table")


#: user ids chosen to land in more than one shard (crc32 % 4)
LEASE_USERS = ["u-a", "u-b", "u-c", "u-d"]
LEASE_FPS = {0: "new0", 1: "new1"}


def populate_ledger(store: CandidateStore) -> None:
    """Two-cell horizon per user, every cell stamped under an old model."""
    base = np.arange(len(store.schema), dtype=float)
    for uid in LEASE_USERS:
        store.store_temporal_inputs(
            uid, np.vstack([base, base + 1]), fingerprints={0: "old", 1: "old"}
        )


def all_ledger_cells():
    return [(uid, t) for uid in sorted(LEASE_USERS) for t in (0, 1)]


@pytest.fixture()
def ledger_store(store):
    """The parametrised contract store, pre-populated with stale cells."""
    populate_ledger(store)
    return store


class TestContractStaleOrdering:
    def test_order_is_user_then_time(self, ledger_store):
        assert ledger_store.stale_cells(LEASE_FPS) == all_ledger_cells()

    def test_order_identical_across_backends(self, schema, tmp_path):
        """Claim order must not depend on backend topology (shard layout
        used to leak into the ledger order)."""
        results = {}
        for backend in BACKENDS:
            path = (
                ":memory:" if backend == "memory" else tmp_path / f"{backend}.db"
            )
            with CandidateStore(schema, path, backend=backend) as s:
                populate_ledger(s)
                results[backend] = s.stale_cells(LEASE_FPS)
        assert results["sqlite"] == results["memory"] == results["sharded"]

    def test_empty_fingerprints(self, ledger_store):
        assert ledger_store.stale_cells({}) == []


class TestContractClaim:
    def test_claim_takes_ledger_prefix(self, ledger_store):
        claimed = ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=3, now=100.0
        )
        assert claimed == all_ledger_cells()[:3]
        assert [row[:3] for row in ledger_store.lease_rows()] == [
            (uid, t, "w1") for uid, t in claimed
        ]

    def test_second_worker_gets_disjoint_cells(self, ledger_store):
        first = ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=3, now=100.0
        )
        second = ledger_store.claim_stale_cells(
            LEASE_FPS, "w2", limit=99, now=100.0
        )
        assert not set(first) & set(second)
        assert sorted(first + second) == all_ledger_cells()

    def test_reclaim_by_same_worker_is_idempotent(self, ledger_store):
        first = ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=2, now=100.0
        )
        again = ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=2, now=101.0
        )
        assert again == first

    def test_exclude_skips_cells(self, ledger_store):
        claimed = ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=2, now=100.0, exclude=[all_ledger_cells()[0]]
        )
        assert claimed == all_ledger_cells()[1:3]

    def test_limit_validated(self, ledger_store):
        with pytest.raises(StorageError, match="limit"):
            ledger_store.claim_stale_cells(LEASE_FPS, "w1", limit=0)

    def test_fresh_cells_not_claimable(self, ledger_store):
        """Upserting a cell stamps the current fingerprint, so it leaves
        the work queue."""
        ledger_store.upsert_cells(
            [
                (
                    "u-a",
                    0,
                    [make_candidate(np.arange(len(ledger_store.schema)), 0)],
                )
            ],
            fingerprints=LEASE_FPS,
        )
        claimed = ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=99, now=100.0
        )
        assert ("u-a", 0) not in claimed
        assert len(claimed) == len(all_ledger_cells()) - 1

    def test_has_stale_cells_respects_exclusions(self, ledger_store):
        """The bounded index-backed probe must not be fooled by excluded
        cells shadowing real stale ones: the exclusion filter runs in
        Python over at most ``len(exclude) + 1`` fetched rows per schema
        (a pigeonhole bound — SQL-side binding would hit SQLite's
        variable limit on large unrecoverable sets)."""
        assert ledger_store.has_stale_cells(LEASE_FPS)
        cells = all_ledger_cells()
        assert ledger_store.has_stale_cells(LEASE_FPS, exclude=cells[:-1])
        assert not ledger_store.has_stale_cells(LEASE_FPS, exclude=cells)
        assert not ledger_store.has_stale_cells({})

    def test_claim_scan_uses_covering_ledger_index(self, ledger_store):
        """Every schema's claim scan must probe the staleness ledger
        through ``idx_temporal_inputs_ledger`` — never a table scan.
        (The stronger at-scale guarantee, fingerprint *range seeks*
        that skip the fresh run, needs a populated ledger for the cost
        model to pick it: see ``TestClaimScanAtScale``.)"""
        plan = ledger_store.claim_query_plan(LEASE_FPS)
        schemas = ledger_store.backend.schemas()
        probes = [p for p in plan if "idx_temporal_inputs_ledger" in p]
        assert len(probes) >= len(schemas)
        assert all("SEARCH" in p and "COVERING INDEX" in p for p in probes)
        # no plan line may scan the ledger table itself
        assert not any(
            "temporal_inputs" in p and "idx_temporal_inputs_ledger" not in p
            for p in plan
        ), plan


class TestClaimScanAtScale:
    def test_populated_ledger_plans_fingerprint_range_seeks(self, schema):
        """The scale guard-rail proper: with a realistically populated
        ledger (mostly fresh rows, few stale), the claim scan must plan
        MULTI-INDEX OR *range seeks* on the fingerprint — a bare
        ``time=?`` probe would still walk every fresh row of each
        partition, which is the O(cells) behaviour this PR removes."""
        with CandidateStore(schema, backend="memory") as store:
            width = len(schema.names)
            rows = [
                (
                    f"u{i:06d}",
                    t,
                    *([0.0] * width),
                    "stale" if i % 997 == 0 else f"fp{t}",
                )
                for i in range(20_000)
                for t in (0, 1)
            ]
            with store._conn:
                store._conn.executemany(
                    store._insert_sql("main", "temporal_inputs", ("model_fp",)),
                    rows,
                )
            # give the cost model real statistics, as a maintained
            # long-lived store has (CandidateStore.close runs PRAGMA
            # optimize); without them the planner may keep the
            # small-table single-probe shape
            store._conn.execute("ANALYZE")
            plan = store.claim_query_plan({0: "fp0", 1: "fp1"})
            probes = [p for p in plan if "idx_temporal_inputs_ledger" in p]
            assert len(probes) == 2  # two range seeks, one per OR arm
            assert all("model_fp<" in p or "model_fp>" in p for p in probes)
            # and the scan actually finds the stale prefix in order
            claimed = store.claim_stale_cells(
                {0: "fp0", 1: "fp1"}, "w1", limit=3, now=100.0
            )
            assert claimed == [("u000000", 0), ("u000000", 1), ("u000997", 0)]


class TestContractExpiry:
    def test_live_lease_not_stealable(self, ledger_store):
        ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=99, now=100.0, lease_seconds=30.0
        )
        assert (
            ledger_store.claim_stale_cells(LEASE_FPS, "w2", limit=99, now=129.0)
            == []
        )

    def test_expired_lease_reclaimed(self, ledger_store):
        ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=99, now=100.0, lease_seconds=30.0
        )
        reclaimed = ledger_store.claim_stale_cells(
            LEASE_FPS, "w2", limit=99, now=130.0
        )
        assert reclaimed == all_ledger_cells()
        assert all(row[2] == "w2" for row in ledger_store.lease_rows())

    def test_renew_extends_live_lease(self, ledger_store):
        cells = ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=1, now=100.0, lease_seconds=30.0
        )
        assert ledger_store.renew_leases(
            "w1", cells, lease_seconds=30.0, now=120.0
        ) == 1
        # the renewal pushed expiry to 150: not reclaimable at 140
        assert ledger_store.claim_stale_cells(
            LEASE_FPS, "w2", limit=1, now=140.0
        ) == [all_ledger_cells()[1]]

    def test_renew_refuses_expired_or_foreign_lease(self, ledger_store):
        cells = ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=1, now=100.0, lease_seconds=30.0
        )
        assert ledger_store.renew_leases("w2", cells, now=110.0) == 0  # foreign
        assert ledger_store.renew_leases("w1", cells, now=130.0) == 0  # expired

    def test_release(self, ledger_store):
        cells = ledger_store.claim_stale_cells(LEASE_FPS, "w1", limit=2, now=100.0)
        assert ledger_store.release_cells("w2", cells) == 0  # foreign: no-op
        assert ledger_store.release_cells("w1", cells) == 2
        assert ledger_store.lease_rows() == []
        # released cells are claimable again immediately
        assert (
            ledger_store.claim_stale_cells(LEASE_FPS, "w2", limit=2, now=100.0)
            == cells
        )

    def test_prune_expired_leases(self, ledger_store):
        ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=2, now=100.0, lease_seconds=30.0
        )
        ledger_store.claim_stale_cells(
            LEASE_FPS, "w2", limit=2, now=110.0, lease_seconds=60.0
        )
        # at 135, w1's leases expired (130) while w2's live until 170
        assert ledger_store.prune_expired_leases(now=135.0) == 2
        assert all(row[2] == "w2" for row in ledger_store.lease_rows())
        assert ledger_store.prune_expired_leases(now=135.0) == 0


class TestContractStoreClock:
    def test_clock_tracks_unix_time(self, store):
        """The store-side clock (julianday('now')) is Unix seconds; it
        must agree with the host clock here (one host!) to well under a
        lease length, and be monotonically reasonable."""
        before = time.time()
        observed = store.clock_now()
        after = time.time()
        assert before - 1.0 <= observed <= after + 1.0

    def test_default_lease_times_come_from_store_clock(self, ledger_store):
        """claim/renew with ``now=None`` must stamp store-clock expiry,
        not whatever ``time.time()`` says on a skewed host."""
        t0 = ledger_store.clock_now()
        claimed = ledger_store.claim_stale_cells(
            LEASE_FPS, "w1", limit=1, lease_seconds=30.0
        )
        t1 = ledger_store.clock_now()
        assert len(claimed) == 1
        (_, _, _, expires), *_ = ledger_store.lease_rows()
        assert t0 + 30.0 <= expires <= t1 + 30.0
        assert ledger_store.renew_leases(
            "w1", claimed, lease_seconds=60.0
        ) == 1
        (_, _, _, renewed), *_ = ledger_store.lease_rows()
        assert renewed >= t1 + 59.0


class TestShardedSpecifics:
    @pytest.fixture()
    def sharded(self, schema):
        with CandidateStore(schema, backend="sharded", n_shards=4) as s:
            yield s

    def test_users_spread_across_shards(self, sharded, john):
        users = [f"user-{i}" for i in range(16)]
        sharded.store_sessions(
            [(u, john.reshape(1, -1), [make_candidate(john)]) for u in users]
        )
        shards = {sharded.backend.schema_for(u) for u in users}
        assert len(shards) > 1  # 16 users over 4 crc32 buckets
        # global reads see every shard
        assert sharded.candidate_count() == 16
        assert sharded.user_ids() == sorted(users)

    def test_routing_is_stable(self, schema):
        a = ShardedSQLiteBackend(n_shards=4)
        b = ShardedSQLiteBackend(n_shards=4)
        for user in ("john", "jane", "u-123"):
            assert a.schema_for(user) == b.schema_for(user)
        a.close()
        b.close()

    def test_canned_query_over_shards(self, sharded, john):
        sharded.store_sessions(
            [
                ("u1", john.reshape(1, -1), [make_candidate(john, diff=2.0)]),
                ("u2", john.reshape(1, -1), [make_candidate(john, diff=0.5)]),
            ]
        )
        row = q4_minimal_overall_modification(sharded, "u2")
        assert row["diff"] == pytest.approx(0.5)

    def test_file_backed_shards_persist(self, schema, john, tmp_path):
        path = tmp_path / "cands.db"
        with CandidateStore(schema, path, backend="sharded", n_shards=2) as s:
            s.store_candidates("u1", [make_candidate(john)])
        assert (tmp_path / "cands.db.shard0").exists()
        with CandidateStore(schema, path, backend="sharded", n_shards=2) as s:
            assert s.candidate_count("u1") == 1

    def test_sharded_layout_inferred_on_reopen(self, schema, john, tmp_path):
        """Reopening a sharded database without the backend flag must not
        silently create an empty single-file store next to the shards."""
        path = tmp_path / "cands.db"
        with CandidateStore(schema, path, backend="sharded", n_shards=3) as s:
            s.store_candidates("u1", [make_candidate(john)])
        with CandidateStore(schema, path) as s:  # no backend given
            assert isinstance(s.backend, ShardedSQLiteBackend)
            assert s.backend.n_shards == 3
            assert s.candidate_count("u1") == 1

    def test_backend_type_mismatch_rejected(self, schema, john, tmp_path):
        """Opening existing data with the wrong topology must refuse
        instead of silently presenting an empty store."""
        plain = tmp_path / "plain.db"
        with CandidateStore(schema, plain) as s:
            s.store_candidates("u1", [make_candidate(john)])
        with pytest.raises(StorageError, match="plain SQLite"):
            CandidateStore(schema, plain, backend="sharded")
        assert not (tmp_path / "plain.db.shard0").exists()

        sharded = tmp_path / "sharded.db"
        with CandidateStore(schema, sharded, backend="sharded", n_shards=2) as s:
            s.store_candidates("u1", [make_candidate(john)])
        with pytest.raises(StorageError, match="sharded store"):
            CandidateStore(schema, sharded, backend="sqlite")

    def test_shard_count_mismatch_rejected(self, schema, john, tmp_path):
        """A different shard count than exists on disk would rehome users
        (fewer hides rows, more duplicates them) — refuse to open."""
        path = tmp_path / "cands.db"
        with CandidateStore(schema, path, backend="sharded", n_shards=4) as s:
            s.store_candidates("u1", [make_candidate(john)])
        with pytest.raises(StorageError, match="shard"):
            CandidateStore(schema, path, backend="sharded", n_shards=2)
        with pytest.raises(StorageError, match="shard"):
            CandidateStore(schema, path, backend="sharded", n_shards=6)

    def test_per_user_rows_live_in_one_shard(self, sharded, john):
        sharded.store_candidates("u1", [make_candidate(john, t) for t in range(3)])
        db = sharded.backend.schema_for("u1")
        rows = sharded._conn.execute(
            f"SELECT COUNT(*) FROM {db}.candidates WHERE user_id = 'u1'"
        ).fetchone()
        assert rows[0] == 3


class TestSchemaSafetyStillEnforced:
    def test_model_fp_reserved(self):
        bad = DatasetSchema([FeatureSpec("model_fp")])
        with pytest.raises(StorageError, match="reserved"):
            CandidateStore(bad)


def _content_users():
    """User ids spread over every shard count the invariance suite uses."""
    return [f"user-{i:02d}" for i in range(12)]


def populate_contents(store: CandidateStore) -> None:
    """Identical full contents (inputs + candidates + specs) regardless
    of backend, written in one deterministic insertion order."""
    base = np.arange(len(store.schema), dtype=float)
    store.store_sessions(
        [
            (
                uid,
                np.vstack([base + i, base + i + 1]),
                [
                    make_candidate(base + i, 0, diff=float(i)),
                    make_candidate(base + i + 1, 1, diff=float(i) + 0.5),
                    make_candidate(base + i + 2, 1, diff=float(i) + 0.25),
                ],
            )
            for i, uid in enumerate(_content_users())
        ],
        fingerprints={0: "fp0", 1: "old1"},
        specs=[(uid, base + i, ["gap <= 2"]) for i, uid in enumerate(_content_users())],
    )


class TestShardCountInvariance:
    """`contents_digest()` and `stale_cells()` must be functions of the
    store's *logical* contents only — global ``(user, time)`` ordering,
    never per-shard concatenation — so replicas with different shard
    layouts (and rebalanced stores) stay byte-comparable."""

    CONFIGS = (
        ("sqlite", None),
        ("memory", None),
        ("sharded", 1),
        ("sharded", 2),
        ("sharded", 4),
        ("sharded", 7),
    )

    def _results(self, schema, tmp_path):
        out = {}
        for backend, n_shards in self.CONFIGS:
            path = (
                ":memory:"
                if backend == "memory"
                else tmp_path / f"{backend}{n_shards}.db"
            )
            kwargs = {} if n_shards is None else {"n_shards": n_shards}
            with CandidateStore(schema, path, backend=backend, **kwargs) as s:
                populate_contents(s)
                out[(backend, n_shards)] = (
                    s.contents_digest(),
                    s.stale_cells({0: "fp0", 1: "new1"}),
                )
        return out

    def test_digest_and_stale_order_identical(self, schema, tmp_path):
        results = self._results(schema, tmp_path)
        digests = {d for d, _ in results.values()}
        assert len(digests) == 1, f"digests diverge across layouts: {results}"
        stales = [tuple(st) for _, st in results.values()]
        assert len(set(stales)) == 1
        # and the stale order is the documented global (user, time) order
        reference = sorted(stales[0])
        assert list(stales[0]) == reference


# ---------------------------------------------------------------- torture
#
# The concurrency contract of the one write path: a batch is one router
# transaction, so a writer that dies inside it — or is SIGKILLed at any
# moment, commit included — leaves every shard either before or after
# the whole batch (SQLite's super-journal does the recovery on the next
# read), and N concurrent writers with interleaved claim/upsert/release
# converge to the serial drain's digest.  FakeClock comes from the
# fault-injection harness.

from test_fault_injection import FakeClock  # noqa: E402


def torture_candidates(schema, user_id: str, t: int):
    """Deterministic per-cell candidates — a pure function of the cell,
    so the final store contents cannot depend on which writer computed
    which cell."""
    seed = zlib.crc32(f"{user_id}:{t}".encode())
    rng = np.random.default_rng(seed)
    return [
        make_candidate(
            rng.uniform(0.0, 10.0, size=len(schema)),
            t,
            diff=float(seed % 7) + 0.25 * j,
            gap=int(seed % 4),
        )
        for j in range(1 + seed % 3)
    ]


TORTURE_FPS = {0: "new0", 1: "new1"}


def populate_torture(store: CandidateStore) -> None:
    base = np.arange(len(store.schema), dtype=float)
    store.store_sessions(
        [(uid, np.vstack([base, base + 1]), []) for uid in _content_users()],
        fingerprints={0: "old", 1: "old"},
    )


def replicate_store_files(path, into) -> None:
    """Byte-copy a file-backed store (router + any shard files)."""
    for item in sorted(path.parent.glob(path.name + "*")):
        shutil.copy(item, into / item.name)


def serial_reference_digest(schema, tmp_path, backend) -> str:
    """Digest of a single-writer drain over the torture workload."""
    ref_dir = tmp_path / "reference"
    ref_dir.mkdir()
    with CandidateStore(schema, ref_dir / "cands.db", backend=backend) as store:
        populate_torture(store)
        clock = FakeClock(1000.0)
        while True:
            claimed = store.claim_stale_cells(
                TORTURE_FPS, "serial", limit=2, now=clock()
            )
            if not claimed:
                assert not store.has_stale_cells(TORTURE_FPS)
                break
            store.upsert_cells(
                [
                    (u, t, torture_candidates(store.schema, u, t))
                    for u, t in claimed
                ],
                fingerprints=TORTURE_FPS,
            )
            store.release_cells("serial", claimed)
        store.prune_expired_leases(now=clock())
        return store.contents_digest()


#: exit status of a writer that died where :func:`die_mid_write` put it
DIED_MID_WRITE = 17

_WRITE_TARGET_RE = re.compile(r"\s*(?:DELETE FROM|INSERT INTO|UPDATE)\s+(\w+)\.")


def die_mid_write(store: CandidateStore, after: int = 40) -> None:
    """Make this process ``os._exit`` inside its next write transaction.

    It dies at the first statement that addresses a second schema — the
    first shard's rows are applied, the others' are not — or, on a
    one-schema store, at the ``after``-th write statement.  A one-page
    cache makes SQLite spill the applied rows to the shard file before
    the death, so the next open has a real hot journal to roll back.
    Call it after any claims: their lease writes would trip it too.
    """
    conn, schemas = store.backend.conn, store.backend.schemas()
    for db in schemas:
        conn.execute(f"PRAGMA {db}.cache_size = 1")
    targets: list[str] = []

    def trace(statement: str) -> None:
        match = _WRITE_TARGET_RE.match(statement)
        if match is None:
            return
        targets.append(match.group(1))
        if targets[-1] != targets[0] or (len(schemas) == 1 and len(targets) >= after):
            os._exit(DIED_MID_WRITE)

    conn.set_trace_callback(trace)


def run_forked(target, *args) -> int:
    """Run ``target(*args)`` in a forked process; returns its exit code."""
    process = multiprocessing.get_context("fork").Process(target=target, args=args)
    process.start()
    process.join(timeout=120.0)
    if process.is_alive():
        process.kill()
        process.join()
        raise AssertionError("forked writer did not finish in 120 s")
    return process.exitcode


class TestParallelWritesIdentity:
    """A batch spanning shards is one transaction: all or nothing."""

    def test_multi_shard_batch_failure_rolls_back_every_shard(
        self, schema, tmp_path
    ):
        """A failure on a later shard must roll back the rows already
        applied to the earlier shards (all-or-nothing)."""
        with CandidateStore(
            schema, tmp_path / "cands.db", backend="sharded", n_shards=4
        ) as s:
            populate_contents(s)
            before = s.contents_digest()
            cells = [
                (u, 1, torture_candidates(schema, u, 1))
                for u in _content_users()
            ]
            # one cell of a user with no ledger row and no x_t → its
            # shard's apply raises mid-batch
            cells.append(("ghost-user", 1, torture_candidates(schema, "ghost-user", 1)))
            with pytest.raises(StorageError, match="temporal_inputs"):
                s.upsert_cells(cells, fingerprints={0: "fp0", 1: "new1"})
            assert s.contents_digest() == before

    def test_batch_takes_shards_in_ascending_order(self, schema):
        """Two writers that took shards in opposite orders would each
        hold the shard the other waits for until the busy timeout, so
        every batch takes them in ascending order — whatever the order
        of its cells."""
        targets: list[str] = []

        def trace(statement: str) -> None:
            match = _WRITE_TARGET_RE.match(statement)
            if match is not None:
                targets.append(match.group(1))

        with CandidateStore(schema, backend="sharded", n_shards=4) as s:
            populate_contents(s)
            users = sorted(_content_users(), key=s.backend.schema_for, reverse=True)
            s.backend.conn.set_trace_callback(trace)
            s.upsert_cells(
                [(u, 1, torture_candidates(schema, u, 1)) for u in users],
                fingerprints={0: "fp0", 1: "new1"},
            )
            s.backend.conn.set_trace_callback(None)
        assert len(set(targets)) > 1
        assert targets == sorted(targets)

    def test_writers_on_different_shards_never_wait(self, schema, tmp_path):
        """A router transaction locks only the shard files it writes:
        while one handle holds a write on one shard, another commits to
        a different shard at once instead of waiting out the busy
        timeout."""
        path = tmp_path / "cands.db"
        with CandidateStore(schema, path, backend="sharded", n_shards=4) as s:
            populate_torture(s)
        with CandidateStore(schema, path) as holder, CandidateStore(
            schema, path
        ) as writer:
            held = _content_users()[0]
            other = next(
                u for u in _content_users() if holder._db_for(u) != holder._db_for(held)
            )
            holder.backend.conn.execute(
                f"DELETE FROM {holder._db_for(held)}.candidates WHERE user_id = ?",
                (held,),
            )
            assert holder.backend.conn.in_transaction
            start = time.monotonic()
            writer.upsert_cells(
                [(other, 0, torture_candidates(schema, other, 0))],
                fingerprints=TORTURE_FPS,
            )
            elapsed = time.monotonic() - start
            holder.backend.conn.rollback()
        assert elapsed < 5.0


def _cells(schema, fingerprints, rows_per_cell=1):
    """Every torture cell with candidates that depend on ``fingerprints``
    (so two batches with different fingerprints differ in every row)."""
    salt = fingerprints[0]
    return [
        (u, t, torture_candidates(schema, f"{u}/{salt}", t) * rows_per_cell)
        for u in _content_users()
        for t in (0, 1)
    ]


def _write_batches_forever(schema, path, batches) -> None:
    """Forked writer: upsert the multi-shard batches in turn until killed."""
    store = CandidateStore(schema, path)
    while True:
        for cells, fingerprints in batches:
            store.upsert_cells(cells, fingerprints=fingerprints)


def upsert_then_die(schema, path, cells, fingerprints) -> None:
    """Forked writer: die inside the transaction of one multi-shard upsert."""
    store = CandidateStore(schema, path)
    die_mid_write(store)
    store.upsert_cells(cells, fingerprints=fingerprints)


class TestMultiShardCommitCrash:
    """Real process death around a multi-shard router transaction: the
    reopened store is the store before or after the whole batch."""

    @pytest.fixture
    def sharded_path(self, schema, tmp_path):
        path = tmp_path / "cands.db"
        with CandidateStore(schema, path, backend="sharded", n_shards=4) as s:
            populate_torture(s)
        return path

    def test_exit_inside_the_transaction_leaves_the_pre_write_digest(
        self, schema, sharded_path, tmp_path
    ):
        """A writer dies once its first shard's rows are on disk: the
        next open rolls that shard back to the pre-write contents."""
        with CandidateStore(schema, sharded_path) as s:
            pre = s.contents_digest()
            first = s.backend.schemas()[0]
        pristine = tmp_path / "pristine"
        pristine.mkdir()
        replicate_store_files(sharded_path, pristine)
        cells = _cells(schema, TORTURE_FPS, rows_per_cell=30)
        exit_code = run_forked(
            upsert_then_die, schema, sharded_path, cells, TORTURE_FPS
        )
        assert exit_code == DIED_MID_WRITE
        # the first shard's rows reached its file before the death
        shard_file = f"{sharded_path.name}.{first}"
        written = (sharded_path.parent / shard_file).read_bytes()
        assert written != (pristine / shard_file).read_bytes()
        with CandidateStore(schema, sharded_path) as s:
            assert s.contents_digest() == pre
            assert s.stale_cells(TORTURE_FPS) == sorted(
                (u, t) for u, t, _ in cells
            )
        assert not list(tmp_path.glob("cands.db*-journal"))

    def test_sigkill_at_seeded_moments_never_tears_a_batch(
        self, schema, sharded_path, tmp_path
    ):
        """SIGKILL a writer looping two alternating multi-shard batches
        at seeded delays: after every kill the store holds the pre-write
        contents, batch A's or batch B's — never a mix."""
        fps_a = {0: "a0", 1: "a1"}
        fps_b = {0: "b0", 1: "b1"}
        batches = [(_cells(schema, fps_a), fps_a), (_cells(schema, fps_b), fps_b)]
        with CandidateStore(schema, sharded_path) as s:
            pre = s.contents_digest()
        expected = {pre: "pre"}
        for label, (cells, fps) in zip("AB", batches):
            replica = tmp_path / f"replica-{label}"
            replica.mkdir()
            replicate_store_files(sharded_path, replica)
            with CandidateStore(schema, replica / sharded_path.name) as s:
                s.upsert_cells(cells, fingerprints=fps)
                expected[s.contents_digest()] = label
        assert len(expected) == 3
        rng = np.random.default_rng(0x5EED)
        seen = []
        for delay in rng.uniform(0.02, 0.3, size=12):
            process = multiprocessing.get_context("fork").Process(
                target=_write_batches_forever,
                args=(schema, sharded_path, batches),
            )
            process.start()
            time.sleep(float(delay))
            process.kill()
            process.join(timeout=60.0)
            assert process.exitcode == -signal.SIGKILL
            with CandidateStore(schema, sharded_path) as s:
                digest = s.contents_digest()
            assert digest in expected, f"torn store after a {delay:.3f} s kill"
            seen.append(expected[digest])
        # some kills landed after the writer had committed a batch
        assert {"A", "B"} & set(seen)

    def test_wal_file_is_refused(self, schema, sharded_path):
        with CandidateStore(schema, sharded_path) as s:
            digest = s.contents_digest()
        for target in (f"{sharded_path}.shard2", str(sharded_path)):
            conn = sqlite3.connect(target)
            assert conn.execute("PRAGMA journal_mode = WAL").fetchone()[0] == "wal"
            conn.close()
            with pytest.raises(StorageError, match="journal_mode=wal"):
                CandidateStore(schema, sharded_path)
            conn = sqlite3.connect(target)
            conn.execute("PRAGMA journal_mode = DELETE")
            conn.close()
        with CandidateStore(schema, sharded_path) as s:
            assert s.contents_digest() == digest


@pytest.mark.parametrize("backend", ["sqlite", "sharded"])
class TestConcurrentWriterTorture:
    """N writers, each with its **own** store connection to one shared
    file-backed database, interleaving claim / upsert / release (plus a
    writer killed mid-transaction) must converge to the serial drain's
    digest with a clean ledger and no lingering leases."""

    N_WRITERS = 3

    def _drain_worker(self, schema, path, backend, worker_id, failures,
                      prefer_schema=None, limit=2, batches=None):
        store = CandidateStore(schema, path, backend=backend)
        try:
            while True:
                claimed = store.claim_stale_cells(
                    TORTURE_FPS, worker_id, limit=limit,
                    lease_seconds=60.0, prefer_schema=prefer_schema,
                )
                if not claimed:
                    if not store.has_stale_cells(TORTURE_FPS):
                        break
                    time.sleep(0.005)
                    continue
                if batches is not None:
                    batches.append({store.backend.schema_for(u) for u, _ in claimed})
                store.upsert_cells(
                    [
                        (u, t, torture_candidates(schema, u, t))
                        for u, t in claimed
                    ],
                    fingerprints=TORTURE_FPS,
                )
                store.release_cells(worker_id, claimed)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            failures.append((worker_id, exc))
        finally:
            store.close()

    def _converge(self, schema, tmp_path, backend, affinity):
        """Run the threaded writers; returns the schema sets of their
        upsert batches."""
        expected = serial_reference_digest(schema, tmp_path, backend)
        workdir = tmp_path / "torture"
        workdir.mkdir()
        with CandidateStore(
            schema, workdir / "cands.db", backend=backend, n_shards=4
        ) as s:
            populate_torture(s)
            schemas = s.backend.schemas()
        failures: list = []
        batches: list = []
        threads = [
            threading.Thread(
                target=self._drain_worker,
                args=(schema, workdir / "cands.db", backend, f"w{i}", failures),
                kwargs=(
                    # pin each writer to a home shard
                    {"prefer_schema": schemas[i % len(schemas)]}
                    if affinity
                    # odd batches straddle users, so claims span shards
                    else {"limit": 3, "batches": batches}
                ),
            )
            for i in range(self.N_WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        with CandidateStore(schema, workdir / "cands.db", backend=backend) as s:
            s.prune_expired_leases()
            assert s.stale_cells(TORTURE_FPS) == []
            assert s.lease_rows() == []
            assert s.contents_digest() == expected
        return batches

    def test_threaded_writers_converge_to_serial_digest(
        self, schema, tmp_path, backend
    ):
        self._converge(schema, tmp_path, backend, affinity=True)

    def test_threaded_writers_without_affinity_converge_to_serial_digest(
        self, schema, tmp_path, backend
    ):
        batches = self._converge(schema, tmp_path, backend, affinity=False)
        if backend == "sharded":
            assert any(len(schemas) > 1 for schemas in batches)

    def test_kill_mid_commit_then_survivor_converges(
        self, schema, tmp_path, backend
    ):
        """A forked writer claims every cell and dies inside its upsert
        transaction; the survivor reclaims the expired leases and drains
        — the final digest still equals the serial run's."""
        expected = serial_reference_digest(schema, tmp_path, backend)
        workdir = tmp_path / "kill"
        workdir.mkdir()
        path = workdir / "cands.db"
        with CandidateStore(schema, path, backend=backend, n_shards=4) as s:
            populate_torture(s)
        clock = FakeClock(1000.0)
        exit_code = run_forked(
            self._claim_all_then_die, schema, path, backend, clock()
        )
        assert exit_code == DIED_MID_WRITE
        # survivor: new connection; the dead writer's rows rolled back,
        # its leases are reclaimable once expired
        clock.now += 31.0
        survivor = CandidateStore(schema, path, backend=backend)
        every_cell = [(u, t) for u in _content_users() for t in (0, 1)]
        assert survivor.stale_cells(TORTURE_FPS) == every_cell
        assert {w for _, _, w, _ in survivor.lease_rows()} == {"doomed"}
        while True:
            got = survivor.claim_stale_cells(
                TORTURE_FPS, "survivor", limit=3, now=clock()
            )
            if not got:
                break
            survivor.upsert_cells(
                [(u, t, torture_candidates(schema, u, t)) for u, t in got],
                fingerprints=TORTURE_FPS,
            )
            survivor.release_cells("survivor", got)
        survivor.prune_expired_leases(now=clock())
        assert survivor.stale_cells(TORTURE_FPS) == []
        assert survivor.lease_rows() == []
        assert survivor.contents_digest() == expected
        survivor.close()

    @staticmethod
    def _claim_all_then_die(schema, path, backend, now) -> None:
        store = CandidateStore(schema, path, backend=backend)
        claimed = store.claim_stale_cells(
            TORTURE_FPS, "doomed", limit=99, now=now, lease_seconds=30.0
        )
        assert len(claimed) == len(_content_users()) * 2
        die_mid_write(store)
        store.upsert_cells(
            [(u, t, torture_candidates(schema, u, t)) for u, t in claimed],
            fingerprints=TORTURE_FPS,
        )


class TestClaimAffinity:
    def test_prefer_schema_drains_home_shard_first(self, schema):
        with CandidateStore(schema, backend="sharded", n_shards=4) as store:
            populate_ledger(store)
            by_schema: dict[str, list] = {}
            for uid, t in all_ledger_cells():
                by_schema.setdefault(store.backend.schema_for(uid), []).append(
                    (uid, t)
                )
            home = max(by_schema, key=lambda k: len(by_schema[k]))
            claimed = store.claim_stale_cells(
                LEASE_FPS, "w1", limit=len(by_schema[home]), now=100.0,
                prefer_schema=home,
            )
            assert claimed == by_schema[home]
            # fall-through: once the home shard is drained (leased),
            # foreign shards' cells are claimed so the pool finishes
            rest = store.claim_stale_cells(
                LEASE_FPS, "w2", limit=99, now=100.0, prefer_schema=home
            )
            assert sorted(claimed + rest) == all_ledger_cells()

    def test_unknown_prefer_schema_falls_back_to_global_order(self, schema):
        with CandidateStore(schema, backend="sharded", n_shards=4) as store:
            populate_ledger(store)
            claimed = store.claim_stale_cells(
                LEASE_FPS, "w1", limit=3, now=100.0, prefer_schema="nope"
            )
            assert claimed == all_ledger_cells()[:3]


class TestLegacyMigration:
    def test_pre_model_fp_database_is_migrated(self, schema, john, tmp_path):
        """DB files written before the refresh subsystem lack model_fp;
        opening them must add the column, with old cells reading as
        fingerprint '' (i.e. stale — the safe default)."""
        import sqlite3

        path = tmp_path / "legacy.db"
        feature_cols = ", ".join(f"{n} REAL NOT NULL" for n in schema.names)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                f"CREATE TABLE temporal_inputs (user_id TEXT NOT NULL,"
                f" time INTEGER NOT NULL, {feature_cols},"
                " PRIMARY KEY (user_id, time))"
            )
            conn.execute(
                f"CREATE TABLE candidates (id INTEGER PRIMARY KEY"
                f" AUTOINCREMENT, user_id TEXT NOT NULL, time INTEGER"
                f" NOT NULL, {feature_cols}, diff REAL NOT NULL,"
                " gap INTEGER NOT NULL, p REAL NOT NULL)"
            )
            conn.execute(
                "INSERT INTO temporal_inputs VALUES (?, ?, "
                + ", ".join("?" for _ in schema.names)
                + ")",
                ("old-user", 0, *map(float, john)),
            )
        conn.close()

        with CandidateStore(schema, path) as store:
            assert store.cell_fingerprints("old-user") == {0: ""}
            assert store.stale_cells({0: "fp0"}) == [("old-user", 0)]
            store.store_temporal_inputs("u2", john.reshape(1, -1), {0: "fp0"})
            store.store_candidates("u2", [make_candidate(john)], {0: "fp0"})
            assert store.candidate_count("u2") == 1


class TestLeaderElection:
    """Store-backed leader-lease contract (multi-orchestrator HA).

    The store's clock arbitrates leadership exactly as it does worker
    leases: acquisition is a single BEGIN IMMEDIATE transaction, the
    fencing epoch only ever increases, and a deposed leader's writes
    must be rejected — on every backend.  All arithmetic below injects
    ``now`` so expiry is deterministic.
    """

    def test_initial_acquire_starts_at_epoch_one(self, store):
        assert store.acquire_leader_lease("n1", ttl_seconds=30, now=100.0) == 1
        status = store.leader_status(now=101.0)
        assert status["leader_id"] == "n1"
        assert status["epoch"] == 1
        assert status["expired"] is False
        assert status["lease_expires_at"] == pytest.approx(130.0)
        assert status["lease_age"] == pytest.approx(1.0)

    def test_holder_reacquire_renews_in_place(self, store):
        assert store.acquire_leader_lease("n1", ttl_seconds=30, now=100.0) == 1
        # the current holder campaigning again must NOT burn an epoch —
        # that would fence its own in-flight writes
        assert store.acquire_leader_lease("n1", ttl_seconds=30, now=110.0) == 1
        status = store.leader_status(now=110.0)
        assert status["epoch"] == 1
        assert status["lease_expires_at"] == pytest.approx(140.0)

    def test_contender_blocked_while_lease_live(self, store):
        assert store.acquire_leader_lease("n1", ttl_seconds=30, now=100.0) == 1
        assert store.acquire_leader_lease("n2", ttl_seconds=30, now=129.0) is None
        # the incumbent is untouched by the failed campaign
        assert store.leader_status(now=129.0)["leader_id"] == "n1"

    def test_expiry_takeover_increments_epoch(self, store):
        assert store.acquire_leader_lease("n1", ttl_seconds=30, now=100.0) == 1
        assert store.acquire_leader_lease("n2", ttl_seconds=30, now=131.0) == 2
        status = store.leader_status(now=131.0)
        assert status["leader_id"] == "n2"
        assert status["epoch"] == 2

    def test_fencing_rejects_deposed_leader(self, store):
        assert store.acquire_leader_lease("n1", ttl_seconds=30, now=100.0) == 1
        assert store.acquire_leader_lease("n2", ttl_seconds=30, now=131.0) == 2
        # the deposed leader's heartbeat and fence checks both fail …
        assert store.renew_leader_lease("n1", 1, ttl_seconds=30, now=132.0) is False
        assert store.verify_leader("n1", 1, now=132.0) is False
        # … and a stale epoch under the *right* node id fails too
        assert store.verify_leader("n2", 1, now=132.0) is False
        assert store.verify_leader("n2", 2, now=132.0) is True

    def test_renew_extends_lease_for_holder_only(self, store):
        assert store.acquire_leader_lease("n1", ttl_seconds=30, now=100.0) == 1
        assert store.renew_leader_lease("n1", 1, ttl_seconds=30, now=120.0) is True
        assert store.leader_status(now=120.0)["lease_expires_at"] == pytest.approx(150.0)
        # expired holder cannot renew itself back to life
        assert store.renew_leader_lease("n1", 1, ttl_seconds=30, now=151.0) is False

    def test_resign_expires_without_deleting_the_epoch(self, store):
        assert store.acquire_leader_lease("n1", ttl_seconds=30, now=100.0) == 1
        # wrong epoch cannot resign the seat
        assert store.resign_leader_lease("n1", 99, now=105.0) is False
        assert store.resign_leader_lease("n1", 1, now=105.0) is True
        status = store.leader_status(now=105.0)
        assert status["expired"] is True
        # the row survives so the next winner continues the epoch chain
        assert store.acquire_leader_lease("n2", ttl_seconds=30, now=106.0) == 2

    def test_epoch_is_monotonic_across_many_successions(self, store):
        now, epochs = 100.0, []
        for i in range(5):
            epoch = store.acquire_leader_lease(f"n{i}", ttl_seconds=10, now=now)
            epochs.append(epoch)
            now += 11.0  # let each lease expire before the next campaign
        assert epochs == [1, 2, 3, 4, 5]

    def test_leader_status_none_before_any_campaign(self, store):
        assert store.leader_status(now=100.0) is None
        assert store.verify_leader("n1", 1, now=100.0) is False
        assert store.renew_leader_lease("n1", 1, now=100.0) is False

    def test_lease_excluded_from_contents_digest(self, store, john):
        store.store_temporal_inputs("u", john.reshape(1, -1), {0: "fp"})
        before = store.contents_digest()
        store.acquire_leader_lease("n1", ttl_seconds=30, now=100.0)
        store.set_orchestrator_metrics({"phase": "idle"}, now=100.0)
        assert store.contents_digest() == before

    def test_orchestrator_metrics_roundtrip(self, store):
        assert store.orchestrator_metrics() is None
        store.set_orchestrator_metrics(
            {"phase": "drain", "cells_drained": 7}, now=100.0
        )
        snap = store.orchestrator_metrics()
        assert snap["updated_at"] == pytest.approx(100.0)
        assert snap["metrics"] == {"phase": "drain", "cells_drained": 7}
        store.set_orchestrator_metrics({"phase": "idle"}, now=101.0)
        assert store.orchestrator_metrics()["metrics"] == {"phase": "idle"}

    @pytest.mark.parametrize("backend", ["sqlite", "sharded"])
    def test_no_co_lead_under_cross_connection_contention(
        self, schema, tmp_path, backend
    ):
        """Two processes campaigning on the same file: at most one wins
        each round, and the fencing epoch never goes backwards."""
        path = tmp_path / "seat.db"
        with CandidateStore(schema, path, backend=backend) as a, CandidateStore(
            schema, path, backend=backend
        ) as b:
            wins: dict[str, list] = {"a": [], "b": []}
            barrier = threading.Barrier(2)

            def campaign(handle, name, node_id):
                for round_no in range(8):
                    barrier.wait()
                    # each round starts after every prior lease expired
                    now = 100.0 + round_no * 100.0
                    epoch = handle.acquire_leader_lease(
                        node_id, ttl_seconds=30, now=now
                    )
                    if epoch is not None:
                        wins[name].append((round_no, epoch))

            t1 = threading.Thread(target=campaign, args=(a, "a", "node-a"))
            t2 = threading.Thread(target=campaign, args=(b, "b", "node-b"))
            t1.start(); t2.start(); t1.join(); t2.join()

            rounds_won = [r for r, _ in wins["a"]] + [r for r, _ in wins["b"]]
            # exactly one winner per round — never two live leaders
            assert sorted(rounds_won) == list(range(8))
            epochs = sorted(e for _, e in wins["a"] + wins["b"])
            assert epochs == list(range(1, 9))
