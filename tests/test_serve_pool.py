"""Read-only replica pool: reuse, isolation, and topology survival.

Covers the serving tier's read path guarantees: pooled connections are
reused rather than reopened, writes through a replica are rejected at
the connection level (``PRAGMA query_only``), an atomically swapped
shard file is detected by inode and transparently reopened, and an
online ``rebalance()`` mid-serve rebuilds the pool against the new
layout.
"""

import os
import shutil

import numpy as np
import pytest

from repro.core import Candidate, CandidateMetrics
from repro.db import CandidateStore, prepared_for
from repro.exceptions import StorageError
from repro.serve import ReplicaPool, ReplicaStoreView


def cand(x, time, diff, gap, p):
    return Candidate(
        np.asarray(x, dtype=float),
        time,
        CandidateMetrics(diff=diff, gap=gap, confidence=p),
    )


def fill(store, users, john):
    for i, user in enumerate(users):
        trajectory = np.vstack([john, john + i])
        fps = {0: f"fp-{user}-0", 1: f"fp-{user}-1"}
        store.store_temporal_inputs(user, trajectory, fingerprints=fps)
        store.store_candidates(
            user, [cand(trajectory[1], 1, diff=0.0, gap=0, p=0.7)],
            fingerprints=fps,
        )


USERS = [f"u{i}" for i in range(6)]


@pytest.fixture()
def sharded(schema, john, tmp_path):
    store = CandidateStore(
        schema, tmp_path / "pool.db", backend="sharded", n_shards=3
    )
    fill(store, USERS, john)
    yield store
    store.close()


class TestReplicaStoreView:
    def test_reads_match_store(self, sharded):
        pool = ReplicaPool(sharded)
        queries = prepared_for(sharded.schema.names)
        with pool.view("u1") as view:
            assert view.cell_fingerprints("u1") == sharded.cell_fingerprints("u1")
            inputs = queries.inputs(view.read, "u1")
            assert [row["time"] for row in inputs] == sharded.times_for("u1")
            np.testing.assert_array_equal(
                view.row_to_vector(inputs[0]), sharded.temporal_input("u1", 0)
            )
        pool.close()

    def test_replica_rejects_writes(self, sharded):
        pool = ReplicaPool(sharded)
        with pool.view("u1") as view:
            with pytest.raises(StorageError):
                view.read("DELETE FROM temporal_inputs")
            with pytest.raises(StorageError):
                view.read(
                    "INSERT INTO temporal_inputs (user_id, time) VALUES ('x', 9)"
                )
        # the store proper is untouched and still writable
        assert sharded.cell_fingerprints("u1")
        pool.close()

    def test_view_is_scoped_to_one_users_shard(self, sharded):
        # a sharded replica points at the user's shard file directly;
        # other shards' users are simply absent there
        backend = sharded.backend
        u_schema = backend.schema_for("u1")
        other = next(u for u in USERS if backend.schema_for(u) != u_schema)
        pool = ReplicaPool(sharded)
        with pool.view("u1") as view:
            assert view.cell_fingerprints("u1")
            assert view.cell_fingerprints(other) == {}
        pool.close()


class TestReplicaPool:
    def test_connections_are_reused(self, sharded):
        pool = ReplicaPool(sharded)
        for _ in range(5):
            with pool.view("u1") as view:
                view.cell_fingerprints("u1")
        stats = pool.stats()
        assert stats["opens"] == 1
        assert stats["reuses"] == 4
        assert stats["reopens"] == 0
        pool.close()

    def test_memory_backend_falls_back_to_router(self, schema, john):
        store = CandidateStore(schema)  # :memory:
        fill(store, ["u1"], john)
        pool = ReplicaPool(store)
        with pool.view("u1") as view:
            assert isinstance(view, ReplicaStoreView)
            assert view.cell_fingerprints("u1") == store.cell_fingerprints("u1")
        assert pool.stats()["opens"] == 0
        pool.close()
        store.close()

    def test_swapped_shard_file_reopens_by_inode(self, sharded, tmp_path):
        pool = ReplicaPool(sharded)
        u_schema = sharded.backend.schema_for("u1")
        with pool.view("u1") as view:
            before = view.cell_fingerprints("u1")
        # replace the shard file with an identical copy: same bytes,
        # new inode — exactly what rebalance's atomic rename does
        shard_path = f"{sharded.backend.path}.{u_schema}"
        staged = tmp_path / "staged.db"
        shutil.copyfile(shard_path, staged)
        os.replace(staged, shard_path)
        with pool.view("u1") as view:
            assert view.cell_fingerprints("u1") == before
        stats = pool.stats()
        assert stats["reopens"] == 1
        pool.close()

    def test_rebalance_mid_serve_rebuilds_pool(self, sharded):
        pool = ReplicaPool(sharded)
        expected = {user: sharded.cell_fingerprints(user) for user in USERS}
        with pool.view("u1") as view:
            assert view.cell_fingerprints("u1") == expected["u1"]
        opens_before = pool.stats()["opens"]
        sharded.rebalance(5)
        # every user still answers correctly through the pool, via
        # replicas opened against the new 5-shard layout
        for user in USERS:
            with pool.view(user) as view:
                assert view.cell_fingerprints(user) == expected[user]
        assert pool._built_for is sharded.backend
        assert pool.stats()["opens"] > opens_before
        pool.close()

    def test_close_empties_pool(self, sharded):
        pool = ReplicaPool(sharded)
        with pool.view("u1") as view:
            view.cell_fingerprints("u1")
        pool.close()
        assert pool.stats()["schemas"] == 0
