"""Online shard rebalancing: digest invariance under arbitrary
migrations and crash/resume schedules.

The hypothesis property at the core: for an *arbitrary* populated
store, an arbitrary ``n_shards → m_shards`` migration (including 1 and
m > users) interrupted by an *arbitrary* crash/resume schedule must end
with ``contents_digest()`` and the ``stale_cells()`` ordering equal to
the pre-rebalance store — the migration is invisible to every consumer
of the store's logical contents.

Crashes are simulated with the rebalance ``fault_hook`` (raising at the
k-th stage ≈ ``kill -9`` between two durable steps); "resume" is what
an operator does: reopen the store (which heals a half-done swap or
discards a half-done build via :func:`repro.db.backends
.recover_rebalance`) and rerun the migration.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Candidate, CandidateMetrics
from repro.data import DatasetSchema, FeatureSpec
from repro.db import CandidateStore, ShardedSQLiteBackend
from repro.exceptions import StorageError
from test_store_backends import DIED_MID_WRITE, run_forked, upsert_then_die

SCHEMA = DatasetSchema([FeatureSpec("f_a"), FeatureSpec("f_b")])
USER_POOL = [f"user-{i}" for i in range(8)]


class Killed(RuntimeError):
    """The simulated kill -9 during a migration stage."""


class StageKiller:
    def __init__(self, crash_at: int):
        self.crash_at = int(crash_at)
        self.fired = 0

    def __call__(self, stage: str) -> None:
        if self.fired >= self.crash_at:
            raise Killed(stage)
        self.fired += 1


def make_cells(user_id: str, n_times: int):
    rng = np.random.default_rng(abs(hash(user_id)) % (2**32))
    candidates = [
        Candidate(
            rng.uniform(0.0, 5.0, size=2),
            t,
            CandidateMetrics(diff=float(t) + 0.5, gap=t % 3, confidence=0.7),
        )
        for t in range(n_times)
        for _ in range(1 + t % 2)
    ]
    trajectory = rng.uniform(0.0, 5.0, size=(n_times, 2))
    return trajectory, candidates


def populate(store: CandidateStore, users: dict[str, int]) -> None:
    store.store_sessions(
        [
            (uid, *make_cells(uid, n_times))
            for uid, n_times in sorted(users.items())
        ],
        fingerprints={t: f"old-{t}" for t in range(4)},
        specs=[
            (uid, np.ones(2), ["gap <= 2"]) for uid in sorted(users)
        ],
    )


FRESH_FPS = {t: f"new-{t}" for t in range(4)}


def snapshot(store: CandidateStore):
    return (
        store.contents_digest(),
        store.stale_cells(FRESH_FPS),
        store.user_ids(),
        [row[:3] for row in store.lease_rows()],
    )


@given(
    users=st.dictionaries(
        st.sampled_from(USER_POOL), st.integers(1, 3), min_size=0, max_size=6
    ),
    n_start=st.integers(1, 5),
    targets=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    crash_points=st.lists(
        st.one_of(st.none(), st.integers(0, 12)), min_size=1, max_size=3
    ),
)
@settings(max_examples=25, deadline=None)
def test_rebalance_digest_invariant_under_crash_resume(
    users, n_start, targets, crash_points
):
    with tempfile.TemporaryDirectory(prefix="rebal-prop-") as tmp:
        path = Path(tmp) / "cands.db"
        store = CandidateStore(SCHEMA, path, backend="sharded", n_shards=n_start)
        populate(store, users)
        # a couple of live leases ride along through the migration
        store.claim_stale_cells(FRESH_FPS, "w1", limit=2, now=100.0)
        reference = snapshot(store)
        for target in targets:
            for crash_at in crash_points:
                if crash_at is None:
                    store.rebalance(target)
                else:
                    try:
                        store.rebalance(target, fault_hook=StageKiller(crash_at))
                    except Killed:
                        # the crashed store object is dead (its backend
                        # may hold renamed files) — the operator reopens,
                        # which heals the half-done migration
                        try:
                            store.close()
                        except Exception:
                            pass
                        store = CandidateStore(SCHEMA, path)
                assert snapshot(store) == reference
            # settle the migration completely before the next target
            store.rebalance(target)
            assert isinstance(store.backend, ShardedSQLiteBackend)
            assert store.backend.n_shards == target
            assert snapshot(store) == reference
        store.close()
        # a fresh open (shard count inferred from the files) agrees too
        with CandidateStore(SCHEMA, path) as reopened:
            assert snapshot(reopened) == reference


class TestRebalanceUnit:
    @pytest.fixture()
    def populated(self, tmp_path):
        store = CandidateStore(
            SCHEMA, tmp_path / "cands.db", backend="sharded", n_shards=3
        )
        populate(store, {uid: 2 for uid in USER_POOL})
        yield store
        store.close()

    def test_same_count_is_noop(self, populated):
        digest = populated.contents_digest()
        assert populated.rebalance(3) == {"n_shards": 3, "moved_users": 0}
        assert populated.contents_digest() == digest

    def test_bounds_validated(self, populated):
        with pytest.raises(StorageError, match="n_shards"):
            populated.rebalance(0)
        with pytest.raises(StorageError, match="n_shards"):
            populated.rebalance(9)

    def test_rows_land_on_their_hash_shard(self, populated):
        populated.rebalance(5)
        backend = populated.backend
        for uid in USER_POOL:
            db = backend.schema_for(uid)
            rows = populated._conn.execute(
                f"SELECT COUNT(*) FROM {db}.temporal_inputs WHERE user_id = ?",
                (uid,),
            ).fetchone()
            assert rows[0] == 2
        # and no shard holds a foreigner
        for db in backend.schemas():
            for row in populated._conn.execute(
                f"SELECT DISTINCT user_id FROM {db}.temporal_inputs"
            ):
                assert backend.schema_for(str(row[0])) == db

    def test_memory_store_rejected(self):
        with CandidateStore(SCHEMA, backend="sharded", n_shards=2) as store:
            with pytest.raises(StorageError, match="file-backed"):
                store.rebalance(4)

    def test_plain_sqlite_rejected(self, tmp_path):
        with CandidateStore(SCHEMA, tmp_path / "plain.db") as store:
            with pytest.raises(StorageError, match="sharded"):
                store.rebalance(4)

    def test_session_specs_and_leases_survive(self, populated):
        specs_before = populated.load_session_specs()
        populated.claim_stale_cells(FRESH_FPS, "w1", limit=3, now=100.0)
        leases_before = populated.lease_rows()
        populated.rebalance(1)
        specs_after = populated.load_session_specs()
        assert [s[0] for s in specs_after] == [s[0] for s in specs_before]
        assert all(
            np.allclose(a[1], b[1]) and a[2] == b[2]
            for a, b in zip(specs_after, specs_before)
        )
        assert populated.lease_rows() == leases_before
        # a lease claimed before the migration is still renewable after
        assert populated.renew_leases(
            "w1", [lease[:2] for lease in leases_before], now=110.0
        ) == len(leases_before)

    def test_rebalance_resolves_a_crashed_writers_group(self, tmp_path):
        """A writer that died inside a multi-shard transaction leaves a
        hot journal behind; rebalance — from a store opened *before* the
        death — must migrate the rolled-back contents and leave no
        journal or super-journal file."""
        path = tmp_path / "cands.db"
        keeper = CandidateStore(SCHEMA, path, backend="sharded", n_shards=3)
        populate(keeper, {uid: 2 for uid in USER_POOL})
        reference = snapshot(keeper)
        rng = np.random.default_rng(5)
        cells = [
            (
                uid,
                0,
                [
                    Candidate(
                        rng.uniform(0.0, 1.0, size=2),
                        0,
                        CandidateMetrics(diff=9.0, gap=1, confidence=0.9),
                    )
                ]
                * 200,
            )
            for uid in sorted(USER_POOL)
        ]
        exit_code = run_forked(upsert_then_die, SCHEMA, path, cells, {0: "poison"})
        assert exit_code == DIED_MID_WRITE
        assert list(tmp_path.glob("cands.db*-journal"))

        keeper.rebalance(5)
        assert snapshot(keeper) == reference
        assert not list(tmp_path.glob("cands.db*-journal"))
        assert not list(tmp_path.glob("cands.db*-mj*"))
        keeper.close()
        with CandidateStore(SCHEMA, path) as reopened:
            assert snapshot(reopened) == reference

    def test_stale_shard_files_removed_on_shrink(self, populated, tmp_path):
        populated.rebalance(1)
        assert (tmp_path / "cands.db.shard0").exists()
        for i in range(1, 6):
            assert not (tmp_path / f"cands.db.shard{i}").exists()
            assert not (tmp_path / f"cands.db.old{i}").exists()
            assert not (tmp_path / f"cands.db.rebal{i}").exists()
