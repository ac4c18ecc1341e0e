"""Worker-pool refresh tests: lease-draining equals inline refresh.

The load-bearing invariant: however the stale cells are distributed —
one in-process drain, or N worker processes racing over leases — the
final store contents are byte-identical to a single-process
``JustInTime.refresh()`` (``CandidateStore.contents_digest``).
"""

import numpy as np
import pytest

import repro.core.worker as worker_module
from repro.constraints import lending_domain_constraints
from repro.core import (
    AdminConfig,
    JustInTime,
    drain_stale_cells,
    load_system,
    run_worker_pool,
    save_system,
)
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    make_lending_dataset,
)
from repro.exceptions import StorageError
from repro.db import CandidateStore
from repro.temporal import PerPeriodStrategy, lending_update_function

from cell_reference import reference_recompute

DRIFT_T = 1
N_USERS = 6


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=60, random_state=1)


@pytest.fixture(scope="module")
def drift_data(history):
    start = float(np.floor(history.span[0]))
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(50)
    years = np.full(50, start + DRIFT_T + 0.5)
    return TemporalDataset(X, generator.label(X, years), years, history.schema)


def make_users(schema, n=N_USERS):
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    return [
        (
            f"user-{i:02d}",
            schema.clip(base * rng.uniform(0.8, 1.2, size=base.size)),
            ["annual_income <= base_annual_income * 1.3"],
        )
        for i in range(n)
    ]


def build_populated(schema, history, db, backend, n_shards=4, **overrides):
    config = dict(
        T=2, strategy=PerPeriodStrategy(), k=4, max_iter=8, random_state=0
    )
    config.update(overrides)
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(**config),
        domain_constraints=lending_domain_constraints(schema),
        store_path=db,
        store_backend=backend,
        n_shards=n_shards,
    )
    system.fit(history)
    system.create_sessions(make_users(schema))
    return system


def reference_digest(schema, history, drift_data, db, backend, n_shards=4):
    """Digest of the per-cell reference recompute of the refit workload."""
    reference = build_populated(schema, history, db, backend, n_shards=n_shards)
    reference.refit(drift_data)
    reference_recompute(reference)
    digest = reference.store.contents_digest()
    reference.store.close()
    return digest


class TestDrain:
    def test_single_drain_matches_inline_refresh(
        self, schema, history, drift_data, tmp_path
    ):
        inline = build_populated(schema, history, tmp_path / "a.db", "sqlite")
        inline.refresh(drift_data, warm_start=False)
        expected = inline.store.contents_digest()

        drained = build_populated(schema, history, tmp_path / "b.db", "sqlite")
        stale = drained.refit(drift_data)
        assert stale == (DRIFT_T,)
        report = drain_stale_cells(drained, warm_start=False)
        assert sorted(report.cells) == [
            (f"user-{i:02d}", DRIFT_T) for i in range(N_USERS)
        ]
        assert not report.skipped_cells
        assert drained.store.contents_digest() == expected
        assert drained.store.stale_cells(drained.model_fingerprints) == []
        assert drained.store.lease_rows() == []

    def test_warm_drain_matches_warm_refresh(
        self, schema, history, drift_data, tmp_path
    ):
        """Warm seeds come from the same stored rows either way, so the
        warm paths agree too (refresh and drain seed identically)."""
        inline = build_populated(schema, history, tmp_path / "a.db", "sqlite")
        inline.refresh(drift_data, warm_start=True)
        drained = build_populated(schema, history, tmp_path / "b.db", "sqlite")
        drained.refit(drift_data)
        drain_stale_cells(drained, warm_start=True)
        assert (
            drained.store.contents_digest() == inline.store.contents_digest()
        )

    def test_checkpoint_with_engine_and_n_jobs_loads_and_drains(
        self, schema, history, drift_data, tmp_path
    ):
        """Checkpoints written while ``AdminConfig`` still had ``engine``
        and ``n_jobs`` pickle both attributes; such a system still loads,
        drains, and matches the per-cell reference."""
        expected = reference_digest(
            schema, history, drift_data, tmp_path / "ref.db", "sqlite"
        )
        db, pkl = tmp_path / "old.db", tmp_path / "old.pkl"
        system = build_populated(schema, history, db, "sqlite")
        system.refit(drift_data)
        system.config.engine = "batch"
        system.config.n_jobs = 2
        save_system(system, pkl)
        system.store.close()

        loaded = load_system(pkl, store_path=db)
        assert (loaded.config.engine, loaded.config.n_jobs) == ("batch", 2)
        report = drain_stale_cells(loaded, warm_start=False)
        assert len(report.cells) == N_USERS
        assert loaded.store.contents_digest() == expected
        loaded.store.close()

    def test_checkpoint_with_warm_tuning_and_extra_loads_and_drains(
        self, schema, history, drift_data, tmp_path
    ):
        """Checkpoints written while ``AdminConfig`` still had
        ``warm_top_m``, ``warm_patience`` and ``extra`` pickle all three;
        such a system still loads, drains, and matches the per-cell
        reference."""
        expected = reference_digest(
            schema, history, drift_data, tmp_path / "ref.db", "sqlite"
        )
        db, pkl = tmp_path / "old.db", tmp_path / "old.pkl"
        system = build_populated(schema, history, db, "sqlite")
        system.refit(drift_data)
        system.config.warm_top_m = 2
        system.config.warm_patience = 1
        system.config.extra = {"note": "saved before the fields went"}
        save_system(system, pkl)
        system.store.close()

        loaded = load_system(pkl, store_path=db)
        config = loaded.config
        assert (config.warm_top_m, config.warm_patience) == (2, 1)
        assert config.extra == {"note": "saved before the fields went"}
        report = drain_stale_cells(loaded, warm_start=False)
        assert len(report.cells) == N_USERS
        assert loaded.store.contents_digest() == expected
        loaded.store.close()

    def test_drain_skips_unrecoverable_users_and_terminates(
        self, schema, history, drift_data, tmp_path
    ):
        from repro.constraints.evaluate import ConstraintsFunction

        system = build_populated(schema, history, tmp_path / "a.db", "sqlite")
        opaque = ConstraintsFunction(schema)
        opaque.add("gap <= 3")
        system.create_session("ghost", john_profile(), user_constraints=opaque)
        system.refit(drift_data)
        # a worker process loads its system with no live sessions
        system.sessions.clear()
        report = drain_stale_cells(system, warm_start=False)
        assert ("ghost", DRIFT_T) in report.skipped_cells
        assert ("ghost", DRIFT_T) in system.store.stale_cells(
            system.model_fingerprints
        )  # stays stale, surfaced — never silently dropped
        assert len(report.cells) == N_USERS
        assert system.store.lease_rows() == []  # skipped leases handed back

    def test_drain_waits_out_foreign_lease_and_recovers(
        self, schema, history, drift_data, tmp_path
    ):
        """Claim comes back empty while a crashed worker's lease is
        live: the drain must wait for expiry and reclaim, not exit with
        the cell still stale (the crash-recovery guarantee)."""
        from repro.db.store import CandidateStore

        db = tmp_path / "a.db"
        system = build_populated(schema, history, db, "sqlite")
        system.refit(drift_data)
        # a "crashed" worker holds every stale cell on a short lease
        crashed = CandidateStore(schema, db, backend="sqlite")
        victims = crashed.claim_stale_cells(
            system.model_fingerprints, "wDead", limit=99, lease_seconds=0.4
        )
        assert len(victims) == N_USERS
        crashed.close()  # dies without releasing
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            import time

            time.sleep(seconds)

        report = drain_stale_cells(
            system, warm_start=False, lease_seconds=0.4, sleep=sleep
        )
        assert sleeps  # it actually waited instead of exiting
        assert sorted(report.cells) == sorted(victims)
        assert system.store.stale_cells(system.model_fingerprints) == []

    def test_drain_max_cells_budget(
        self, schema, history, drift_data, tmp_path
    ):
        system = build_populated(schema, history, tmp_path / "a.db", "sqlite")
        system.refit(drift_data)
        report = drain_stale_cells(system, warm_start=False, max_cells=2)
        assert len(report.cells) == 2
        assert (
            len(system.store.stale_cells(system.model_fingerprints))
            == N_USERS - 2
        )

    def test_fast_compute_renews_only_before_and_after(
        self, schema, history, drift_data, tmp_path, monkeypatch
    ):
        """The per-round heartbeat renews a claim's leases only once a
        quarter of the lease has passed since their last renewal: a
        one-claim drain whose compute takes far less than that makes
        just the renewal before the compute and the one after it."""
        system = build_populated(schema, history, tmp_path / "a.db", "sqlite")
        system.refit(drift_data)
        stale = system.store.stale_cells(system.model_fingerprints)
        store = system.store
        calls = []
        real_renew = store.renew_leases

        def renew_leases(worker_id, cells, **kwargs):
            calls.append(len(cells))
            return real_renew(worker_id, cells, **kwargs)

        rounds = []
        real_fused = worker_module.generate_fused

        def counting_fused(cells, **kwargs):
            outcome, report = real_fused(cells, **kwargs)
            rounds.append(report.rounds)
            return outcome, report

        monkeypatch.setattr(store, "renew_leases", renew_leases)
        monkeypatch.setattr(worker_module, "generate_fused", counting_fused)
        report = drain_stale_cells(
            system, claim_batch=len(stale), lease_seconds=3600.0,
            warm_start=False,
        )
        monkeypatch.undo()
        assert len(rounds) == 1 and rounds[0] > 1  # one claim, many rounds
        assert calls == [len(stale), len(stale)]
        assert sorted(report.cells) == sorted(stale)
        assert report.lost_leases == 0
        system.store.close()


class TestWorkerPool:
    @pytest.mark.parametrize("backend", ["sqlite", "sharded"])
    def test_two_process_pool_matches_inline_refresh(
        self, schema, history, drift_data, tmp_path, backend
    ):
        """The acceptance invariant (also CI's worker-pool smoke)."""
        inline = build_populated(
            schema, history, tmp_path / "a.db", backend
        )
        inline.refresh(drift_data, warm_start=False)
        expected = inline.store.contents_digest()
        inline.store.close()

        db = tmp_path / "b.db"
        pkl = tmp_path / "b.pkl"
        pooled = build_populated(schema, history, db, backend)
        pooled.refit(drift_data)
        save_system(pooled, pkl)
        pooled.store.close()
        report = run_worker_pool(
            pkl, db, n_workers=2, db_backend=backend, warm_start=False
        )
        assert report.cells_recomputed == N_USERS
        assert not report.skipped_cells

        reopened = load_system(pkl, store_path=db, store_backend=backend)
        assert reopened.store.contents_digest() == expected
        assert (
            reopened.store.stale_cells(reopened.model_fingerprints) == []
        )
        assert reopened.store.lease_rows() == []

    def test_explicit_sharded_backend_opens_a_two_shard_store(
        self, schema, history, drift_data, tmp_path
    ):
        """``store_backend='sharded'`` without a shard count — how the
        CLI's ``--db-backend sharded`` and every pool worker open the
        store — must use the on-disk count, not a default of 4."""
        expected = reference_digest(
            schema, history, drift_data, tmp_path / "ref.db", "sharded",
            n_shards=2,
        )
        db, pkl = tmp_path / "b.db", tmp_path / "b.pkl"
        system = build_populated(schema, history, db, "sharded", n_shards=2)
        system.refit(drift_data)
        save_system(system, pkl)
        system.store.close()

        reopened = load_system(pkl, store_path=db, store_backend="sharded")
        assert reopened.store.backend.n_shards == 2
        reopened.store.close()
        # a count that disagrees with the disk still refuses to open
        with pytest.raises(StorageError, match="2 shard files"):
            CandidateStore(schema, db, backend="sharded", n_shards=4)

        report = run_worker_pool(
            pkl, db, n_workers=2, db_backend="sharded", warm_start=False
        )
        assert report.cells_recomputed == N_USERS
        reopened = load_system(pkl, store_path=db, store_backend="sharded")
        assert reopened.store.contents_digest() == expected
        reopened.store.close()

    def test_pool_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(StorageError, match="n_workers"):
            run_worker_pool(tmp_path / "x.pkl", tmp_path / "x.db", n_workers=0)


class TestWorkersCli:
    def test_refresh_workers_flow(self, tmp_path, capsys):
        from repro.app.cli import main

        pkl = tmp_path / "sys.pkl"
        db = tmp_path / "cands.db"
        assert main(
            ["--n-per-year", "60", "--horizon", "1", "--db", str(db),
             "admin", "--save", str(pkl)]
        ) == 0
        assert main(["--load", str(pkl), "--db", str(db), "quickstart"]) == 0
        capsys.readouterr()
        assert main(
            ["--load", str(pkl), "--db", str(db), "refresh-workers",
             "--workers", "2", "--new-n", "40", "--cold"]
        ) == 0
        out = capsys.readouterr().out
        assert "worker processes" in out
        assert "store digest: " in out

    def test_refresh_workers_requires_load_and_db(self, capsys):
        from repro.app.cli import main

        assert main(["refresh-workers"]) == 2
        assert "--load" in capsys.readouterr().out
