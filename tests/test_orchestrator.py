"""Refresh orchestrator tests: the unified drift → refit → pool loop.

The load-bearing invariants:

* an orchestrated run (CsvFeed ingest → drift-gated epoch → refit →
  N-worker drain) leaves the store byte-identical to a one-shot
  ``JustInTime.refresh()`` over the merged stream;
* a killed orchestrator resumes from its atomic checkpoint without
  re-ingesting feed rows or recomputing finished cells.
"""

import numpy as np
import pytest

from repro.constraints import lending_domain_constraints
from repro.core import (
    AdminConfig,
    DriftGate,
    JustInTime,
    RefreshOrchestrator,
    drain_stale_cells,
    load_system,
    save_system,
)
from repro.data import (
    CsvFeed,
    IteratorFeed,
    LendingGenerator,
    TemporalDataset,
    john_profile,
    make_lending_dataset,
    save_csv,
)
from repro.exceptions import StorageError
from repro.temporal import PerPeriodStrategy, lending_update_function

DRIFT_T = 1
N_USERS = 4


class OrchestratorKilled(RuntimeError):
    """Raised by the fault hook to simulate the process dying."""


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=60, random_state=1)


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


def make_batch(schema, history, n, *, seed=99, scale=1.0, year_offset=None):
    start = float(np.floor(history.span[0]))
    offset = DRIFT_T + 0.5 if year_offset is None else year_offset
    generator = LendingGenerator(random_state=seed)
    X = generator.sample_profiles(n) * scale
    years = np.full(n, start + offset)
    return TemporalDataset(X, generator.label(X, years), years, schema)


def build_state(schema, history, workdir, backend="sqlite"):
    """One saved service state: populated store + system pickle."""
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=2, strategy=PerPeriodStrategy(), k=4, max_iter=8, random_state=0
        ),
        domain_constraints=lending_domain_constraints(schema),
        store_path=workdir / "cands.db",
        store_backend=backend,
    )
    system.fit(history)
    system.create_sessions(make_users(schema))
    save_system(system, workdir / "sys.pkl")
    system.store.close()
    return workdir / "sys.pkl", workdir / "cands.db"


def append_rows(path, batch, tmp_path):
    """Append ``batch`` to the feed CSV (header only when new)."""
    scratch = tmp_path / "scratch.csv"
    save_csv(batch, scratch)
    text = scratch.read_text()
    if path.exists():
        text = text.split("\n", 1)[1]
    with path.open("a", newline="") as handle:
        handle.write(text)


def oneshot_digest(schema, history, workdir, batches):
    """Reference digest: single-process refresh over the merged stream,
    epoch by epoch (multi-epoch == one-shot is proven elsewhere; here
    each orchestrator epoch is compared against its refresh twin)."""
    pkl, db = build_state(schema, history, workdir)
    system = load_system(pkl, store_path=db)
    system.resume_sessions()
    for batch in batches:
        system.refresh(batch, warm_start=False)
    digest = system.store.contents_digest()
    system.store.close()
    return digest


class TestOrchestratedRun:
    def test_feed_to_drain_matches_oneshot_refresh(
        self, schema, history, tmp_path
    ):
        """CsvFeed ingest → drift epoch → refit → 2-worker drain, twice,
        equals single-process refreshes of the same stream."""
        work = tmp_path / "orch"
        work.mkdir()
        pkl, db = build_state(schema, history, work)
        batches = [
            make_batch(schema, history, 40, seed=5, scale=3.0),
            make_batch(schema, history, 30, seed=6, scale=0.4),
        ]
        feed_csv = work / "feed.csv"
        system = load_system(pkl, store_path=db)
        feed = CsvFeed(feed_csv, schema)
        # the reference refresh must see the same CSV-round-tripped
        # values the orchestrator ingests (save_csv writes 6 significant
        # digits), so re-parse each appended batch through its own reader
        reader = CsvFeed(feed_csv, schema)
        orchestrator = RefreshOrchestrator(
            system,
            feed,
            system_path=pkl,
            db_path=db,
            n_workers=2,
            gate=DriftGate(mmd_threshold=0.25),
            max_pending_rows=200,
            warm_start=False,
        )
        append_rows(feed_csv, batches[0], tmp_path)
        parsed = [reader.poll()]
        first = orchestrator.poll_once()
        assert first is not None and first.trigger == "drift"
        outcome = first.report
        assert DRIFT_T in outcome.stale_times
        assert outcome.rows == 40
        assert outcome.cells_recomputed >= N_USERS  # every session's cell
        assert outcome.feed_offset == feed_csv.stat().st_size
        append_rows(feed_csv, batches[1], tmp_path)
        parsed.append(reader.poll())
        second = orchestrator.poll_once()
        assert second is not None and second.trigger == "drift"
        assert orchestrator.epochs_completed == 2
        assert system.store.stale_cells(system.model_fingerprints) == []
        assert system.store.lease_rows() == []

        digest = system.store.contents_digest()
        system.store.close()
        ref = tmp_path / "ref"
        ref.mkdir()
        assert digest == oneshot_digest(schema, history, ref, parsed)
        # the final checkpoint on disk records the same digest
        reloaded = load_system(pkl)
        assert reloaded.saved_extra["orchestrator"]["store_digest"] == digest
        assert reloaded.saved_extra["feed_offset"] == feed_csv.stat().st_size

    def test_killed_orchestrator_resumes_without_reingest_or_recompute(
        self, schema, history, tmp_path
    ):
        """Kill after the pre-drain checkpoint (models refit, cursor
        advanced, ledger fully stale), partially drain as a dying pool
        would, then restart: recovery recomputes only the unfinished
        cells, re-ingests nothing, and the digest matches one-shot."""
        work = tmp_path / "orch"
        work.mkdir()
        pkl, db = build_state(schema, history, work)
        batch = make_batch(schema, history, 40, seed=5, scale=3.0)
        feed_csv = work / "feed.csv"
        append_rows(feed_csv, batch, tmp_path)
        parsed = CsvFeed(feed_csv, schema).poll()

        def kill(stage):
            if stage == "epoch-saved":
                raise OrchestratorKilled(stage)

        system = load_system(pkl, store_path=db)
        orchestrator = RefreshOrchestrator(
            system,
            CsvFeed(feed_csv, schema),
            system_path=pkl,
            db_path=db,
            n_workers=2,
            gate=DriftGate(mmd_threshold=0.25),
            warm_start=False,
            fault_hook=kill,
        )
        with pytest.raises(OrchestratorKilled):
            orchestrator.poll_once()
        assert orchestrator.epochs_completed == 0
        system.store.close()

        # the checkpoint on disk: refit models + advanced cursor, phase
        # 'draining'; the whole ledger is stale
        saved = load_system(pkl, store_path=db)
        assert saved.saved_extra["feed_offset"] == feed_csv.stat().st_size
        assert saved.saved_extra["orchestrator"]["phase"] == "draining"
        stale = saved.store.stale_cells(saved.model_fingerprints)
        assert len(stale) >= N_USERS
        history_rows = len(saved._history)
        # a dying pool finished two cells before the machine went down
        drain_stale_cells(saved, max_cells=2, warm_start=False)
        saved.store.close()

        resumed_system = load_system(pkl, store_path=db)
        resumed_feed = CsvFeed(
            feed_csv,
            schema,
            start_offset=int(resumed_system.saved_extra["feed_offset"]),
        )
        resumed = RefreshOrchestrator(
            resumed_system,
            resumed_feed,
            system_path=pkl,
            db_path=db,
            n_workers=2,
            gate=DriftGate(mmd_threshold=0.25),
            warm_start=False,
        )
        epochs = resumed.run(max_polls=2, poll_interval=0.0)
        # recovery drained the leftovers; no new feed rows → no epochs
        assert epochs == []
        assert resumed.last_recovery is not None
        assert resumed.last_recovery.cells_recomputed == len(stale) - 2
        assert resumed.epochs_completed == 1
        # nothing was re-ingested: history unchanged, cursor unchanged
        assert len(resumed_system._history) == history_rows
        assert resumed_feed.offset == feed_csv.stat().st_size
        digest = resumed_system.store.contents_digest()
        assert (
            resumed_system.store.stale_cells(
                resumed_system.model_fingerprints
            )
            == []
        )
        resumed_system.store.close()
        ref = tmp_path / "ref"
        ref.mkdir()
        assert digest == oneshot_digest(schema, history, ref, [parsed])

    def test_kill_between_drain_and_final_checkpoint(
        self, schema, history, tmp_path
    ):
        """Dying after the pool finished but before the idle checkpoint
        only costs rewriting the checkpoint on restart."""
        work = tmp_path / "orch"
        work.mkdir()
        pkl, db = build_state(schema, history, work)
        batch = make_batch(schema, history, 40, seed=5, scale=3.0)
        feed_csv = work / "feed.csv"
        append_rows(feed_csv, batch, tmp_path)

        def kill(stage):
            if stage == "epoch-complete":
                raise OrchestratorKilled(stage)

        system = load_system(pkl, store_path=db)
        orchestrator = RefreshOrchestrator(
            system,
            CsvFeed(feed_csv, schema),
            system_path=pkl,
            db_path=db,
            n_workers=1,
            gate=DriftGate(mmd_threshold=0.25),
            warm_start=False,
            fault_hook=kill,
        )
        with pytest.raises(OrchestratorKilled):
            orchestrator.poll_once()
        digest = system.store.contents_digest()
        system.store.close()

        resumed_system = load_system(pkl, store_path=db)
        resumed = RefreshOrchestrator(
            resumed_system,
            CsvFeed(
                feed_csv,
                schema,
                start_offset=int(resumed_system.saved_extra["feed_offset"]),
            ),
            system_path=pkl,
            db_path=db,
            n_workers=1,
            gate=DriftGate(mmd_threshold=0.25),
            warm_start=False,
        )
        assert resumed.recover() is None  # nothing left to drain
        assert resumed_system.store.contents_digest() == digest
        resumed_system.store.close()

    def test_unrecoverable_stale_cells_do_not_trigger_recovery(
        self, schema, history, tmp_path
    ):
        """Stale cells of users with no resumable session spec cannot be
        computed by any pool; startup must not treat them as an
        interrupted drain (dispatching a do-nothing pool and bumping the
        epoch counter on every restart)."""
        from repro.constraints.evaluate import ConstraintsFunction

        work = tmp_path / "orch"
        work.mkdir()
        pkl, db = build_state(schema, history, work)
        system = load_system(pkl, store_path=db)
        system.resume_sessions()
        # a user whose constraints are opaque (not serialisable): the
        # persisted spec carries texts=None, so no worker can recompute
        opaque = ConstraintsFunction(schema, [])
        system.create_session(
            "opaque-user",
            schema.vector(john_profile()),
            user_constraints=opaque,
        )
        system.store.clear_user("opaque-user", time=0)  # stale forever
        save_system(system, pkl)
        stale = system.store.stale_cells(system.model_fingerprints)
        assert ("opaque-user", 0) in stale
        orchestrator = RefreshOrchestrator(
            system,
            IteratorFeed([]),
            system_path=pkl,
            db_path=db,
            n_workers=1,
            cadence=0.0,
        )
        assert orchestrator.recover() is None
        assert orchestrator.epochs_completed == 0
        # run() does not re-run recovery after an explicit recover()
        orchestrator.run(max_polls=1, poll_interval=0.0)
        assert orchestrator.epochs_completed == 0
        system.store.close()

    def test_iterator_feed_has_no_checkpoint(self, schema, history, tmp_path):
        """Non-resumable feeds still orchestrate (the checkpoint simply
        carries no cursor), and the epoch's store digest is recorded."""
        work = tmp_path / "orch"
        work.mkdir()
        pkl, db = build_state(schema, history, work)
        system = load_system(pkl, store_path=db)
        batch = make_batch(schema, history, 40, seed=5, scale=3.0)
        orchestrator = RefreshOrchestrator(
            system,
            IteratorFeed([batch]),
            system_path=pkl,
            db_path=db,
            n_workers=1,
            cadence=0.0,
            warm_start=False,
        )
        epochs = orchestrator.run(max_polls=2, poll_interval=0.0)
        assert len(epochs) == 1
        assert epochs[0].report.feed_offset is None
        digest = system.store.contents_digest()
        assert epochs[0].report.store_digest == digest
        saved = load_system(pkl).saved_extra
        assert "feed_offset" not in saved
        assert saved["orchestrator"]["store_digest"] == digest
        assert system.store.stale_cells(system.model_fingerprints) == []
        system.store.close()


class TestValidation:
    def test_memory_store_rejected(self, schema, history, tmp_path):
        system = JustInTime(
            schema,
            lending_update_function(schema),
            AdminConfig(T=1, strategy="last", random_state=0),
        )
        with pytest.raises(StorageError, match="file-backed"):
            RefreshOrchestrator(
                system,
                IteratorFeed([]),
                system_path=tmp_path / "sys.pkl",
                db_path=tmp_path / "cands.db",
                cadence=0.0,
            )

    def test_worker_count_validated(self, schema, history, tmp_path):
        work = tmp_path / "orch"
        work.mkdir()
        pkl, db = build_state(schema, history, work)
        system = load_system(pkl, store_path=db)
        with pytest.raises(StorageError, match="n_workers"):
            RefreshOrchestrator(
                system,
                IteratorFeed([]),
                system_path=pkl,
                db_path=db,
                n_workers=0,
                cadence=0.0,
            )
        system.store.close()


class TestOrchestratorCli:
    def test_end_to_end_verb(self, schema, history, tmp_path, capsys):
        from repro.app.cli import main

        pkl = tmp_path / "sys.pkl"
        db = tmp_path / "cands.db"
        feed = tmp_path / "feed.csv"
        assert main(
            ["--n-per-year", "60", "--horizon", "1", "--db", str(db),
             "admin", "--save", str(pkl)]
        ) == 0
        assert main(["--load", str(pkl), "--db", str(db), "quickstart"]) == 0
        save_csv(
            make_batch(schema, history, 30, seed=5, scale=2.0, year_offset=0.5),
            feed,
        )
        capsys.readouterr()
        args = ["--load", str(pkl), "--db", str(db), "refresh-orchestrator",
                "--feed", str(feed), "--cadence", "0", "--poll-interval", "0",
                "--max-polls", "3", "--workers", "2", "--cold"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "epoch 0: trigger=cadence" in out
        assert "orchestrator stopped after 1 epochs" in out
        assert "store digest:" in out
        # restart with no new rows: nothing re-ingested, nothing to do
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"from byte {feed.stat().st_size}" in out
        assert "orchestrator stopped after 0 epochs" in out
        # interleaving another operator verb must not wipe the
        # orchestrator's feed cursor from the shared save file
        assert main(["--load", str(pkl), "--db", str(db), "refresh",
                     "--new-n", "20", "--cold"]) == 0
        assert (
            load_system(pkl).saved_extra["feed_offset"]
            == feed.stat().st_size
        )

    def test_switching_feed_files_resets_the_cursor(
        self, schema, history, tmp_path, capsys
    ):
        """The checkpointed byte offset belongs to one feed file;
        pointing the verb at a *different* feed must start that file
        from byte 0 instead of skipping its head (or crashing on the
        truncation guard when the new file is smaller)."""
        from repro.app.cli import main

        pkl = tmp_path / "sys.pkl"
        db = tmp_path / "cands.db"
        feed_a = tmp_path / "a.csv"
        feed_b = tmp_path / "b.csv"
        main(["--n-per-year", "60", "--horizon", "1", "--db", str(db),
              "admin", "--save", str(pkl)])
        main(["--load", str(pkl), "--db", str(db), "quickstart"])
        save_csv(
            make_batch(schema, history, 30, seed=5, scale=2.0, year_offset=0.5),
            feed_a,
        )
        # b is smaller than a's final offset — the truncation guard
        # would reject it if the stale cursor were applied
        save_csv(
            make_batch(schema, history, 5, seed=6, year_offset=0.5), feed_b
        )
        assert feed_b.stat().st_size < feed_a.stat().st_size
        base = ["--load", str(pkl), "--db", str(db), "refresh-orchestrator",
                "--cadence", "0", "--poll-interval", "0", "--max-polls", "2",
                "--workers", "1", "--cold", "--feed"]
        assert main([*base, str(feed_a)]) == 0
        capsys.readouterr()
        assert main([*base, str(feed_b)]) == 0
        out = capsys.readouterr().out
        assert "from byte 0" in out
        assert "rows=5" in out

    def test_verb_requires_some_gate(self, tmp_path, capsys):
        from repro.app.cli import main

        pkl = tmp_path / "sys.pkl"
        db = tmp_path / "cands.db"
        main(["--n-per-year", "60", "--horizon", "1", "--db", str(db),
              "admin", "--save", str(pkl)])
        capsys.readouterr()
        assert main(
            ["--load", str(pkl), "--db", str(db), "refresh-orchestrator",
             "--feed", str(tmp_path / "feed.csv")]
        ) == 2
        assert "--cadence" in capsys.readouterr().out
        # a non-merged gate mode without a drift threshold is a clean
        # usage error, not a ForecastError traceback
        assert main(
            ["--load", str(pkl), "--db", str(db), "refresh-orchestrator",
             "--feed", str(tmp_path / "feed.csv"), "--cadence", "5",
             "--gate-mode", "batch"]
        ) == 2
        assert "--gate-mode batch needs" in capsys.readouterr().out

    def test_verb_requires_load_and_db(self, capsys):
        from repro.app.cli import main

        assert main(["refresh-orchestrator", "--feed", "x.csv"]) == 2
        assert "--load" in capsys.readouterr().out
