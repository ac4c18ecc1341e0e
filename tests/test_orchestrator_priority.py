"""Budgeted, SLA-escalated orchestrator epochs, end to end.

``tests/test_priority_refresh.py`` pins the claim scan's priority,
escalation and budget semantics on the store alone.  This suite runs
them through :class:`RefreshOrchestrator`: the epoch prologue folds the
access log and arms the budget, the pool drains in priority order, the
epoch's freshness report describes the store as the drain left it, and
the checkpointed carry-over and stale-since state survive a rebuilt
orchestrator, whose next epoch escalates the cells the first one
deferred.  Cells deferred by a spent budget are not an interrupted
drain, so restarting over them recovers nothing.
"""

import numpy as np
import pytest

import repro.core.orchestrator as orchestrator_module
from repro.constraints import lending_domain_constraints
from repro.core import (
    AdminConfig,
    JustInTime,
    RefreshOrchestrator,
    load_system,
    save_system,
)
from repro.data import (
    IteratorFeed,
    LendingGenerator,
    TemporalDataset,
    john_profile,
    make_lending_dataset,
)
from repro.temporal import PerPeriodStrategy, lending_update_function

DRIFT_T = 1
N_USERS = 6
BUDGET = 2
HALFLIFE = 3600.0


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=60, random_state=1)


def make_batch(schema, history, *, seed):
    """A drifted batch that re-fits the ``DRIFT_T`` model only."""
    start = float(np.floor(history.span[0]))
    generator = LendingGenerator(random_state=seed)
    X = generator.sample_profiles(40) * 3.0
    years = np.full(40, start + DRIFT_T + 0.5)
    return TemporalDataset(X, generator.label(X, years), years, schema)


def build_state(schema, history, workdir):
    """A file-backed store of ``N_USERS`` sessions + the saved pickle."""
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=2, strategy=PerPeriodStrategy(), k=4, max_iter=8, random_state=0
        ),
        domain_constraints=lending_domain_constraints(schema),
        store_path=workdir / "cands.db",
        store_backend="sqlite",
    )
    system.fit(history)
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    system.create_sessions(
        [
            (
                f"user-{i:02d}",
                schema.clip(base * rng.uniform(0.8, 1.2, size=base.size)),
                ["annual_income <= base_annual_income * 1.3"],
            )
            for i in range(N_USERS)
        ]
    )
    save_system(system, workdir / "sys.pkl")
    return system, workdir / "sys.pkl", workdir / "cands.db"


def orchestrator(system, batch, pkl, db):
    return RefreshOrchestrator(
        system,
        IteratorFeed([batch]),
        system_path=pkl,
        db_path=db,
        n_workers=1,
        cadence=0.0,
        warm_start=False,
        budget=BUDGET,
        sla_epochs=1,
        priority_halflife=HALFLIFE,
    )


def drained(outcome):
    return [cell for worker in outcome.pool.workers for cell in worker.cells]


def test_budgeted_epochs_drain_by_priority_and_escalate_deferred_cells(
    schema, history, tmp_path
):
    system, pkl, db = build_state(schema, history, tmp_path)
    store = system.store
    # skewed traffic: user-03 is hot (four fresh reads), user-01 and
    # user-05 are warm (one read each, two and three half-lives old),
    # everyone else is cold
    now = store.clock_now()
    store.record_accesses(
        [("user-03", "bundle", None)] * 4
        + [
            ("user-01", "q1", now - 2 * HALFLIFE),
            ("user-05", "q6", now - 3 * HALFLIFE),
        ]
    )

    first = orchestrator(system, make_batch(schema, history, seed=99), pkl, db)
    epochs = first.run(max_polls=2, poll_interval=0.0)
    assert len(epochs) == 1
    outcome = epochs[0].report
    assert outcome.stale_times == (DRIFT_T,)
    # the budget (2) is below the stale-cell count (6): exactly the two
    # highest-priority users' cells are recomputed, hottest first
    assert drained(outcome) == [("user-03", DRIFT_T), ("user-01", DRIFT_T)]
    deferred = [(f"user-{i:02d}", DRIFT_T) for i in (0, 2, 4, 5)]
    fingerprints = system.model_fingerprints
    assert store.stale_cells(fingerprints) == deferred
    freshness = outcome.freshness
    assert freshness["drained_by_tier"] == {"hot": 1, "warm": 1, "cold": 0}
    assert freshness["sla_violations"] == 0
    assert freshness["budget"] == {
        "budget": BUDGET,
        "remaining": 0,
        "carryover": first.carryover,
    }
    assert freshness["traffic_weighted"] == store.traffic_weighted_freshness(
        fingerprints
    )
    assert freshness["traffic_weighted"]["stale_cells"] == len(deferred)
    assert isinstance(outcome.store_digest, str)
    store.close()

    # a rebuilt orchestrator resumes from the saved pickle's state
    reloaded = load_system(pkl, store_path=db)
    second = orchestrator(
        reloaded, make_batch(schema, history, seed=5), pkl, db
    )
    assert second.epochs_completed == 1
    assert second.carryover == first.carryover
    epoch = second.poll_once()
    assert epoch is not None
    outcome = epoch.report
    assert outcome.stale_times == (DRIFT_T,)
    store = reloaded.store
    scores = store.user_priorities()
    # the refit re-staled every user's cell; the four epoch 1 deferred
    # are past their one-epoch SLA and escalated, so they drain ahead of
    # the hot user-03 and the warm user-01 (in score, then user order)
    assert scores["user-03"] > scores["user-01"] > scores["user-05"] > 0
    assert drained(outcome) == [("user-05", DRIFT_T), ("user-00", DRIFT_T)]
    fingerprints = reloaded.model_fingerprints
    assert store.stale_cells(fingerprints) == [
        (f"user-{i:02d}", DRIFT_T) for i in (1, 2, 3, 4)
    ]
    freshness = outcome.freshness
    assert freshness["drained_by_tier"] == {"hot": 0, "warm": 1, "cold": 1}
    # two escalated cells (user-02, user-04) are still stale
    assert freshness["sla_violations"] == 2
    assert freshness["budget"] == {
        "budget": BUDGET,
        "remaining": 0,
        "carryover": second.carryover,
    }
    assert freshness["traffic_weighted"] == store.traffic_weighted_freshness(
        fingerprints
    )
    store.close()


def test_restarts_after_a_spent_budget_run_no_recovery_drain(
    schema, history, tmp_path, monkeypatch
):
    """Cells a budgeted epoch deferred are not an interrupted drain:
    with the durable budget row at 0, a restart has nothing to recover,
    so it dispatches no pool and counts no epoch."""
    system, pkl, db = build_state(schema, history, tmp_path)
    first = orchestrator(system, make_batch(schema, history, seed=99), pkl, db)
    assert len(first.run(max_polls=2, poll_interval=0.0)) == 1
    assert len(system.store.stale_cells(system.model_fingerprints)) == 4
    assert system.store.refresh_budget_remaining() == 0
    system.store.close()

    def no_pool(*args, **kwargs):
        raise AssertionError("recovery dispatched a worker pool")

    monkeypatch.setattr(orchestrator_module, "run_worker_pool", no_pool)
    for _ in range(2):
        reloaded = load_system(pkl, store_path=db)
        restarted = RefreshOrchestrator(
            reloaded,
            IteratorFeed([]),
            system_path=pkl,
            db_path=db,
            n_workers=1,
            cadence=0.0,
            warm_start=False,
            budget=BUDGET,
            sla_epochs=1,
            priority_halflife=HALFLIFE,
        )
        assert restarted.run(max_polls=1, poll_interval=0.0) == []
        assert restarted.last_recovery is None
        assert restarted.epochs_completed == 1
        assert reloaded.saved_extra["orchestrator"]["epochs"] == 1
        reloaded.store.close()
