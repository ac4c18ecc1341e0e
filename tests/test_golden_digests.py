"""Golden store digests: absolute ``contents_digest`` values for a small
canonical set of workloads.

Every other identity test in the suite is *relative* (one path equals a
reference path).  These pin the outputs themselves, so a change that
moves both sides of a relative check at once still shows up here.

Pinned cases (all forest-backed; the linear ``weights`` strategy is
deliberately absent):

* the fused-engine workload of ``tests/test_fused_engine.py`` after
  ``create_sessions``, and after a cold and a warm ``refresh``;
* the fault-injection workload of ``tests/test_fault_injection.py``
  after an uninterrupted ``drain_stale_cells``, on sqlite and on the
  sharded backend;
* John's running example as the CLI ``quickstart`` builds it;
* the stdout of ``examples/five_rejected_applicants.py`` (the §III
  demo), run in-process with the example's arguments;
* one ``RefreshOrchestrator`` epoch under strategy ``last`` over a
  scripted drift batch, drained by one worker process under one
  whole-epoch claim on the sharded store, as the repo benchmark's cohort
  cycle runs it: the refit's model fingerprints and the store after the
  epoch.

The digests hash float ``repr``s, so they are platform data: they were
captured with Python 3.11.7 and NumPy 2.4.6.  To regenerate, run the
workloads and edit the constants below; there is no switch for it.
"""

import hashlib
import io

import numpy as np
import pytest

from repro.app.cli import build_system, make_parser, run_demo
from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime, drain_stale_cells
from repro.core.orchestrator import RefreshOrchestrator
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    make_lending_dataset,
)
from repro.data.feed import IteratorFeed
from repro.temporal import PerPeriodStrategy, lending_update_function

FUSED_WORKLOAD = {
    "create_sessions": "ac603e8ddd6fd84b058806e2de6f25a04298bd4cfa782f4116dde2097d6e7187",
    "refresh_cold": "c4b31ebb9031298b1428a259221dd01b234cf90ec2f3825536874625a5a91ae5",
    "refresh_warm": "66c54bbcd9daa5c8b2b7ba90e313e31dfbff76a10b3c26e5e9b3ffed8a508f80",
}
FAULT_WORKLOAD_DRAIN = {
    "sqlite": "1fc540a4d057e0405d1895935cc227cf3d283b1e37886b59b3cbf79fdb2c894e",
    "sharded": "1fc540a4d057e0405d1895935cc227cf3d283b1e37886b59b3cbf79fdb2c894e",
}
JOHN_QUICKSTART = "910148c9301efb781169b7b455ddd55761a9a6976994e53bff25b5d11861c55b"
#: SHA-256 of the demo's stdout, not a store digest
FIVE_REJECTED_DEMO = "6b9ebb0ce1a4ba5dcdce4592fd234c7ca30d923feb550d54f62ec06768c9fa28"
#: the refit's ``model_fingerprints`` and the store digest after the epoch
ORCHESTRATOR_EPOCH = {
    "fingerprints": {t: "3f7c25ef708781b2" for t in range(3)},
    "digest": "3b66105d02261bd9b852d70ef449afd4bf1afedc5e476e60c4c744e0fdcdb03e",
}


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=60, random_state=1)


def drift(history, n, scale):
    start = float(np.floor(history.span[0]))
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(n) * scale
    years = np.full(n, start + 1.5)
    return TemporalDataset(X, generator.label(X, years), years, history.schema)


def fused_workload_system(schema, history, db, warm):
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=3,
            strategy=PerPeriodStrategy(),
            k=4,
            beam_width=6,
            max_iter=8,
            patience=3,
            random_state=11,
            warm_start=warm,
        ),
        domain_constraints=lending_domain_constraints(schema),
        store_path=db,
        store_backend="sqlite",
    )
    system.fit(history)
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    users = []
    for i in range(8):
        profile = base.copy()
        profile[1] += float(rng.integers(0, 3) * 1000)
        users.append(
            (f"user-{i:02d}", profile, ["monthly_debt <= 900"] if i % 2 else None)
        )
    system.create_sessions(users)
    return system


class TestFusedWorkload:
    def test_create_sessions(self, schema, history, tmp_path):
        system = fused_workload_system(schema, history, tmp_path / "c.db", False)
        assert system.store.contents_digest() == FUSED_WORKLOAD["create_sessions"]
        system.store.close()

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_refresh(self, schema, history, tmp_path, warm):
        system = fused_workload_system(schema, history, tmp_path / "c.db", warm)
        system.refresh(drift(history, 50, 1.0))
        key = "refresh_warm" if warm else "refresh_cold"
        assert system.store.contents_digest() == FUSED_WORKLOAD[key]
        system.store.close()


@pytest.mark.parametrize("backend", ["sqlite", "sharded"])
def test_fault_workload_drain(schema, history, tmp_path, backend):
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=2, strategy=PerPeriodStrategy(), k=4, max_iter=8, random_state=0
        ),
        domain_constraints=lending_domain_constraints(schema),
        store_path=tmp_path / "c.db",
        store_backend=backend,
        n_shards=4,
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
            for i in range(4)
        ]
    )
    system.refit(drift(history, 40, 3.0))
    drain_stale_cells(system, warm_start=False, clock=lambda: 1000.0)
    assert system.store.stale_cells(system.model_fingerprints) == []
    assert system.store.contents_digest() == FAULT_WORKLOAD_DRAIN[backend]
    system.store.close()


def test_john_quickstart():
    system = build_system(n_per_year=60)
    system.create_session(
        "john",
        john_profile(),
        user_constraints=["annual_income <= base_annual_income * 1.2"],
    )
    assert system.store.contents_digest() == JOHN_QUICKSTART


def test_five_rejected_applicants_demo():
    args = make_parser().parse_args(
        ["--n-per-year", "150", "--horizon", "3", "--alpha", "0.55", "demo"]
    )
    out = io.StringIO()
    run_demo(args, out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == FIVE_REJECTED_DEMO


def test_orchestrator_epoch_last(schema, history, tmp_path):
    db = tmp_path / "c.db"
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=2,
            strategy="last",
            k=4,
            beam_width=6,
            max_iter=8,
            patience=3,
            random_state=11,
        ),
        domain_constraints=lending_domain_constraints(schema),
        store_path=str(db),
        store_backend="sharded",
    )
    system.fit(history)
    rng = np.random.default_rng(5)
    base = schema.vector(john_profile())
    users = [
        (
            f"user-{i:02d}",
            schema.clip(base * rng.uniform(0.9, 1.1, size=base.size)),
            ["monthly_debt <= 900"] if i % 2 else None,
        )
        for i in range(4)
    ]
    system.create_sessions(users)
    # arrivals at the latest timestamp: under ``last`` they retrain the
    # one model every time point shares, so every cell goes stale
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(30)
    years = np.full(30, float(history.span[1]))
    batch = TemporalDataset(X, generator.label(X, years), years, history.schema)
    n_cells = len(users) * 3
    orchestrator = RefreshOrchestrator(
        system,
        IteratorFeed([batch]),
        system_path=tmp_path / "system.pkl",
        db_path=db,
        db_backend="sharded",
        n_workers=1,
        cadence=0.0,
        claim_batch=n_cells,
    )
    epochs = orchestrator.run(max_epochs=1)
    assert len(epochs) == 1
    assert epochs[0].report.cells_recomputed == n_cells
    assert system.model_fingerprints == ORCHESTRATOR_EPOCH["fingerprints"]
    assert system.store.stale_cells(system.model_fingerprints) == []
    assert system.store.contents_digest() == ORCHESTRATOR_EPOCH["digest"]
    assert epochs[0].report.store_digest == ORCHESTRATOR_EPOCH["digest"]
    system.store.close()
