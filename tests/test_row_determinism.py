"""Row determinism: a row's decision score must not depend on its batch.

The fused engine scores the proposal rows of many cells through one
``decision_score`` call per ``(t, model)`` group, so which rows share a
call depends on how many cells run together.  Its candidates equal the
per-cell search only if every supported scorer returns, for each row,
the same bits whether the row is scored alone, in a full batch or in a
permuted one.  This file pins that contract for every model class the
system can search against, and checks end to end that the linear
``weights`` strategy gives the same store whether users are onboarded
together, one by one, or one cell at a time.
"""

import numpy as np
import pytest

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, FusedCell, JustInTime, generate_fused
from repro.data import LendingGenerator, make_lending_dataset
from repro.ml import (
    CalibratedClassifier,
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    RandomForestClassifier,
    StandardScaler,
)
from repro.temporal import ModelsGenerator, lending_update_function

from cell_reference import reference_create_sessions


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=60, random_state=1)


@pytest.fixture(scope="module")
def rows(history):
    """Training rows plus jittered copies: 300 rows, many near splits."""
    rng = np.random.default_rng(0)
    X = history.X[:150]
    jitter = X * (1.0 + rng.normal(0.0, 0.05, size=X.shape))
    return np.vstack([X, jitter])


def _standardised_logistic(history):
    scaler = StandardScaler().fit(history.X)
    inner = LogisticRegression(max_iter=200).fit(
        scaler.transform(history.X), history.y
    )

    class Standardised:
        def decision_score(self, X):
            return inner.decision_score(scaler.transform(X))

    return Standardised()


SCORERS = {
    "tree": lambda h: DecisionTreeClassifier(max_depth=6, random_state=0).fit(
        h.X, h.y
    ),
    "forest": lambda h: RandomForestClassifier(
        n_estimators=8, max_depth=6, random_state=0
    ).fit(h.X, h.y),
    "logistic": _standardised_logistic,
    "boosting": lambda h: GradientBoostingClassifier(
        n_estimators=20, max_depth=3, random_state=0
    ).fit(h.X, h.y),
    "calibrated": lambda h: CalibratedClassifier(
        RandomForestClassifier(n_estimators=8, max_depth=6, random_state=0)
    ).fit(h.X, h.y),
    "weights": lambda h: ModelsGenerator(
        T=2, strategy="weights", random_state=0
    ).generate(h)[2].model,
}


@pytest.mark.parametrize("name", sorted(SCORERS))
def test_scores_do_not_depend_on_batch(history, rows, name):
    model = SCORERS[name](history)
    full = np.asarray(model.decision_score(rows), dtype=float)
    alone = np.array(
        [float(model.decision_score(rows[i : i + 1])[0]) for i in range(len(rows))]
    )
    perm = np.random.default_rng(1).permutation(len(rows))
    permuted = np.asarray(model.decision_score(rows[perm]), dtype=float)
    assert alone.tobytes() == full.tobytes()
    assert permuted.tobytes() == full[perm].tobytes()


class TestWeightsStrategyGrouping:
    """Under the linear ``weights`` strategy, a user's candidates must
    not depend on which other users' cells shared their scoring calls."""

    N_USERS = 40

    @pytest.fixture(scope="class")
    def users(self, schema):
        profiles = LendingGenerator(random_state=5).sample_profiles(self.N_USERS)
        return [
            (f"u{i:02d}", schema.clip(x)) for i, x in enumerate(profiles)
        ]

    def build(self, schema, history, db):
        system = JustInTime(
            schema,
            lending_update_function(schema),
            AdminConfig(
                T=2,
                strategy="weights",
                k=3,
                beam_width=4,
                max_iter=5,
                patience=2,
                random_state=3,
            ),
            domain_constraints=lending_domain_constraints(schema),
            store_path=db,
            store_backend="sqlite",
        )
        return system.fit(history)

    def test_engine_groups_do_not_change_candidates(
        self, schema, history, users, tmp_path
    ):
        system = self.build(schema, history, tmp_path / "engine.db")

        def cells(subset):
            return [
                FusedCell(
                    cell_id=(user_id, t),
                    t=t,
                    x_base=system.update_function.trajectory(x, 2)[t],
                    generator=system._cell_generator(
                        t, system.domain_constraints
                    ),
                    model_fp=system.model_fingerprints[t] or None,
                    constraints_key="[]",
                )
                for user_id, x in subset
                for t in range(3)
            ]

        together, _ = generate_fused(cells(users))
        for user in users:
            alone, _ = generate_fused(cells([user]))
            for cell_id, (found, _) in alone.items():
                t = cell_id[1]
                reference = system._cell_generator(
                    t, system.domain_constraints
                ).generate(system.update_function.trajectory(user[1], 2)[t], time=t)
                for got in (found, together[cell_id][0]):
                    assert [c.x.tobytes() for c in got] == [
                        c.x.tobytes() for c in reference
                    ]
                    assert [c.metrics for c in got] == [
                        c.metrics for c in reference
                    ]
        system.store.close()

    def test_create_sessions_digest(self, schema, history, users, tmp_path):
        together = self.build(schema, history, tmp_path / "together.db")
        together.create_sessions(users)
        one_by_one = self.build(schema, history, tmp_path / "single.db")
        for user in users:
            one_by_one.create_sessions([user])
        reference = self.build(schema, history, tmp_path / "reference.db")
        reference_create_sessions(reference, users)
        digest = reference.store.contents_digest()
        assert together.store.contents_digest() == digest
        assert one_by_one.store.contents_digest() == digest
        for system in (together, one_by_one, reference):
            system.store.close()
