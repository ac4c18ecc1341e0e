"""Batch/scalar equivalence for the vectorized search kernel.

The vectorized kernel's contract is *bit-identical* results: every
vectorized primitive (diff/gap, constraint masks, metrics, objective
keys, clipping, threshold moves) must agree elementwise with its scalar
twin, and :meth:`CandidateGenerator.generate` must return the same
candidate sets as the row-at-a-time reference loop
(``_generate_scalar``) for the same seeds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import lending_domain_constraints
from repro.constraints.evaluate import (
    ConstraintsFunction,
    l0_gap,
    l0_gap_batch,
    l2_diff,
    l2_diff_batch,
)
from repro.core import AdminConfig, JustInTime
from repro.core.candidates import CandidateGenerator
from repro.core.moves import RandomMoveProposer, ThresholdMoveProposer
from repro.core.objectives import OBJECTIVE_PRESETS, measure, measure_batch
from repro.data import john_profile, make_lending_dataset
from repro.data.dataset import TemporalDataset
from repro.data.schema import DatasetSchema, FeatureSpec
from repro.exceptions import CandidateSearchError
from repro.temporal import lending_update_function
from repro.temporal.update import TemporalUpdateFunction


@pytest.fixture(scope="module")
def proposal_batch(schema, john, rng_module):
    """Randomized (n, d) perturbations of John plus exact-match rows."""
    n = 64
    X = john + rng_module.normal(0.0, 1.0, size=(n, len(schema))) * np.maximum(
        np.abs(john) * 0.2, 1.0
    )
    X[0] = john  # zero diff / zero gap row
    X[1] = john.copy()
    X[1, 2] += 1e-12  # below the gap tolerance
    return X


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(2024)


@pytest.fixture(scope="module")
def constraints_fn(schema, john) -> ConstraintsFunction:
    scale = np.maximum(np.abs(john), 1.0)
    fn = ConstraintsFunction(schema, diff_scale=scale)
    fn.add("annual_income <= base_annual_income * 1.5")
    fn.add("monthly_debt >= 200 and loan_amount > 0")
    fn.add("diff < 2.5 or gap <= 2", times=[0, 2])
    fn.add("not (annual_income < 1000)")
    fn.add("confidence >= 0.2", times=1)
    fn.add("time >= 0")
    fn.add("loan_amount / 2 + monthly_debt - 100 <= 60000")
    return fn


class TestPrimitiveEquivalence:
    def test_l2_diff_batch_matches_scalar(self, proposal_batch, john):
        for scale in (None, np.maximum(np.abs(john), 1.0)):
            batch = l2_diff_batch(proposal_batch, john, scale)
            scalar = np.array(
                [l2_diff(row, john, scale) for row in proposal_batch]
            )
            assert (batch == scalar).all()

    def test_l0_gap_batch_matches_scalar(self, proposal_batch, john):
        batch = l0_gap_batch(proposal_batch, john)
        scalar = np.array([l0_gap(row, john) for row in proposal_batch])
        assert (batch == scalar).all()
        assert batch[0] == 0 and batch[1] == 0

    def test_measure_batch_matches_scalar(self, proposal_batch, john, rng_module):
        scores = rng_module.uniform(0.0, 1.0, size=proposal_batch.shape[0])
        batch = measure_batch(proposal_batch, john, scores)
        for i, row in enumerate(proposal_batch):
            assert batch.row(i) == measure(row, john, float(scores[i]))

    def test_objective_key_batch_matches_scalar(
        self, proposal_batch, john, rng_module
    ):
        scores = rng_module.uniform(0.0, 1.0, size=proposal_batch.shape[0])
        batch = measure_batch(proposal_batch, john, scores)
        for objective in OBJECTIVE_PRESETS.values():
            keys = objective.key_batch(batch)
            for i in range(len(batch)):
                assert keys[i] == objective.key(batch.row(i))

    def test_row_keys_collide_exactly_where_state_keys_do(self):
        rows = np.array(
            [
                [1.0, 0.0, 2.5],
                [1.0, -0.0, 2.5],  # -0.0 against 0.0
                [1.0, -1e-10, 2.5],  # -0.0 only after rounding
                [1.0, 1e-10, 2.5 + 4e-10],  # equal after round(., 9)
                [1.0, 0.0, 2.5 + 6e-10],  # distinct after round(., 9)
                [0.1 + 0.2, 2.0, 0.0],  # zero-valued last column
                [0.3, 2.0, -0.0],
                [0.3, 2.0, 1e-9],
                [0.0, 0.0, 0.0],
            ]
        )
        keys = CandidateGenerator._row_keys(rows)
        tuples = [CandidateGenerator._state_key(row) for row in rows]
        d = rows.shape[1]
        for i, key in enumerate(keys):
            assert isinstance(key, bytes) and len(key) == 8 * d
            assert key == (np.round(rows[i], 9) + 0.0).tobytes()
            for j in range(len(keys)):
                assert (key == keys[j]) == (tuples[i] == tuples[j])
        assert len(set(keys)) == len(set(tuples)) == 5
        # 1-D input is one row
        assert CandidateGenerator._row_keys(rows[6]) == [keys[6]]

    def test_clip_matrix_matches_scalar(self, schema, proposal_batch):
        clipped = schema.clip_matrix(proposal_batch)
        for row, ref in zip(proposal_batch, clipped):
            assert (schema.clip(row) == ref).all()

    def test_clip_matrix_matches_scalar_bytes_on_signed_zeros(self):
        """Bounds at zero, unbounded and negative integers, and values
        that round to a signed zero: ``clip`` and ``clip_matrix`` agree
        to the byte, not only by ``==``."""
        features = [
            FeatureSpec(f"f{i}", dtype, lower=lower, upper=upper)
            for i, (dtype, lower, upper) in enumerate(
                [
                    ("float", 0, None),
                    ("float", None, 0),
                    ("float", None, None),
                    ("int", 0, 10),
                    ("int", -5, 0),
                    ("int", None, None),
                ]
            )
        ]
        schema = DatasetSchema(features)
        values = [-0.0, 0.0, -0.3, 0.3, -0.5, 0.5, -1e-300, 7.5]
        X = np.random.default_rng(3).choice(values, size=(200, len(schema)))
        for row, ref in zip(X, schema.clip_matrix(X)):
            assert schema.clip(row).tobytes() == ref.tobytes()


class TestConstraintEquivalence:
    def test_is_valid_batch_matches_scalar(
        self, constraints_fn, proposal_batch, john, rng_module
    ):
        scores = rng_module.uniform(0.0, 1.0, size=proposal_batch.shape[0])
        for time in range(4):
            mask = constraints_fn.is_valid_batch(
                proposal_batch, john, confidence=scores, time=time
            )
            scalar = np.array(
                [
                    constraints_fn.is_valid(
                        row, john, confidence=float(s), time=time
                    )
                    for row, s in zip(proposal_batch, scores)
                ]
            )
            assert (mask == scalar).all()

    def test_violation_counts_match_scalar(
        self, constraints_fn, proposal_batch, john, rng_module
    ):
        scores = rng_module.uniform(0.0, 1.0, size=proposal_batch.shape[0])
        for time in range(4):
            counts = constraints_fn.violation_counts_batch(
                proposal_batch, john, confidence=scores, time=time
            )
            scalar = np.array(
                [
                    len(
                        constraints_fn.violated(
                            row, john, confidence=float(s), time=time
                        )
                    )
                    for row, s in zip(proposal_batch, scores)
                ]
            )
            assert (counts == scalar).all()

    def test_batch_short_circuits_like_scalar(self, schema, john, proposal_batch):
        # scalar any()/all() skip operands the batch path must skip too —
        # here the second operand divides by a constant zero
        fn = ConstraintsFunction(schema)
        fn.add("annual_income > 5 or annual_income / 0 > 1")
        scores = np.full(proposal_batch.shape[0], 0.6)
        X = np.abs(proposal_batch) + 6.0  # every row satisfies operand 1
        mask = fn.is_valid_batch(X, john, confidence=scores, time=0)
        scalar = [fn.is_valid(row, john, confidence=0.6, time=0) for row in X]
        assert mask.tolist() == scalar == [True] * X.shape[0]

    def test_is_valid_batch_short_circuits_across_constraints(
        self, schema, john, proposal_batch
    ):
        # scalar is_valid stops at the first violated constraint, so a
        # later constraint that raises on evaluation must stay unreached
        fn = ConstraintsFunction(schema)
        fn.add("annual_income < -1")  # fails for every row below
        fn.add("monthly_debt / 0 > 1")
        X = np.abs(proposal_batch)
        scores = np.full(X.shape[0], 0.6)
        mask = fn.is_valid_batch(X, john, confidence=scores, time=0)
        scalar = [fn.is_valid(row, john, confidence=0.6, time=0) for row in X]
        assert mask.tolist() == scalar == [False] * X.shape[0]

    def test_split_thresholds_cache_immune_to_mutation(self, fitted_forest):
        first = fitted_forest.split_thresholds()
        first.pop(next(iter(first)))
        second = fitted_forest.split_thresholds()
        assert len(second) == len(first) + 1

    def test_domain_constraints_batch(self, schema, proposal_batch, john):
        fn = lending_domain_constraints(schema)
        scores = np.full(proposal_batch.shape[0], 0.7)
        mask = fn.is_valid_batch(proposal_batch, john, confidence=scores, time=0)
        scalar = [
            fn.is_valid(row, john, confidence=0.7, time=0)
            for row in proposal_batch
        ]
        assert mask.tolist() == scalar


class TestMoveEquivalence:
    def test_threshold_propose_batch_matches_propose(
        self, schema, fitted_forest, john
    ):
        proposer = ThresholdMoveProposer()
        rng = np.random.default_rng(0)
        states = [
            schema.clip(john),
            schema.clip(john * 0.8),
            schema.clip(john * 1.3),
        ]
        batch = proposer.propose_batch(states, fitted_forest, schema, rng)
        assert len(batch) == len(states)
        for state, matrix in zip(states, batch):
            reference = proposer.propose(state, fitted_forest, schema, rng)
            assert matrix.shape == (len(reference), len(schema))
            for ref_row, row in zip(reference, matrix):
                assert (ref_row == row).all()

    def test_random_propose_batch_preserves_rng_stream(
        self, schema, fitted_forest, john
    ):
        proposer = RandomMoveProposer()
        states = [schema.clip(john), schema.clip(john * 1.1)]
        batch = proposer.propose_batch(
            states, fitted_forest, schema, np.random.default_rng(42)
        )
        rng = np.random.default_rng(42)
        for state, matrix in zip(states, batch):
            reference = proposer.propose(state, fitted_forest, schema, rng)
            assert matrix.shape[0] == len(reference)
            for ref_row, row in zip(reference, matrix):
                assert (ref_row == row).all()


class _StubThresholdModel:
    """Duck-typed tree model: only ``split_thresholds``, as given."""

    def __init__(self, thresholds: dict):
        self._thresholds = thresholds

    def split_thresholds(self) -> dict[int, np.ndarray]:
        return {f: np.asarray(v, dtype=float) for f, v in self._thresholds.items()}


#: every clip path a threshold move meets: unbounded and bounded floats,
#: an integer, a categorical, an immutable feature and one without splits
STUB_SCHEMA = DatasetSchema(
    [
        FeatureSpec("wide", dtype="float"),
        FeatureSpec("bounded", dtype="float", lower=0, upper=100),
        FeatureSpec("count", dtype="int", lower=0, upper=60),
        FeatureSpec("fixed", dtype="float", mutable=False),
        FeatureSpec("kind", dtype="categorical", categories=(0, 1, 2)),
        FeatureSpec("unsplit", dtype="float"),
    ]
)
STUB_THRESHOLDS = {
    0: np.linspace(-50.0, 50.0, 40),  # more than n_nearest + n_far
    1: [10.0, 10.0, 55.5],  # duplicates, fewer than n_nearest + n_far
    2: [3.0, 7.0],
    3: [1.0],  # immutable: never moved
    4: [0.5, 1.5],
    5: [],  # no thresholds
}


def _stub_edge_states() -> list[np.ndarray]:
    """States exactly on a threshold, below the first, above the last
    and in between, for every feature at once."""
    wide = STUB_THRESHOLDS[0]
    rows = [
        [wide[0], 10.0, 3.0, 1.0, 0, 0.0],  # on thresholds
        [wide[17], 55.5, 7.0, 0.0, 1, 2.0],
        [wide[-1], 0.0, 0.0, 0.0, 2, -3.0],  # on the last / below the first
        [-80.0, 5.0, 1.0, 9.0, 0, 0.0],  # below every threshold
        [80.0, 90.0, 60.0, -9.0, 2, 0.0],  # above every threshold
        [0.3, 30.0, 5.0, 0.0, 1, 0.0],  # in between
        [wide[20] + 1e-13, 10.0 - 1e-13, 4.0, 0.0, 1, 0.0],  # within 1e-12
    ]
    return [STUB_SCHEMA.clip(row) for row in rows]


def _assert_rows_match_propose(proposer, states, model, schema):
    """``propose_batch`` returns, per state, exactly ``propose``'s rows:
    same count, same order, same bytes."""
    batch = proposer.propose_batch(states, model, schema, None)
    assert len(batch) == len(states)
    for state, matrix in zip(states, batch):
        reference = proposer.propose(state, model, schema, None)
        expected = np.asarray(reference, dtype=float).reshape(-1, len(schema))
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()


class TestThresholdTargets:
    """The array-native threshold targets against the scalar
    :meth:`ThresholdMoveProposer.propose`, bit for bit and in order."""

    @pytest.mark.parametrize("n_far", [0, 1, 4, 7])
    @pytest.mark.parametrize("n_nearest", [1, 2, 3, 5])
    def test_edge_states_match_propose(self, n_nearest, n_far):
        proposer = ThresholdMoveProposer(n_nearest=n_nearest, n_far=n_far)
        model = _StubThresholdModel(STUB_THRESHOLDS)
        states = _stub_edge_states()
        _assert_rows_match_propose(proposer, states, model, STUB_SCHEMA)
        # one state at a time as well as all at once
        for state in states:
            _assert_rows_match_propose(proposer, [state], model, STUB_SCHEMA)

    @pytest.mark.parametrize("n_states", [1, 41])
    @pytest.mark.parametrize("n_nearest,n_far", [(1, 0), (3, 4), (5, 7)])
    def test_forest_states_match_propose(
        self, schema, fitted_forest, john, n_states, n_nearest, n_far
    ):
        rng = np.random.default_rng(n_states + 10 * n_nearest + n_far)
        income = schema.index_of("annual_income")
        splits = fitted_forest.split_thresholds()[income]
        edges = [john.copy() for _ in range(4)]
        edges[0][income] = splits[len(splits) // 2]  # exactly on a split
        edges[1][income] = splits[0]
        edges[2][income] = 0.0  # below the first split
        edges[3][income] = 1_000_000.0  # above the last
        noise = rng.normal(0.0, 0.3, size=(max(n_states - 4, 0), len(schema)))
        states = [schema.clip(row) for row in edges + list(john * (1.0 + noise))]
        states = states[:n_states]
        assert len(states) == n_states
        proposer = ThresholdMoveProposer(n_nearest=n_nearest, n_far=n_far)
        _assert_rows_match_propose(proposer, states, fitted_forest, schema)

    @given(
        thresholds=st.lists(
            st.lists(
                st.sampled_from([-20.0, -2.5, 0.0, 0.5, 1.0, 3.0, 12.0, 40.0]),
                max_size=14,
            ),
            min_size=3,
            max_size=3,
        ),
        values=st.lists(
            st.tuples(
                st.floats(-30.0, 50.0, allow_nan=False),
                st.floats(-5.0, 50.0, allow_nan=False),
                st.integers(0, 45),
            ),
            min_size=1,
            max_size=12,
        ),
        n_nearest=st.integers(1, 5),
        n_far=st.integers(0, 7),
    )
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_arbitrary_sorted_thresholds_match_propose(
        self, thresholds, values, n_nearest, n_far
    ):
        """Sorted threshold arrays with duplicates, drawn from a small
        grid so states often sit exactly on one."""
        model = _StubThresholdModel(
            {f: sorted(ts) for f, ts in zip((0, 1, 2), thresholds)}
        )
        states = [
            STUB_SCHEMA.clip([wide, bounded, count, 0.0, 1, 0.0])
            for wide, bounded, count in values
        ]
        proposer = ThresholdMoveProposer(n_nearest=n_nearest, n_far=n_far)
        _assert_rows_match_propose(proposer, states, model, STUB_SCHEMA)


class TestGenerateEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_identical_candidates_fixed_seeds(
        self, schema, fitted_forest, john, lending_ds, seed
    ):
        results = {}
        for loop in ("scalar", "batch"):
            generator = CandidateGenerator(
                fitted_forest,
                0.5,
                schema,
                lending_domain_constraints(schema),
                k=5,
                max_iter=12,
                diff_scale=lending_ds.X.std(axis=0),
                random_state=seed,
            )
            search = (
                generator._generate_scalar
                if loop == "scalar"
                else generator.generate
            )
            results[loop] = (search(john, time=1), generator.last_stats_)
        scalar_candidates, scalar_stats = results["scalar"]
        batch_candidates, batch_stats = results["batch"]
        assert len(scalar_candidates) == len(batch_candidates)
        assert len(scalar_candidates) > 0
        for a, b in zip(scalar_candidates, batch_candidates):
            assert (a.x == b.x).all()
            assert a.metrics == b.metrics
            assert a.time == b.time
        assert scalar_stats.iterations == batch_stats.iterations
        assert scalar_stats.proposals_evaluated == batch_stats.proposals_evaluated
        assert scalar_stats.valid_found == batch_stats.valid_found
        assert scalar_stats.best_key_history == batch_stats.best_key_history


class TestMultiUserService:
    @pytest.fixture(scope="class")
    def history(self):
        return make_lending_dataset(n_per_year=100, random_state=5)

    def _system(self, schema, history):
        system = JustInTime(
            schema,
            lending_update_function(schema),
            AdminConfig(T=2, strategy="last", k=3, max_iter=6, random_state=0),
            domain_constraints=lending_domain_constraints(schema),
        )
        return system.fit(history)

    def _users(self, schema, n):
        rng = np.random.default_rng(11)
        base = schema.vector(john_profile())
        return [
            (f"u{i}", schema.clip(base * rng.uniform(0.85, 1.15, base.size)))
            for i in range(n)
        ]

    def test_create_sessions_matches_create_session(self, schema, history):
        users = self._users(schema, 4)
        singles = self._system(schema, history)
        single_sessions = [
            singles.create_session(uid, profile) for uid, profile in users
        ]
        batched = self._system(schema, history)
        batch_sessions = batched.create_sessions(users)
        for a, b in zip(single_sessions, batch_sessions):
            assert a.user_id == b.user_id
            assert len(a.candidates) == len(b.candidates)
            for ca, cb in zip(a.candidates, b.candidates):
                assert (ca.x == cb.x).all()
                assert ca.metrics == cb.metrics
        query = (
            "SELECT user_id, time, diff, gap, p FROM candidates"
            " ORDER BY user_id, time, diff, p"
        )
        assert [tuple(r) for r in singles.store.sql(query)] == [
            tuple(r) for r in batched.store.sql(query)
        ]

    def test_duplicate_user_id_rejected(self, schema, history):
        users = self._users(schema, 2)
        users.append(users[0])
        with pytest.raises(CandidateSearchError, match="duplicate user_id"):
            self._system(schema, history).create_sessions(users)

    def test_create_sessions_replaces_existing_rows(self, schema, history):
        system = self._system(schema, history)
        users = self._users(schema, 2)
        system.create_sessions(users)
        first = system.store.candidate_count("u0")
        system.create_sessions(users)  # re-run must replace, not append
        assert system.store.candidate_count("u0") == first
        assert system.store.times_for("u0") == [0, 1, 2]

    def test_dict_user_spec(self, schema, history):
        system = self._system(schema, history)
        (session,) = system.create_sessions(
            [
                {
                    "user_id": "dict-user",
                    "profile": john_profile(),
                    "user_constraints": [
                        "annual_income <= base_annual_income * 1.2"
                    ],
                }
            ]
        )
        assert session.user_id == "dict-user"
        assert len(session.constraints) > len(
            lending_domain_constraints(schema)
        )


class TestSatelliteRegressions:
    def test_all_insights_without_mutable_features(self):
        schema = DatasetSchema(
            [
                FeatureSpec("f1", mutable=False),
                FeatureSpec("f2", mutable=False),
            ]
        )
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 2))
        y = (X[:, 0] > 0).astype(int)
        history = TemporalDataset(
            X, y, np.repeat(np.arange(2015, 2021), 20), schema
        )
        system = JustInTime(
            schema,
            TemporalUpdateFunction(schema),
            AdminConfig(T=1, strategy="last", k=2, max_iter=2, random_state=0),
        )
        system.fit(history)
        session = system.create_session("frozen", {"f1": 1.0, "f2": 0.0})
        with pytest.raises(CandidateSearchError, match="no mutable features"):
            session.all_insights()

    def test_join_constraints_accepts_scoped_items(self, fitted_system):
        from repro.constraints.evaluate import ScopedConstraint
        from repro.constraints.parser import parse_constraint

        scoped = ScopedConstraint(
            parse_constraint("monthly_debt >= 100"), frozenset([0]), "floor"
        )
        joined = fitted_system._join_constraints(
            [scoped, "annual_income >= 0"]
        )
        labels = [c.label for c in joined.constraints]
        assert "floor" in labels and "annual_income >= 0" in labels
