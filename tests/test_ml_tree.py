"""Tests for the CART decision tree."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.ml import DecisionTreeClassifier


class TestFitting:
    def test_fits_separable_perfectly(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) > 0.99

    def test_single_class_gives_constant_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.ones(10, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.root_.is_leaf
        assert np.allclose(tree.decision_score(X), 1.0)

    def test_max_depth_respected(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_min_samples_leaf_respected(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(X, y)
        assert all(leaf.n_samples >= 20 for leaf in tree.leaves())

    def test_min_samples_split_blocks_growth(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        tree = DecisionTreeClassifier(min_samples_split=10).fit(X, y)
        assert tree.root_.is_leaf

    def test_entropy_criterion_works(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(criterion="entropy", max_depth=5).fit(X, y)
        assert tree.score(X, y) > 0.9

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="nope")
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_constant_features_give_leaf(self):
        X = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.root_.is_leaf
        assert tree.decision_score(X[:1])[0] == pytest.approx(0.5)


class TestPrediction:
    def test_proba_matches_leaf_fraction(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
        scores = tree.decision_score(X)
        assert set(np.round(scores, 6)) <= {0.0, 1.0}

    def test_proba_rows_sum_to_one(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X[:20])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_decision_path_consistent_with_prediction(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        for row in X[:25]:
            path = tree.decision_path(row)
            assert path[0] is tree.root_
            leaf = path[-1]
            assert leaf.is_leaf
            assert tree.decision_score(row.reshape(1, -1))[0] == pytest.approx(
                leaf.probability
            )
            # each consecutive pair is a parent-child link respecting the test
            for parent, child in zip(path, path[1:]):
                if row[parent.feature] <= parent.threshold:
                    assert child is parent.left
                else:
                    assert child is parent.right

    def test_decision_path_wrong_size(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        with pytest.raises(ValidationError):
            tree.decision_path([1.0, 2.0, 3.0])


class TestIntrospection:
    def test_split_thresholds_cover_internal_nodes(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        thresholds = tree.split_thresholds()
        internal = [n for n in tree.root_.iter_nodes() if not n.is_leaf]
        assert internal
        for node in internal:
            assert node.threshold in thresholds[node.feature]

    def test_split_thresholds_sorted(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier().fit(X, y)
        for values in tree.split_thresholds().values():
            assert np.all(np.diff(values) > 0)

    def test_feature_importances_sum_to_one(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)
        assert (tree.feature_importances_ >= 0).all()

    def test_informative_feature_dominates(self, rng):
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] > 0).astype(int)  # feature 1 is pure noise
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.feature_importances_[0] > 0.9

    def test_node_ids_unique_and_complete(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        ids = [n.node_id for n in tree.root_.iter_nodes()]
        assert sorted(ids) == list(range(tree.n_nodes_))

    def test_max_features_sqrt_limits_candidates(self, rng):
        X = rng.normal(size=(200, 9))
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(
            max_features="sqrt", random_state=0, max_depth=3
        ).fit(X, y)
        assert tree.root_ is not None  # fits without error

    def test_max_features_validation(self, small_xy):
        X, y = small_xy
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=5.0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=99).fit(X, y)


class TestDeterminism:
    def test_same_seed_same_tree(self, small_xy):
        X, y = small_xy
        a = DecisionTreeClassifier(max_features="sqrt", random_state=7).fit(X, y)
        b = DecisionTreeClassifier(max_features="sqrt", random_state=7).fit(X, y)
        assert np.allclose(a.decision_score(X), b.decision_score(X))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_scores_always_probabilities(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        scores = tree.decision_score(X)
        assert ((scores >= 0) & (scores <= 1)).all()


def node_walk_scores(tree, X):
    """Reference scores: the probability of each row's ``decision_path`` leaf."""
    return np.array([tree.decision_path(row)[-1].probability for row in X])


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestPackedDescent:
    """A lone tree scores as a one-tree pack; its scores must equal the
    node walk of ``decision_path`` bit for bit."""

    def test_single_leaf_tree(self, small_xy):
        X, _ = small_xy
        tree = DecisionTreeClassifier().fit(X, np.zeros(len(X), dtype=int))
        assert tree.root_.is_leaf
        assert_bits_equal(tree.decision_score(X), node_walk_scores(tree, X))

    def test_unbounded_depth(self, rng):
        X = rng.normal(size=(500, 3))
        y = rng.integers(0, 2, size=500)
        tree = DecisionTreeClassifier(max_depth=None, random_state=0).fit(X, y)
        assert tree.depth() > 10
        probe = np.vstack([X, rng.normal(size=(200, 3))])
        assert_bits_equal(tree.decision_score(probe), node_walk_scores(tree, probe))

    def test_depth_36_chain(self):
        X = np.zeros((37, 2))
        X[:, 0] = np.arange(37.0)
        tree = DecisionTreeClassifier().fit(X, np.arange(37) % 2)
        assert tree.depth() == 36
        probe = np.column_stack([np.arange(-1.0, 38.0, 0.25), np.zeros(156)])
        assert_bits_equal(tree.decision_score(probe), node_walk_scores(tree, probe))

    def test_deeper_than_the_recursion_limit(self):
        """A 4,799-node chain, far deeper than the interpreter's
        recursion limit, is walked in pre-order, scored and introspected."""
        X = np.arange(2400.0).reshape(-1, 1)
        y = np.arange(2400) % 2
        tree = DecisionTreeClassifier().fit(X, y)
        ids = [node.node_id for node in tree.root_.iter_nodes()]
        assert ids == list(range(4799))
        np.testing.assert_array_equal(tree.predict_proba(X)[:, 1], y)
        assert tree.depth() == 2399
        assert len(tree.leaves()) == 2400
        assert tree.split_thresholds()[0].size == 2399

    def test_rows_on_split_thresholds_route_left(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        rows = []
        for feature, values in tree.split_thresholds().items():
            block = X[: len(values)].copy()
            block[:, feature] = values
            rows.append(block)
        probe = np.vstack(rows)
        assert_bits_equal(tree.decision_score(probe), node_walk_scores(tree, probe))

    def test_one_row_batches(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        one_by_one = np.array([tree.decision_score(row)[0] for row in X[:30]])
        assert_bits_equal(one_by_one, node_walk_scores(tree, X[:30]))

    def test_pickled_before_first_prediction(self, small_xy):
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        restored = pickle.loads(pickle.dumps(tree))
        assert_bits_equal(restored.decision_score(X), node_walk_scores(tree, X))

    def test_older_pickles_still_score(self, small_xy):
        """Trees saved by older versions lack ``_flat`` or hold the
        per-tree array tuple the pack replaced; both rebuild the pack."""
        X, y = small_xy
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        expected = node_walk_scores(tree, X)
        tree._flat = (np.zeros(1), np.zeros(1))
        assert_bits_equal(tree.decision_score(X), expected)
        del tree._flat
        assert_bits_equal(tree.decision_score(X), expected)
