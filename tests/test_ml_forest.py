"""Tests for the random forest (the paper's model class)."""

import pickle

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml import DecisionTreeClassifier, RandomForestClassifier, roc_auc_score


class TestFitPredict:
    def test_beats_chance_on_lending(self, lending_ds):
        rf = RandomForestClassifier(n_estimators=10, max_depth=6, random_state=0)
        recent = lending_ds.window(2016, 2020)
        rf.fit(recent.X, recent.y)
        auc = roc_auc_score(recent.y, rf.decision_score(recent.X))
        assert auc > 0.85

    def test_soft_voting_produces_intermediate_scores(self, small_xy):
        X, y = small_xy
        rf = RandomForestClassifier(n_estimators=15, max_depth=3, random_state=0)
        rf.fit(X, y)
        scores = rf.decision_score(X)
        assert ((scores >= 0) & (scores <= 1)).all()
        # bagging produces more than just {0, 1}
        assert len(np.unique(np.round(scores, 4))) > 2

    def test_single_tree_forest(self, small_xy):
        X, y = small_xy
        rf = RandomForestClassifier(n_estimators=1, random_state=0).fit(X, y)
        assert len(rf.trees_) == 1

    def test_no_bootstrap_mode(self, small_xy):
        X, y = small_xy
        rf = RandomForestClassifier(
            n_estimators=5, bootstrap=False, random_state=0
        ).fit(X, y)
        assert rf.score(X, y) > 0.9

    def test_reproducible_with_seed(self, small_xy):
        X, y = small_xy
        a = RandomForestClassifier(n_estimators=5, random_state=9).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, random_state=9).fit(X, y)
        assert np.allclose(a.decision_score(X), b.decision_score(X))

    def test_different_seed_different_forest(self, small_xy):
        X, y = small_xy
        a = RandomForestClassifier(n_estimators=5, random_state=1).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, random_state=2).fit(X, y)
        assert not np.allclose(a.decision_score(X), b.decision_score(X))

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict_proba([[0.0]])


class TestOob:
    def test_oob_score_reasonable(self, small_xy):
        X, y = small_xy
        rf = RandomForestClassifier(
            n_estimators=25, oob_score=True, random_state=0
        ).fit(X, y)
        assert rf.oob_score_ is not None
        assert rf.oob_score_ > 0.8

    def test_oob_none_without_flag(self, small_xy):
        X, y = small_xy
        rf = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert rf.oob_score_ is None


class TestIntrospection:
    def test_split_thresholds_is_union(self, small_xy):
        X, y = small_xy
        rf = RandomForestClassifier(n_estimators=5, max_depth=3, random_state=0)
        rf.fit(X, y)
        merged = rf.split_thresholds()
        for tree in rf.trees_:
            for feature, values in tree.split_thresholds().items():
                assert np.isin(values, merged[feature]).all()

    def test_split_thresholds_sorted_unique(self, fitted_forest):
        for values in fitted_forest.split_thresholds().values():
            assert np.all(np.diff(values) > 0)

    def test_feature_importances_shape(self, fitted_forest):
        importances = fitted_forest.feature_importances_
        assert importances.shape == (fitted_forest.n_features_,)
        assert (importances >= 0).all()

    def test_n_nodes_positive(self, fitted_forest):
        assert fitted_forest.n_nodes() > len(fitted_forest.trees_)


def node_walk_scores(trees, X):
    """Reference forest scores: each tree's ``decision_path`` leaf
    probability, summed in tree order and divided by the tree count."""
    scores = np.empty(len(X))
    for i, row in enumerate(X):
        total = 0.0
        for tree in trees:
            total += tree.decision_path(row)[-1].probability
        scores[i] = total / len(trees)
    return scores


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def comb_tree(n_features, depth=36):
    """A chain-shaped tree of exactly ``depth`` levels: alternating labels
    along feature 0 make every split peel one sample off the end."""
    X = np.zeros((depth + 1, n_features))
    X[:, 0] = np.arange(depth + 1.0)
    tree = DecisionTreeClassifier(max_depth=None).fit(X, np.arange(depth + 1) % 2)
    assert tree.depth() == depth
    return tree


def on_thresholds(forest, X):
    """Copies of ``X`` with one feature set exactly to a split threshold
    (``x <= threshold`` routes left)."""
    rows = []
    for feature, values in forest.split_thresholds().items():
        block = X[: len(values)].copy()
        block[:, feature] = values[: len(block)]
        rows.append(block)
    return np.vstack(rows)


class TestPackedDescent:
    """The forest scores every tree in one packed descent; its scores
    must equal the per-tree node walk bit for bit."""

    def test_matches_node_walk_on_lending(self, fitted_forest, lending_ds):
        X = lending_ds.X[:200]
        assert_bits_equal(
            fitted_forest.decision_score(X),
            node_walk_scores(fitted_forest.trees_, X),
        )

    def test_single_leaf_trees(self, small_xy):
        X, _ = small_xy
        rf = RandomForestClassifier(n_estimators=4, random_state=0)
        rf.fit(X, np.ones(len(X), dtype=int))
        assert all(tree.root_.is_leaf for tree in rf.trees_)
        assert_bits_equal(rf.decision_score(X), node_walk_scores(rf.trees_, X))

    def test_unbounded_trees_of_mixed_depth(self, rng):
        X = rng.normal(size=(400, 4))
        y = (X[:, 0] + rng.normal(0.0, 0.8, size=400) > 0).astype(int)
        rf = RandomForestClassifier(n_estimators=12, max_depth=None, random_state=3)
        rf.fit(X, y)
        assert len({tree.depth() for tree in rf.trees_}) > 1
        probe = rng.normal(size=(300, 4))
        assert_bits_equal(rf.decision_score(probe), node_walk_scores(rf.trees_, probe))

    def test_rows_on_split_thresholds_route_left(self, fitted_forest, lending_ds):
        X = on_thresholds(fitted_forest, lending_ds.X[:400])
        assert_bits_equal(
            fitted_forest.decision_score(X),
            node_walk_scores(fitted_forest.trees_, X),
        )

    def test_one_row_batches(self, fitted_forest, lending_ds):
        X = lending_ds.X[:40]
        one_by_one = np.array([fitted_forest.decision_score(row)[0] for row in X])
        assert_bits_equal(one_by_one, node_walk_scores(fitted_forest.trees_, X))

    def test_shallow_trees_beside_one_deep_tree(self, rng):
        """24 depth-3 trees and one depth-36 tree: the deep tree's steps
        advance it alone, and every tree keeps its place in the sum."""
        X = rng.normal(size=(300, 3))
        X[:, 0] = rng.uniform(-1.0, 38.0, size=300)
        y = (X[:, 1] > 0).astype(int)
        rf = RandomForestClassifier(n_estimators=24, max_depth=3, random_state=0)
        rf.fit(X, y)
        deep = comb_tree(3)
        rf.trees_.insert(10, deep)
        probe = np.vstack([X, np.column_stack([np.arange(-1.0, 38.0, 0.5),
                                               np.zeros((78, 2))])])
        assert_bits_equal(rf.decision_score(probe), node_walk_scores(rf.trees_, probe))

    def test_forest_pickled_before_first_prediction(self, lending_ds):
        recent = lending_ds.window(2017, 2020)
        rf = RandomForestClassifier(n_estimators=8, max_depth=8, random_state=0)
        restored = pickle.loads(pickle.dumps(rf.fit(recent.X, recent.y)))
        X = lending_ds.X[:100]
        assert_bits_equal(restored.decision_score(X), node_walk_scores(rf.trees_, X))

    def test_pack_is_built_on_first_prediction_only(self, small_xy):
        X, y = small_xy
        rf = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        assert "_pack" not in vars(rf)
        rf.decision_score(X[:5])
        assert "_pack" in vars(rf)
        rf.fit(X[:150], y[:150])
        assert "_pack" not in vars(rf)
        assert_bits_equal(rf.decision_score(X), node_walk_scores(rf.trees_, X))
