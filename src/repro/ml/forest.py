"""Random-forest classifier — the paper's model class.

The original demo trains one H2O random forest per future time span
(§III).  This implementation bags :class:`repro.ml.tree.DecisionTreeClassifier`
base learners over bootstrap resamples with per-split feature subsampling,
and averages leaf probabilities (soft voting), so that the forest is a
smooth-ish ``M : R^d -> [0, 1]`` scorer as required by Definition II.1.

The forest also aggregates the split thresholds of its trees
(:meth:`RandomForestClassifier.split_thresholds`), which drive the
threshold-crossing move proposer of the candidates generator.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import UNSET, BaseClassifier, as_rng, check_X, check_X_y, check_fitted
from repro.ml.tree import DecisionTreeClassifier, TreePack, grow_trees

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier(BaseClassifier):
    """Bootstrap-aggregated CART forest with soft probability voting.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, criterion:
        Passed through to each tree.
    max_features:
        Per-split feature subsample; defaults to ``'sqrt'`` as is standard
        for classification forests.
    bootstrap:
        Draw each tree's training set with replacement (size n).  When
        false every tree sees the full data and differs only through
        feature subsampling.
    oob_score:
        When true (and ``bootstrap``), compute the out-of-bag accuracy
        estimate ``oob_score_`` after fitting.
    random_state:
        Seeds bootstrap draws and per-tree feature subsampling.
    """

    _fitted_caches = {"_split_thresholds_cache": None, "_pack": UNSET}

    def __init__(
        self,
        n_estimators: int = 25,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        criterion: str = "gini",
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state: int | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] | None = None
        self.n_features_: int | None = None
        self.feature_importances_: np.ndarray | None = None
        self.oob_score_: float | None = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        self._split_thresholds_cache = None
        self.__dict__.pop("_pack", None)
        n, d = X.shape
        self.n_features_ = d
        rng = as_rng(self.random_state)
        self.trees_ = []
        samples = []
        for _ in range(self.n_estimators):
            self.trees_.append(
                DecisionTreeClassifier(
                    criterion=self.criterion,
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    random_state=int(rng.integers(0, 2**31 - 1)),
                )
            )
            samples.append(rng.integers(0, n, size=n) if self.bootstrap else np.arange(n))
        grow_trees(self.trees_, X, y, samples)
        importances = np.zeros(d)
        oob_votes = np.zeros(n)
        oob_counts = np.zeros(n)
        for tree, idx in zip(self.trees_, samples):
            importances += tree.feature_importances_
            if self.bootstrap and self.oob_score:
                oob_mask = np.ones(n, dtype=bool)
                oob_mask[np.unique(idx)] = False
                if oob_mask.any():
                    oob_votes[oob_mask] += tree.decision_score(X[oob_mask])
                    oob_counts[oob_mask] += 1
        self.feature_importances_ = importances / self.n_estimators
        if self.bootstrap and self.oob_score:
            seen = oob_counts > 0
            if seen.any():
                pred = (oob_votes[seen] / oob_counts[seen]) > 0.5
                self.oob_score_ = float(np.mean(pred.astype(int) == y[seen]))
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "trees_")
        X = check_X(X)
        self._check_n_features(X)
        # built on first use, never in fit
        pack = getattr(self, "_pack", None)
        if pack is None:
            pack = self._pack = TreePack(self.trees_)
        p1 = pack.score_sum(X) / len(self.trees_)
        return np.column_stack([1.0 - p1, p1])

    def split_thresholds(self) -> dict[int, np.ndarray]:
        """Union of per-feature split thresholds across all trees, sorted.

        Memoized: the forest is walked once per fit, not once per
        candidates generator (the multi-user service builds one
        generator per (user, time point) against the same model).
        """
        check_fitted(self, "trees_")
        cached = getattr(self, "_split_thresholds_cache", None)
        if cached is None:
            merged: dict[int, set[float]] = {}
            for tree in self.trees_:
                for feature, thresholds in tree.split_thresholds().items():
                    merged.setdefault(feature, set()).update(thresholds.tolist())
            cached = {
                feature: np.array(sorted(values))
                for feature, values in merged.items()
            }
            for values in cached.values():
                values.setflags(write=False)
            self._split_thresholds_cache = cached
        # shallow copy + read-only arrays: callers may filter/pop entries,
        # and in-place array mutation raises instead of corrupting the
        # cache shared by every generator
        return dict(cached)

    def n_nodes(self) -> int:
        """Total node count across all trees (size diagnostic)."""
        check_fitted(self, "trees_")
        return sum(tree.n_nodes_ for tree in self.trees_)
