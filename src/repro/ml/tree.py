"""CART decision-tree classifier.

This is the base learner of the paper's model class (H2O random forests in
the original demo).  Beyond ``fit``/``predict_proba`` the tree exposes its
internal structure — :meth:`DecisionTreeClassifier.decision_path` and
:meth:`DecisionTreeClassifier.split_thresholds` — because the
candidate-generation heuristic of Deutch & Frost proposes moves that cross
specific split thresholds (see :mod:`repro.core.moves`).

Splits are axis-aligned ``x[feature] <= threshold`` tests chosen to
maximise impurity decrease (Gini by default, entropy optional).  Split
finding is vectorised over candidate thresholds per feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.base import BaseClassifier, as_rng, check_X, check_X_y

__all__ = ["TreeNode", "DecisionTreeClassifier"]


@dataclass
class TreeNode:
    """A node of a fitted decision tree.

    Leaves have ``feature is None`` and carry the class distribution of the
    training samples that reached them.  Internal nodes route samples with
    ``x[feature] <= threshold`` to ``left`` and the rest to ``right``.
    """

    n_samples: int
    value: np.ndarray  # class counts, shape (2,)
    impurity: float
    depth: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    node_id: int = field(default=-1)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def probability(self) -> float:
        """Positive-class probability estimate at this node."""
        total = self.value.sum()
        if total == 0:
            return 0.5
        return float(self.value[1] / total)

    def iter_nodes(self) -> Iterator["TreeNode"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        if self.left is not None:
            yield from self.left.iter_nodes()
        if self.right is not None:
            yield from self.right.iter_nodes()


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


_IMPURITY = {"gini": _gini, "entropy": _entropy}


class DecisionTreeClassifier(BaseClassifier):
    """Binary CART classifier.

    Parameters
    ----------
    criterion:
        ``'gini'`` or ``'entropy'``.
    max_depth:
        Maximum tree depth; ``None`` grows until pure or until
        ``min_samples_split`` stops growth.
    min_samples_split:
        Minimum number of samples a node needs to be considered for a split.
    min_samples_leaf:
        Minimum number of samples each child of a split must retain.
    max_features:
        Number of features examined per split: ``None`` (all), an int, a
        float fraction, or ``'sqrt'`` — random forests pass ``'sqrt'``.
    random_state:
        Seeds the feature subsampling.
    """

    _fitted_caches = {"_flat": None}

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ):
        if criterion not in _IMPURITY:
            raise ValueError(f"criterion must be one of {sorted(_IMPURITY)}")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: TreeNode | None = None
        self.n_features_: int | None = None
        self.n_nodes_: int | None = None
        self.feature_importances_: np.ndarray | None = None
        self._flat: TreePack | None = None

    # ------------------------------------------------------------------ fit

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        self.n_features_ = X.shape[1]
        self._rng = as_rng(self.random_state)
        self._impurity = _IMPURITY[self.criterion]
        importances = np.zeros(self.n_features_)
        self.root_ = self._grow(X, y, depth=0, importances=importances)
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        self.n_nodes_ = self._assign_ids()
        self._flat = None
        return self

    def _n_split_features(self) -> int:
        d = self.n_features_
        mf = self.max_features
        if mf is None:
            return d
        if mf == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("float max_features must be in (0, 1]")
            return max(1, int(mf * d))
        if isinstance(mf, int):
            if not 1 <= mf <= d:
                raise ValueError(f"int max_features must be in [1, {d}]")
            return mf
        raise ValueError(f"unsupported max_features: {mf!r}")

    def _grow(
        self, X: np.ndarray, y: np.ndarray, depth: int, importances: np.ndarray
    ) -> TreeNode:
        counts = np.bincount(y, minlength=2).astype(float)
        node = TreeNode(
            n_samples=y.size,
            value=counts,
            impurity=self._impurity(counts),
            depth=depth,
        )
        if (
            node.impurity == 0.0
            or y.size < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold, gain = split
        mask = X[:, feature] <= threshold
        importances[feature] += gain * y.size
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1, importances)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, importances)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, float] | None:
        """Return ``(feature, threshold, impurity_gain)`` or ``None``."""
        n = y.size
        parent_impurity = self._impurity(np.bincount(y, minlength=2).astype(float))
        features = np.arange(self.n_features_)
        k = self._n_split_features()
        if k < self.n_features_:
            features = self._rng.choice(features, size=k, replace=False)
        best: tuple[int, float, float] | None = None
        use_gini = self.criterion == "gini"
        for feature in features:
            col = X[:, feature]
            order = np.argsort(col, kind="stable")
            col_sorted = col[order]
            y_sorted = y[order]
            # candidate split positions: where consecutive values differ
            diff = np.nonzero(np.diff(col_sorted))[0]
            if diff.size == 0:
                continue
            # left sizes are diff + 1
            left_n = diff + 1
            right_n = n - left_n
            valid = (left_n >= self.min_samples_leaf) & (
                right_n >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            pos_cum = np.cumsum(y_sorted)
            left_pos = pos_cum[diff].astype(float)
            left_neg = left_n - left_pos
            total_pos = pos_cum[-1]
            right_pos = total_pos - left_pos
            right_neg = right_n - right_pos
            if use_gini:
                left_imp = 1.0 - (
                    (left_pos / left_n) ** 2 + (left_neg / left_n) ** 2
                )
                right_imp = 1.0 - (
                    (right_pos / right_n) ** 2 + (right_neg / right_n) ** 2
                )
            else:
                left_imp = _entropy_vec(left_pos, left_neg)
                right_imp = _entropy_vec(right_pos, right_neg)
            weighted = (left_n * left_imp + right_n * right_imp) / n
            weighted[~valid] = np.inf
            best_idx = int(np.argmin(weighted))
            gain = parent_impurity - weighted[best_idx]
            if gain <= 1e-12:
                continue
            lo = col_sorted[diff[best_idx]]
            hi = col_sorted[diff[best_idx] + 1]
            threshold = (lo + hi) / 2.0
            if best is None or gain > best[2]:
                best = (int(feature), float(threshold), float(gain))
        return best

    def _assign_ids(self) -> int:
        next_id = 0
        for node in self.root_.iter_nodes():
            node.node_id = next_id
            next_id += 1
        return next_id

    # -------------------------------------------------------------- predict

    def predict_proba(self, X) -> np.ndarray:
        X = check_X(X)
        self._check_n_features(X)
        # a lone tree is a one-tree pack, built on first use; getattr and
        # isinstance: pickles from older versions lack ``_flat`` or hold
        # the per-tree array tuple it replaced
        pack = getattr(self, "_flat", None)
        if not isinstance(pack, TreePack):
            pack = self._flat = TreePack([self])
        p1 = pack.score_sum(X)
        return np.column_stack([1.0 - p1, p1])

    # ---------------------------------------------------------- introspection

    def decision_path(self, x) -> list[TreeNode]:
        """Return the root-to-leaf node sequence for a single sample."""
        x = np.asarray(x, dtype=float).ravel()
        if self.root_ is None:
            raise ValidationError("tree is not fitted")
        if x.size != self.n_features_:
            raise ValidationError(
                f"expected {self.n_features_} features, got {x.size}"
            )
        path = []
        node = self.root_
        while True:
            path.append(node)
            if node.is_leaf:
                return path
            node = node.left if x[node.feature] <= node.threshold else node.right

    def split_thresholds(self) -> dict[int, np.ndarray]:
        """Return ``{feature: sorted unique thresholds}`` over the whole tree.

        These are exactly the decision boundaries of the tree along each
        axis; the candidate search perturbs features just across them.
        """
        if self.root_ is None:
            raise ValidationError("tree is not fitted")
        per_feature: dict[int, set[float]] = {}
        for node in self.root_.iter_nodes():
            if not node.is_leaf:
                per_feature.setdefault(node.feature, set()).add(node.threshold)
        return {
            feature: np.array(sorted(values))
            for feature, values in per_feature.items()
        }

    def depth(self) -> int:
        """Return the maximum depth of the fitted tree (root = 0)."""
        if self.root_ is None:
            raise ValidationError("tree is not fitted")
        return max(node.depth for node in self.root_.iter_nodes())

    def leaves(self) -> list[TreeNode]:
        """Return all leaf nodes."""
        if self.root_ is None:
            raise ValidationError("tree is not fitted")
        return [node for node in self.root_.iter_nodes() if node.is_leaf]


class TreePack:
    """Fitted trees as one set of flat arrays, scored by one descent.

    Every tree's nodes are concatenated at a node offset.  Pack node
    ``i`` tests ``x[feature[i]] <= threshold[i]`` and moves to
    ``child[2 * i + 1]`` when the test holds, else to ``child[2 * i]``.
    A leaf is a self-loop — feature 0, threshold ``+inf``, both children
    itself — so a row at a leaf stays there (``X`` is finite after
    :func:`~repro.ml.base.check_X`) and the descent keeps no active set.
    Trees are stored deepest first: step ``k`` advances only the prefix
    of trees deeper than ``k``, so one deep tree does not make the
    shallow ones pay its depth.

    Leaf probabilities use the exact :attr:`TreeNode.probability`
    formula and are added one tree at a time in the given tree order,
    as a loop of per-tree predictions would add them, so scores are
    bit-identical to the node walk of
    :meth:`DecisionTreeClassifier.decision_path`.
    """

    __slots__ = ("feature", "threshold", "child", "prob", "roots", "steps", "rank")

    def __init__(self, trees) -> None:
        flat = [_flat_nodes(tree.root_) for tree in trees]
        depth = np.array([tree_depth for *_, tree_depth in flat])
        order = np.argsort(-depth, kind="stable")
        feature, threshold, child, prob, _ = zip(*(flat[j] for j in order))
        self.roots = np.cumsum([0] + [nodes.size for nodes in feature[:-1]])
        self.feature = np.concatenate(feature)
        self.threshold = np.concatenate(threshold)
        self.child = np.concatenate([c + root for c, root in zip(child, self.roots)])
        self.prob = np.concatenate(prob)
        #: steps[k]: how many trees (a prefix, deepest first) are deeper than k
        self.steps = [int(np.count_nonzero(depth > k)) for k in range(depth.max())]
        #: rank[j]: the pack row holding tree j of the given order
        self.rank = np.argsort(order, kind="stable")

    def score_sum(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf probabilities summed over the trees, in order."""
        n, d = X.shape
        flat_X = X.ravel()
        row_start = np.arange(0, n * d, d)
        pos = np.repeat(self.roots[:, None], n, axis=1)
        for active in self.steps:
            at = pos[:active]
            go_left = (
                flat_X.take(self.feature.take(at) + row_start)
                <= self.threshold.take(at)
            )
            pos[:active] = self.child.take(2 * at + go_left)
        leaf_prob = self.prob.take(pos)
        # one tree at a time, in tree order: np.sum over the tree axis
        # adds pairwise and would move the last bit
        total = np.zeros(n)
        for row in self.rank:
            total += leaf_prob[row]
        return total


def _flat_nodes(root: TreeNode) -> tuple:
    """``(feature, threshold, child, prob, depth)`` of one tree, indexed
    by ``node_id`` with leaves as self-loops (see :class:`TreePack`)."""
    feature, threshold, child, prob = [], [], [], []
    depth = 0
    for node in root.iter_nodes():  # pre-order: position == node_id
        prob.append(node.probability)
        depth = max(depth, node.depth)
        if node.is_leaf:
            feature.append(0)
            threshold.append(np.inf)
            child += (node.node_id, node.node_id)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            child += (node.right.node_id, node.left.node_id)
    return (
        np.array(feature, dtype=np.intp),
        np.array(threshold, dtype=float),
        np.array(child, dtype=np.intp),
        np.array(prob, dtype=float),
        depth,
    )


def _entropy_vec(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    total = pos + neg
    with np.errstate(divide="ignore", invalid="ignore"):
        pp = np.where(total > 0, pos / total, 0.0)
        pn = np.where(total > 0, neg / total, 0.0)
        term_p = np.where(pp > 0, -pp * np.log2(pp), 0.0)
        term_n = np.where(pn > 0, -pn * np.log2(pn), 0.0)
    return term_p + term_n
