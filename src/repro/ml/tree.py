"""CART decision-tree classifier.

This is the base learner of the paper's model class (H2O random forests in
the original demo).  Beyond ``fit``/``predict_proba`` the tree exposes its
internal structure — :meth:`DecisionTreeClassifier.decision_path` and
:meth:`DecisionTreeClassifier.split_thresholds` — because the
candidate-generation heuristic of Deutch & Frost proposes moves that cross
specific split thresholds (see :mod:`repro.core.moves`).

Splits are axis-aligned ``x[feature] <= threshold`` tests chosen to
maximise impurity decrease (Gini by default, entropy optional).  One
grower, :func:`grow_trees`, fits a lone tree and all the trees of a
forest: it grows the trees in lock-step and searches every split of a
step — all (node, drawn feature) pairs of all trees — in one vectorised
pass, while each tree still splits its nodes, and draws their features
on its own generator, in pre-order.  Fitted trees are scored through
:class:`TreePack`, one descent over all trees' flattened nodes.
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
        """Yield this node and all descendants, pre-order.

        An explicit stack (right child pushed before left), so a tree of
        any depth can be walked without reaching the recursion limit.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)


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
        grow_trees([self], X, y, [np.arange(y.size)])
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


def grow_trees(trees, X: np.ndarray, y: np.ndarray, samples) -> None:
    """Fit ``trees`` in lock-step: tree ``j`` grows on rows ``samples[j]``
    of the validated ``X``/``y``.

    The trees share one configuration (a forest's, or a lone tree's).
    Each tree keeps a stack of the nodes it has still to split, and every
    step pops nodes off all unfinished trees' stacks and searches their
    splits at once (:func:`_best_splits`).  A tree that draws split
    features pops one node a step, so it searches its nodes in
    pre-order and its generator sees the draws in the order a recursive
    grower makes them; a tree that examines every feature draws nothing
    and pops its whole stack.  A new node whose class counts, size or
    depth rule a split out is a leaf at once and never waits on a
    stack, so it costs no step of its own.  Node ids and feature
    importances are assigned in one pre-order walk of each tree at the
    end, so they too come in the recursive order.  Per node remain the
    node object, the draw and the partition of its rows; every float is
    computed by the same operations on the same operands as a search over
    one node and one feature at a time, so the trees are identical.
    """
    n_features = X.shape[1]
    flat_X = X.ravel()
    # each value's dense rank in its column: equal values share a rank,
    # so a stable sort by (segment, rank) is a stable sort by value
    rank = np.empty(X.shape, dtype=np.int64)
    for f in range(n_features):
        rank[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    flat_rank = rank.ravel()
    n_ranks = int(flat_rank.max()) + 1
    spec = trees[0]
    gini = spec.criterion == "gini"
    features = np.arange(n_features)
    n_drawn = None  # validated at the first split search, not before
    for tree in trees:
        tree.n_features_ = n_features
        tree._rng = as_rng(tree.random_state)
        tree._impurity = _IMPURITY[tree.criterion]
    #: nodes to split, per tree: (tree index, rows, node)
    stacks: list[list] = [[] for _ in trees]
    #: id(node) -> the node's importance increment, gain x samples
    weighted_gain: dict[int, float] = {}
    #: nodes to create: (tree index, rows, depth, parent, is a left child)
    new = [(j, rows, 0, None, False) for j, rows in enumerate(samples)]
    while True:
        if new:
            for (j, rows, _, parent, is_left), node, splittable in zip(
                new, *_new_nodes(new, y, gini, spec)
            ):
                if parent is None:
                    trees[j].root_ = node
                elif is_left:
                    parent.left = node
                else:
                    parent.right = node
                if splittable:
                    stacks[j].append((j, rows, node))
        live = [stack for stack in stacks if stack]
        if not live:
            break
        if n_drawn is None:
            n_drawn = spec._n_split_features()
        if n_drawn == n_features:
            popped = [entry for stack in live for entry in stack]
            for stack in live:
                stack.clear()
            drawn = np.tile(features, (len(popped), 1))
        else:
            popped = [stack.pop() for stack in live]
            drawn = np.array([
                trees[j]._rng.choice(features, size=n_drawn, replace=False)
                for j, _, _ in popped
            ])
        new = []
        for i, feature, threshold, gain in _best_splits(
            flat_X, flat_rank, n_ranks, n_features, y, popped, drawn,
            spec.min_samples_leaf, gini,
        ):
            j, rows, node = popped[i]
            node.feature = feature
            node.threshold = threshold
            weighted_gain[id(node)] = gain * node.n_samples
            left = flat_X[rows * n_features + feature] <= threshold
            # the right child is stacked first, so the left one is split first
            new.append((j, rows[~left], node.depth + 1, node, False))
            new.append((j, rows[left], node.depth + 1, node, True))
    for tree in trees:
        importances = np.zeros(n_features)
        node_id = 0
        walk = [tree.root_]
        while walk:
            node = walk.pop()
            node.node_id = node_id
            node_id += 1
            if node.feature is not None:
                importances[node.feature] += weighted_gain[id(node)]
                walk.append(node.right)
                walk.append(node.left)
        total = importances.sum()
        tree.feature_importances_ = importances / total if total > 0 else importances
        tree.n_nodes_ = node_id
        tree._flat = None


def _stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """Stable ``argsort`` of an integer ``key`` in ``[0, bound)``: a least
    significant digit first radix sort, 16 bits a pass (NumPy sorts
    16-bit integers stably by radix)."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    shift = 16
    while (bound - 1) >> shift:
        digit = (key[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """True where a run of equal values in ``ids`` starts."""
    starts = np.empty(ids.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=starts[1:])
    return starts


def _new_nodes(new, y, gini, spec) -> tuple[list[TreeNode], list[bool]]:
    """The nodes for ``new``'s ``(tree, rows, depth, ...)`` entries, each
    with its class counts and impurity, and whether each may be split."""
    sizes = [rows.size for _, rows, *_ in new]
    owner = np.arange(len(new)).repeat(sizes)
    labels = y[np.concatenate([rows for _, rows, *_ in new])]
    counts = np.bincount(2 * owner + labels, minlength=2 * len(new))
    counts = counts.reshape(-1, 2).astype(float)
    impurity = _node_impurity(counts, gini)
    depths = [depth for _, _, depth, *_ in new]
    splittable = (impurity != 0.0) & (np.array(sizes) >= spec.min_samples_split)
    if spec.max_depth is not None:
        splittable &= np.array(depths) < spec.max_depth
    nodes = [
        TreeNode(
            n_samples=size,
            value=value.copy(),
            impurity=node_impurity,
            depth=depth,
        )
        for size, value, node_impurity, depth in zip(
            sizes, counts, impurity.tolist(), depths
        )
    ]
    return nodes, splittable.tolist()


def _node_impurity(counts: np.ndarray, gini: bool) -> np.ndarray:
    """:func:`_gini` or :func:`_entropy` of each row of class counts, with
    the same operations (a pure node's entropy is ``-0.0`` there too)."""
    total = counts[:, 0] + counts[:, 1]
    # an empty node (possible when a threshold rounds onto a value) is 0
    p = counts / np.maximum(total, 1.0)[:, None]
    if gini:
        impurity = 1.0 - (p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1])
    else:
        terms = p * np.log2(np.where(p > 0, p, 1.0))
        impurity = -(terms[:, 0] + terms[:, 1])
    return np.where(total > 0, impurity, 0.0)


def _best_splits(
    flat_X, flat_rank, n_ranks, n_features, y, popped, drawn, min_samples_leaf, gini
) -> list[tuple[int, int, float, float]]:
    """``(i, feature, threshold, gain)`` for each node ``popped[i] = (tree,
    rows, node)`` that has a split on one of its features ``drawn[i]``.

    Each (node, feature) pair is one segment of a single array: one
    stable sort by (segment, value rank) orders every segment as the
    column's stable ``argsort`` would, segment-local cumulative counts
    give each candidate's class counts, and the per-candidate impurity
    expressions, the first argmin per segment and the choice of feature
    (largest gain above ``1e-12``, the earliest drawn on ties) are the
    ones a search over one node and one feature at a time makes.
    """
    size = np.array([rows.size for _, rows, _ in popped])
    impurity = np.array([node.impurity for _, _, node in popped])
    k = drawn.shape[1]
    seg_size = size.repeat(k)
    seg_end = seg_size.cumsum()
    seg_start = seg_end - seg_size
    segment = np.arange(seg_size.size).repeat(seg_size)
    # entry e of segment s is row e - seg_start[s] of node s // k
    node_start = size.cumsum() - size
    row = np.concatenate([rows for _, rows, _ in popped])[
        np.arange(seg_end[-1]) + (node_start.repeat(k) - seg_start).repeat(seg_size)
    ]
    cell = row * n_features + drawn.ravel()[segment]
    key = segment * n_ranks + flat_rank[cell]
    order = _stable_order(key, seg_size.size * n_ranks)
    key, cell = key[order], cell[order]
    pos_cum = np.zeros(key.size + 1, dtype=np.int64)
    y[row[order]].cumsum(out=pos_cum[1:])
    # candidate split positions: where consecutive values of a segment
    # differ, i.e. their ranks do
    differ = key[1:] != key[:-1]
    differ[seg_end[:-1] - 1] = False
    cand = differ.nonzero()[0]
    if not cand.size:
        return []
    cand_seg = segment[cand]
    left_n = cand - seg_start[cand_seg] + 1
    n = seg_size[cand_seg]
    right_n = n - left_n
    valid = (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    left_pos = (pos_cum[cand + 1] - pos_cum[seg_start[cand_seg]]).astype(float)
    left_neg = left_n - left_pos
    total_pos = (pos_cum[seg_end] - pos_cum[seg_start])[cand_seg]
    right_pos = total_pos - left_pos
    right_neg = right_n - right_pos
    if gini:
        left_imp = 1.0 - ((left_pos / left_n) ** 2 + (left_neg / left_n) ** 2)
        right_imp = 1.0 - ((right_pos / right_n) ** 2 + (right_neg / right_n) ** 2)
    else:
        left_imp = _entropy_vec(left_pos, left_neg)
        right_imp = _entropy_vec(right_pos, right_neg)
    weighted = (left_n * left_imp + right_n * right_imp) / n
    weighted[~valid] = np.inf
    # the first argmin of each segment that has a candidate
    starts = _run_starts(cand_seg)
    seg_min = np.minimum.reduceat(weighted, starts.nonzero()[0])
    hit = (weighted == seg_min[starts.cumsum() - 1]).nonzero()[0]
    hit = hit[_run_starts(cand_seg[hit])]
    found, best = cand_seg[hit], cand[hit]
    gain = np.empty(seg_size.size)
    gain.fill(-np.inf)
    gain[found] = impurity[found // k] - weighted[hit]
    threshold = np.zeros(seg_size.size)
    threshold[found] = (flat_X[cell[best]] + flat_X[cell[best + 1]]) / 2.0
    # per node, the first drawn feature whose gain is largest and > 1e-12
    gain = gain.reshape(-1, k)
    eligible = gain > 1e-12
    pick = np.where(eligible, gain, -np.inf).argmax(axis=1)
    split = eligible[np.arange(pick.size), pick].nonzero()[0]
    seg = split * k + pick[split]
    return list(zip(
        split.tolist(),
        drawn.ravel()[seg].tolist(),
        threshold[seg].tolist(),
        gain.ravel()[seg].tolist(),
    ))


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
