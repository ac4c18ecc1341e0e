"""Pinned fits: the SHA-256 of ``canonical_bytes`` for fitted models and
for hand-built tree-node structures.

A model's content fingerprint is the staleness ledger's key: a grower or
an encoder that moves one byte of it recomputes every stored cell after
the next refit, and the golden store digests hash those fingerprints.
These pins hold the bytes themselves, over more hyper-parameters than the
golden workloads reach: both criteria, bounded and unbounded depth, every
``max_features`` form, leaf and split minimums, no bootstrap, out-of-bag
scoring, lone trees, a single-class target, a constant column and data
with ties.  The encoder cases cover the node shapes a fitted tree never
has (numpy scalar fields, a signed zero, a float32 class-count array, an
extra or a deleted attribute) and a chain deeper than the recursion
limit.  Beyond the pins, random fits are compared with the recursive
grower the lock-stepped one replaced, kept here as the reference.

The digests hash float ``repr``s, so they are platform data: they were
captured with Python 3.11.7 and NumPy 2.4.6, with the recursive grower.
To regenerate, print ``_digest(fit_case(name))``,
``_digest(ENCODER_CASES[name]())`` and the pickle digests, and edit the
constants; there is no switch for it.
"""

import hashlib
import pickle
import struct

import numpy as np
import pytest

from repro.data import make_lending_dataset
from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.base import as_rng, check_X_y
from repro.ml.tree import _IMPURITY, TreeNode, _entropy, _entropy_vec
from repro.temporal.fingerprint import canonical_bytes


def _digest(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def lending():
    ds = make_lending_dataset(n_per_year=40, random_state=1)
    return ds.X, ds.y


def ties():
    """Features rounded to 0.1: many equal values per column."""
    rng = np.random.default_rng(2022)
    X = np.round(rng.normal(size=(150, 5)), 1)
    y = (X[:, 0] - X[:, 2] + rng.normal(scale=0.5, size=150) > 0).astype(int)
    return X, y


def single_class():
    X, y = lending()
    return X, np.ones_like(y)


def constant_column():
    X, y = lending()
    X = X.copy()
    X[:, 2] = 7.5
    return X, y


def forest(**params):
    return RandomForestClassifier(n_estimators=6, **params)


#: name -> (data, unfitted model)
FIT_CASES = {
    "forest-gini": (lending, lambda: forest(random_state=0)),
    "forest-entropy": (lending, lambda: forest(criterion="entropy", random_state=1)),
    "forest-depth-3": (lending, lambda: forest(max_depth=3, random_state=2)),
    "forest-depth-10": (lending, lambda: forest(max_depth=10, random_state=3)),
    "forest-entropy-depth-3": (
        ties,
        lambda: forest(criterion="entropy", max_depth=3, random_state=4),
    ),
    "forest-all-features": (lending, lambda: forest(max_features=None, random_state=5)),
    "forest-4-features": (lending, lambda: forest(max_features=4, random_state=6)),
    "forest-half-features": (lending, lambda: forest(max_features=0.5, random_state=7)),
    "forest-min-leaf-5": (lending, lambda: forest(min_samples_leaf=5, random_state=8)),
    "forest-min-split-10": (
        lending,
        lambda: forest(min_samples_split=10, random_state=9),
    ),
    "forest-no-bootstrap": (lending, lambda: forest(bootstrap=False, random_state=10)),
    "forest-oob": (lending, lambda: forest(oob_score=True, random_state=11)),
    "tree-gini": (lending, lambda: DecisionTreeClassifier(random_state=12)),
    "tree-entropy": (
        ties,
        lambda: DecisionTreeClassifier(
            criterion="entropy", max_features="sqrt", random_state=13
        ),
    ),
    "single-class": (single_class, lambda: forest(random_state=14)),
    "constant-column": (constant_column, lambda: forest(random_state=15)),
    "ties-gini-depth-10": (ties, lambda: forest(max_depth=10, random_state=16)),
    "ties-entropy": (ties, lambda: forest(criterion="entropy", random_state=17)),
    "benchmark-forest": (
        lending,
        lambda: RandomForestClassifier(n_estimators=25, max_depth=10, random_state=0),
    ),
}

FIT_PINS = {
    "benchmark-forest": "b7291023864df9a1be2588d3723f7bf582c81c86ef1977c72cf861e8be05562a",
    "constant-column": "787f790dd9145a58f0ac1c6de9986f8885b5ec37d165cf126342f75269cab977",
    "forest-4-features": "301bde335f34fa8551eea571ed48f04065d7dc7d3eb57216da45b54fa90df7a9",
    "forest-all-features": "e839398f4fb57a19b43b7cfdc3f461e00bd9ca98d91bc82abecd41bfa7115bc7",
    "forest-depth-10": "dd424c30b084fb14ada2a6d5119cc51fc3fe4132faa1f2c5cee4f69bde9bf5b5",
    "forest-depth-3": "916b55b72fce5f18434116b44c60de81100feda186a33e17c0b6d37ff1880475",
    "forest-entropy": "3b74b33ff35a6434b4218fd9908a9e5795ddc9baa8f357c48d5167a509fd458c",
    "forest-entropy-depth-3": "509ee789f8f9364b9044c237c025519173be093920d562b8a4a05cf48b1c2583",
    "forest-gini": "a2a5dc4cd6106296f82cf382cd06c287401579d77aa45b0fff9952bffc5edc8a",
    "forest-half-features": "326a69ce501d584ba1f0af3b5528275d1cd9cd1950669ddc6af927ec539d7720",
    "forest-min-leaf-5": "00d014770c20819c1766aaf2c444d12dd9fcd57f71f3f7aebaccdfd974785e7e",
    "forest-min-split-10": "80b8b1621368d0eb32758ee379d6d80f475eb807259a0a6b9b9b6e9d4b6f8234",
    "forest-no-bootstrap": "fe0beabf78551c94422574917088710bdd1b00d9f2dc395f00dcb6b3f024271d",
    "forest-oob": "04dc9ed1d8c74e77878384d2d091f59cb45ef23580fd6e40d92e1bdbb74936c3",
    "single-class": "7b5264af05132573344a5b5490393f7095ac73cb31efa600ff23a238f51d9046",
    "ties-entropy": "526d9da95da1d3e8b999510c1e51437acaf8e008497c4479588001afa6028362",
    "ties-gini-depth-10": "b492af64e1f71da4ed695a06fab68ada2306686fb0175b5e287644f19ccc5b08",
    "tree-entropy": "5fa5425de3dc6d5a797c51ccb0de40d945a43377b64226efc68863eb1f70f50a",
    "tree-gini": "6b0f84e41e35b9101d6bf16a31c27931c05dafd807faec3a9abc4a75857e858d",
}


def fit_case(name):
    data, make = FIT_CASES[name]
    X, y = data()
    return make().fit(X, y)


def _trees(model):
    return model.trees_ if hasattr(model, "trees_") else [model]


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_fit_pin(name):
    assert _digest(fit_case(name)) == FIT_PINS[name]


@pytest.mark.parametrize(
    "name", sorted(n for n in FIT_CASES if "entropy" in n)
)
def test_entropy_impurity_keeps_its_sign(name):
    # canonical_bytes normalises -0.0, so the pins cannot see a pure
    # node's impurity flip sign; compare the raw bits instead
    model = fit_case(name)
    for tree in _trees(model):
        for node in tree.root_.iter_nodes():
            assert struct.pack("<d", node.impurity) == struct.pack(
                "<d", _entropy(node.value)
            )


def test_fitted_node_fields_are_python_scalars():
    model = fit_case("forest-gini")
    for tree in model.trees_:
        for i, node in enumerate(tree.root_.iter_nodes()):
            assert node.node_id == i
            assert type(node.n_samples) is int and type(node.depth) is int
            assert type(node.impurity) is float
            assert type(node.value) is np.ndarray
            assert node.value.dtype == np.float64 and node.value.shape == (2,)
            assert node.value.base is None
            if not node.is_leaf:
                assert type(node.feature) is int
                assert type(node.threshold) is float


#: SHA-256 of ``pickle.dumps(model, protocol=5)``: checkpoints pickle the
#: fitted models, so attribute order and field types show here too
PICKLE_PINS = {
    "benchmark-forest": "e736609e3333ab015acf699c49f10610f87b6ab571761338745174f6ff8b1c93",
    "forest-oob": "b9ad420057650350f73935e55e534f78e133448115a58ee3bcc61722f20828ff",
    "tree-entropy": "45d8781d99b811ca95c913842c44b9002e6689f6854a8d8575cf18ec4198a5bb",
}


@pytest.mark.parametrize("name", sorted(PICKLE_PINS))
def test_pickle_pin(name):
    data = pickle.dumps(fit_case(name), protocol=5)
    assert hashlib.sha256(data).hexdigest() == PICKLE_PINS[name]


def test_invalid_max_features_raises_only_at_a_split():
    X, y = lending()
    # a pure root never draws split features, so it never checks them
    DecisionTreeClassifier(max_features=99).fit(X, np.zeros_like(y))
    forest(max_features=0, random_state=0).fit(X, np.ones_like(y))
    with pytest.raises(ValueError, match="max_features"):
        DecisionTreeClassifier(max_features=99).fit(X, y)
    with pytest.raises(ValueError, match="max_features"):
        forest(max_features=1.5, random_state=0).fit(X, y)


# ------------------------------------------------- the recursive reference


class RecursiveTree(DecisionTreeClassifier):
    """The recursive grower the lock-stepped one replaced: one node at a
    time, one feature at a time.  Kept as the reference the grower must
    equal on any data, beyond the pinned cases."""

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.n_features_ = X.shape[1]
        self._rng = as_rng(self.random_state)
        self._impurity = _IMPURITY[self.criterion]
        importances = np.zeros(self.n_features_)
        self.root_ = self._grow(X, y, 0, importances)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        for node_id, node in enumerate(self.root_.iter_nodes()):
            node.node_id = node_id
        self.n_nodes_ = node_id + 1
        self._flat = None
        return self

    def _grow(self, X, y, depth, importances):
        counts = np.bincount(y, minlength=2).astype(float)
        node = TreeNode(y.size, counts, self._impurity(counts), depth)
        if (
            node.impurity == 0.0
            or y.size < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        split = self._best_split(X, y, node.impurity)
        if split is None:
            return node
        node.feature, node.threshold, gain = split
        mask = X[:, node.feature] <= node.threshold
        importances[node.feature] += gain * y.size
        node.left = self._grow(X[mask], y[mask], depth + 1, importances)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, importances)
        return node

    def _best_split(self, X, y, parent_impurity):
        n = y.size
        features = np.arange(self.n_features_)
        k = self._n_split_features()
        if k < self.n_features_:
            features = self._rng.choice(features, size=k, replace=False)
        best = None
        for feature in features:
            order = np.argsort(X[:, feature], kind="stable")
            col, y_sorted = X[order, feature], y[order]
            diff = np.nonzero(np.diff(col))[0]
            left_n = diff + 1
            right_n = n - left_n
            valid = (left_n >= self.min_samples_leaf) & (right_n >= self.min_samples_leaf)
            if not valid.any():
                continue
            pos_cum = np.cumsum(y_sorted)
            left_pos = pos_cum[diff].astype(float)
            left_neg = left_n - left_pos
            right_pos = pos_cum[-1] - left_pos
            right_neg = right_n - right_pos
            if self.criterion == "gini":
                left_imp = 1.0 - ((left_pos / left_n) ** 2 + (left_neg / left_n) ** 2)
                right_imp = 1.0 - ((right_pos / right_n) ** 2 + (right_neg / right_n) ** 2)
            else:
                left_imp = _entropy_vec(left_pos, left_neg)
                right_imp = _entropy_vec(right_pos, right_neg)
            weighted = (left_n * left_imp + right_n * right_imp) / n
            weighted[~valid] = np.inf
            i = int(np.argmin(weighted))
            gain = parent_impurity - weighted[i]
            if gain > 1e-12 and (best is None or gain > best[2]):
                threshold = (col[diff[i]] + col[diff[i] + 1]) / 2.0
                best = (int(feature), float(threshold), float(gain))
        return best


def random_case(seed):
    """Data with ties, signed zeros or one class, and hyper-parameters,
    drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 200)), int(rng.integers(1, 7))
    X = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 100.0])
    if rng.random() < 0.5:
        X = np.round(X, int(rng.integers(0, 2)))
    if rng.random() < 0.2:
        X[:, 0] = np.where(np.arange(n) % 2, 0.0, -0.0)
    y = (X[:, 0] + rng.normal(size=n) > 0).astype(int)
    if rng.random() < 0.1:
        y[:] = 1
    params = dict(
        criterion=("gini", "entropy")[int(rng.integers(0, 2))],
        max_depth=(None, 1, 3, 10)[int(rng.integers(0, 4))],
        max_features=(None, "sqrt", 1, 0.5)[int(rng.integers(0, 4))],
        min_samples_leaf=int(rng.integers(1, 5)),
        min_samples_split=int(rng.integers(2, 10)),
    )
    return X, y, params


def _state_bytes(tree) -> bytes:
    # the instance state, class tag aside: nodes, importances, ids and
    # the generator's state after the fit
    return canonical_bytes(vars(tree))


@pytest.mark.parametrize("seed", range(40))
def test_lone_tree_equals_the_recursive_grower(seed):
    X, y, params = random_case(seed)
    tree = DecisionTreeClassifier(random_state=seed, **params).fit(X, y)
    reference = RecursiveTree(random_state=seed, **params).fit(X, y)
    assert _state_bytes(tree) == _state_bytes(reference)
    signs = [struct.pack("<d", node.impurity) for node in tree.root_.iter_nodes()]
    assert signs == [struct.pack("<d", node.impurity) for node in reference.root_.iter_nodes()]


@pytest.mark.parametrize("seed", range(40, 60))
def test_forest_trees_equal_the_recursive_grower(seed):
    X, y, params = random_case(seed)
    bootstrap = seed % 4 != 0
    forest = RandomForestClassifier(
        n_estimators=7, bootstrap=bootstrap, random_state=seed, **params
    ).fit(X, y)
    # the forest's draws, as it makes them: a seed, then a bootstrap sample
    rng = as_rng(seed)
    n = y.size
    for tree in forest.trees_:
        tree_seed = int(rng.integers(0, 2**31 - 1))
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        reference = RecursiveTree(random_state=tree_seed, **params).fit(X[idx], y[idx])
        assert _state_bytes(tree) == _state_bytes(reference)


# ------------------------------------------------------------ encoder cases


def _leaf(counts, node_id, depth=1):
    value = np.array(counts, dtype=float)
    return TreeNode(
        n_samples=int(value.sum()),
        value=value,
        impurity=0.0,
        depth=depth,
        node_id=node_id,
    )


def stump(**fields):
    root = TreeNode(
        n_samples=5,
        value=np.array([2.0, 3.0]),
        impurity=0.48,
        depth=0,
        feature=1,
        threshold=0.5,
        left=_leaf([2, 0], 1),
        right=_leaf([0, 3], 2),
        node_id=0,
    )
    for name, value in fields.items():
        setattr(root, name, value)
    return root


def without_node_id():
    root = stump()
    # the attribute now reads the class default and is absent from __dict__
    del root.node_id
    return root


def mixed():
    root = stump()
    root.left.note = "extra"
    root.right.impurity = -0.0
    return root


def deep_chain(depth=5000):
    """A left chain deeper than the interpreter's recursion limit."""
    node = _leaf([1, 0], depth, depth=depth)
    for level in range(depth - 1, -1, -1):
        node = TreeNode(
            n_samples=depth - level + 1,
            value=np.array([float(depth - level), 1.0]),
            impurity=0.25,
            depth=level,
            feature=level % 3,
            threshold=level + 0.5,
            left=node,
            node_id=level,
        )
    return node


ENCODER_CASES = {
    "plain-stump": stump,
    "int64-feature": lambda: stump(feature=np.int64(1)),
    "float64-threshold": lambda: stump(threshold=np.float64(0.5)),
    "negative-zero-impurity": lambda: stump(impurity=-0.0),
    "float32-value": lambda: stump(value=np.array([2.0, 3.0], dtype=np.float32)),
    "extra-attribute": lambda: stump(note="extra"),
    "deleted-node-id": without_node_id,
    "mixed-children": mixed,
    "deep-chain": deep_chain,
}

ENCODER_PINS = {
    "deep-chain": "133f907a603e689b1aeb98fd913bf258cb35be9a26ab96c649670510756c3f1a",
    "deleted-node-id": "844f02d2cf25b0b1fc4e495f3b00c5e793130abbcd5e5d1b74390b3e0f70871e",
    "extra-attribute": "d58f78e31e5d88289f5cb815dc54e93fd6de143252e663107eb698bc8ea8f467",
    "float32-value": "2b3a19672f714b9c2c1633299fb0de7ca95e276086598ccbd389c07b8ba6974f",
    "float64-threshold": "a7203ea592143852388ef605d3d64dbcdd33ef393cc4a081e8f70c772515334b",
    "int64-feature": "a7203ea592143852388ef605d3d64dbcdd33ef393cc4a081e8f70c772515334b",
    "mixed-children": "d78bbae117bbc598fb66f9db9a00b86a9de22faf6e520203708ec859b01d4d1b",
    "negative-zero-impurity": "b229d1cf3461c50b6ab4146b4cd0eb18590ed675e1b7467583c424b93928ec19",
    "plain-stump": "a7203ea592143852388ef605d3d64dbcdd33ef393cc4a081e8f70c772515334b",
}


@pytest.mark.parametrize("name", sorted(ENCODER_CASES))
def test_encoder_pin(name):
    assert _digest(ENCODER_CASES[name]()) == ENCODER_PINS[name]
