"""Deterministic content fingerprints for forecast models.

A refresh (``JustInTime.refresh``) must decide which time points' models
actually changed after a refit, so that only the stale (user, t) cells
are recomputed.  Object identity is useless for that — every refit
builds new objects — so each :class:`~repro.temporal.forecast.FutureModel`
carries a *content* fingerprint: a SHA-256 digest over the forecasting
strategy (class + configuration, which covers window widths etc.), the
generator seed, the calibrated threshold and the model's fitted
parameters.  Two fits from identical inputs produce identical digests;
any change to the training data that alters a model's parameters changes
its digest.

Hashing is structural, not ``pickle``-based: pickle byte streams depend
on memoisation order and protocol details, while :func:`canonical_bytes`
walks plain Python/numpy structures in a canonical order (dict keys
sorted, arrays as dtype + shape + raw bytes, objects as class name +
``__dict__``/``__slots__``), so the digest is reproducible across
processes.  The walk is iterative (explicit stack), so arbitrarily deep
models — e.g. depth-unbounded decision trees — hash fine.  Tree nodes,
most of a forest's bytes, go through a specialised encoder: a
:class:`~repro.ml.tree.TreeNode` with a fitted node's fields and field
types is written straight from its ``__dict__``, in the generic walk's
key order and with the same bytes, its subtrees in place; any other node
takes the generic path.
"""

from __future__ import annotations

import hashlib
import types

import numpy as np

from repro.ml.base import UNSET
from repro.ml.tree import TreeNode

__all__ = ["canonical_bytes", "content_fingerprint", "model_fingerprint", "walk_models"]

#: Digest length (hex chars) stored per model; 64 bits of SHA-256 is
#: plenty for "did this model change" comparisons.
_DIGEST_CHARS = 16


class _Emit:
    """Pre-rendered bytes on the work stack (vs. raw values to walk)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data


def _object_state(obj) -> dict:
    """Instance state from ``__dict__`` and/or ``__slots__`` (tree nodes
    are slotted for memory)."""
    state = dict(getattr(obj, "__dict__", ()) or ())
    slots = [
        name
        for klass in type(obj).__mro__
        for name in getattr(klass, "__slots__", ())
    ]
    for name in slots:
        if hasattr(obj, name):
            state[name] = getattr(obj, name)
    # a prediction cache hashes as fit leaves it: scoring moves no fingerprint
    for name, fitted in getattr(type(obj), "_fitted_caches", {}).items():
        if state.pop(name, UNSET) is not UNSET and fitted is not UNSET:
            state[name] = fitted
    if not state and not hasattr(obj, "__dict__") and not slots:
        raise ValueError(
            f"canonical_bytes cannot serialise {type(obj).__name__!r}"
        )
    return state


def _array_bytes(item: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(item)
    return f"a{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()


def _node_parts(state: dict):
    """``(depth bytes, rest bytes)`` of a :class:`TreeNode` whose instance
    state has a fitted node's fields and field types, else ``None``.

    The generic walk writes a node as its tag and a dict of nine entries
    sorted by key bytes — ``left, depth, right, value, feature, node_id,
    impurity, n_samples, threshold`` — and these are the same bytes:
    the subtrees go between them.
    """
    if state.keys() != _NODE_FIELDS:
        return None
    feature, threshold = state["feature"], state["threshold"]
    n_samples, depth, node_id = state["n_samples"], state["depth"], state["node_id"]
    impurity, value = state["impurity"], state["value"]
    if not (
        type(n_samples) is int
        and type(depth) is int
        and type(node_id) is int
        and type(impurity) is float
        and type(value) is np.ndarray
        and (feature is None or type(feature) is int)
        and (threshold is None or type(threshold) is float)
    ):
        return None
    return (
        b"s5:depthi%ds5:right" % depth,
        b"".join((
            b"s5:value",
            _array_bytes(value),
            b"s7:featureN" if feature is None else b"s7:featurei%d" % feature,
            b"s7:node_idi%d" % node_id,
            b"s8:impurityf",
            repr(impurity + 0.0).encode(),
            b"s9:n_samplesi%d" % n_samples,
            b"s9:thresholdN" if threshold is None
            else b"s9:thresholdf" + repr(threshold + 0.0).encode(),
        )),
    )


def canonical_bytes(obj) -> bytes:
    """Serialise ``obj`` to canonical bytes for hashing.

    Supports the closed universe the estimators in :mod:`repro.ml` are
    built from: scalars, strings, numpy arrays, lists/tuples, dicts
    (sorted by key), sets (sorted by serialisation) and plain objects
    (recursed via ``__dict__``/``__slots__``).  Every branch is prefixed
    with a type tag so e.g. ``1`` and ``1.0`` and ``"1"`` never collide.
    """
    out = bytearray()
    stack: list = [obj]
    while stack:
        item = stack.pop()
        if type(item) is _Emit:
            out += item.data
            continue
        if type(item) is TreeNode:
            parts = _node_parts(item.__dict__)
            if parts is not None:
                middle, rest = parts
                left, right = item.left, item.right
                if left is None and right is None:
                    out += _NODE_HEAD + b"N" + middle + b"N" + rest
                else:
                    out += _NODE_HEAD
                    stack += (_Emit(rest), right, _Emit(middle), left)
                continue
        if item is None:
            out += b"N"
        elif isinstance(item, bool):
            out += b"b1" if item else b"b0"
        elif isinstance(item, (int, np.integer)):
            out += b"i" + str(int(item)).encode()
        elif isinstance(item, (float, np.floating)):
            # repr round-trips doubles exactly; normalise -0.0
            out += b"f" + repr(float(item) + 0.0).encode()
        elif isinstance(item, str):
            raw = item.encode()
            out += b"s" + str(len(raw)).encode() + b":" + raw
        elif isinstance(item, bytes):
            out += b"y" + str(len(item)).encode() + b":" + item
        elif isinstance(item, np.ndarray):
            out += _array_bytes(item)
        elif isinstance(item, (list, tuple)):
            out += b"l" + str(len(item)).encode()
            stack.extend(reversed(item))
        elif isinstance(item, dict):
            # keys are serialised (not str()-coerced, so {1: v} and
            # {'1': v} stay distinct) and entries sorted by key bytes
            out += b"d" + str(2 * len(item)).encode()
            entries = sorted(
                ((canonical_bytes(key), value) for key, value in item.items()),
                key=lambda entry: entry[0],
            )
            pairs: list = []
            for key_bytes, value in entries:
                pairs.append(_Emit(key_bytes))
                pairs.append(value)
            stack.extend(reversed(pairs))
        elif isinstance(item, (set, frozenset)):
            # order-free: sort members by their own serialisation
            parts = sorted(canonical_bytes(member) for member in item)
            out += b"S" + str(len(parts)).encode() + b"".join(parts)
        elif isinstance(
            item, (types.FunctionType, types.BuiltinFunctionType, type)
        ):
            out += b"c" + f"{item.__module__}.{item.__qualname__}".encode()
        elif isinstance(item, np.random.Generator):
            out += b"g"
            stack.append(item.bit_generator.state)
        else:
            # plain object: class identity + instance state
            state = _object_state(item)
            tag = f"{type(item).__module__}.{type(item).__qualname__}"
            out += b"o"
            stack.append(state)
            stack.append(_Emit(canonical_bytes(tag)))
    return bytes(out)


#: the fields :func:`_node_parts` writes; a renamed or added field sends
#: every node down the generic path, never to wrong bytes
_NODE_FIELDS = frozenset((
    "n_samples", "value", "impurity", "depth", "feature", "threshold",
    "left", "right", "node_id",
))
#: a node's bytes up to its left subtree: object tag, class name, a dict
#: of nine entries and the first key
_NODE_HEAD = (
    b"o"
    + canonical_bytes(f"{TreeNode.__module__}.{TreeNode.__qualname__}")
    + b"d18"
    + canonical_bytes("left")
)


def content_fingerprint(*parts) -> str:
    """SHA-256 hex digest (truncated) over canonicalised ``parts``."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(canonical_bytes(part))
    return digest.hexdigest()[:_DIGEST_CHARS]


def walk_models(models) -> list:
    """:func:`canonical_bytes` of each model, walked once per distinct
    object (strategies ``last`` and ``full`` reuse one model for every
    time point).

    Returns one pre-rendered entry per model, to pass as the ``model``
    of :func:`model_fingerprint`: the digest is the same as for the
    model itself.
    """
    walked: dict[int, _Emit] = {}
    for model in models:
        if id(model) not in walked:
            walked[id(model)] = _Emit(canonical_bytes(model))
    return [walked[id(model)] for model in models]


def model_fingerprint(
    model,
    threshold: float,
    strategy,
    random_state,
) -> str:
    """Fingerprint one ``(M_t, δ_t)`` pair plus its provenance.

    ``strategy`` is the :class:`~repro.temporal.forecast.ForecastStrategy`
    instance that produced the model (its ``__dict__`` covers window
    widths, half lives, herd sizes, ...); ``random_state`` the generator
    seed.  The fitted model contributes its full learned state, so two
    models agree on the fingerprint iff they are the same function.
    ``model`` may also be an entry of :func:`walk_models`.
    """
    return content_fingerprint(
        "strategy",
        strategy,
        "seed",
        random_state,
        "threshold",
        float(threshold),
        "model",
        model,
    )
