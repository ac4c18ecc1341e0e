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
models — e.g. depth-unbounded decision trees — hash fine.
"""

from __future__ import annotations

import hashlib
import types

import numpy as np

from repro.ml.base import UNSET

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
            arr = np.ascontiguousarray(item)
            out += f"a{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()
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
