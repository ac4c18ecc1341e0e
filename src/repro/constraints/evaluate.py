"""Constraints-function evaluation (Definition II.2).

A :class:`ConstraintsFunction` decides, for a candidate modification
``x'`` of an input ``x``, whether ``x' ∈ C(x)``.  Each member constraint
is a boolean AST (from the DSL or the builders) scoped either to all time
points or to an explicit set of them — the paper allows "constraints
[that] may refer to a single point in time or all of them".

The three special candidate properties are computed here so that the
constraints layer, the objectives layer and the DB rows all share one
definition:

* ``diff`` — l2 distance between ``x'`` and ``x`` (optionally in a
  feature-scaled space, see :func:`l2_diff`);
* ``gap`` — number of modified coordinates (:func:`l0_gap`);
* ``confidence`` — model score ``M_t(x')``, supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constraints.ast import (
    BatchEvalContext,
    BoolExpr,
    EvalContext,
    TrueExpr,
)
from repro.constraints.parser import parse_constraint
from repro.data.schema import DatasetSchema
from repro.exceptions import ConstraintError

__all__ = [
    "l2_diff",
    "l2_diff_batch",
    "l0_gap",
    "l0_gap_batch",
    "diff_gap_batch",
    "ScopedConstraint",
    "ConstraintsFunction",
    "grouped_violation_counts",
]

_GAP_TOLERANCE = 1e-9


def l2_diff(x_prime, x, scale=None) -> float:
    """l2 distance between candidate and input, optionally feature-scaled.

    ``scale`` (per-feature positive divisors, e.g. training-set standard
    deviations) makes distances comparable across features with very
    different units — income in dollars vs seniority in years.
    """
    x_prime = np.asarray(x_prime, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    if x_prime.shape != x.shape:
        raise ConstraintError(
            f"shape mismatch in diff: {x_prime.shape} vs {x.shape}"
        )
    delta = x_prime - x
    if scale is not None:
        scale = np.asarray(scale, dtype=float).ravel()
        if scale.shape != x.shape:
            raise ConstraintError("scale shape mismatch")
        if (scale <= 0).any():
            raise ConstraintError("scale entries must be positive")
        delta = delta / scale
    # sqrt(sum(d*d)) rather than np.linalg.norm: the BLAS dot behind norm
    # differs from NumPy's pairwise sum in the last ulp, and the batched
    # path (l2_diff_batch) must agree with this bit-for-bit
    return float(np.sqrt(np.sum(delta * delta)))


def _base_rows(X_prime, x, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``X_prime`` as an ``(n, d)`` matrix and ``x`` as either one base row
    ``(d,)`` shared by every candidate or an ``(n, d)`` matrix of per-row
    base rows (the fused engine measures many cells' rows at once)."""
    X_prime = np.atleast_2d(np.asarray(X_prime, dtype=float))
    x = np.asarray(x, dtype=float)
    if x.size == X_prime.shape[1]:
        x = x.ravel()
    elif x.shape != X_prime.shape:
        raise ConstraintError(
            f"shape mismatch in {what}: {X_prime.shape} vs {x.shape}"
        )
    return X_prime, x


def _scale_vector(scale, d: int) -> np.ndarray:
    scale = np.asarray(scale, dtype=float).ravel()
    if scale.shape != (d,):
        raise ConstraintError("scale shape mismatch")
    if (scale <= 0).any():
        raise ConstraintError("scale entries must be positive")
    return scale


def l2_diff_batch(X_prime, x, scale=None) -> np.ndarray:
    """Row-wise :func:`l2_diff` of an ``(n, d)`` candidate matrix against
    one base row ``x`` or an ``(n, d)`` matrix of per-row base rows.

    Bit-identical to calling :func:`l2_diff` on each row (same pairwise
    summation order).
    """
    X_prime, x = _base_rows(X_prime, x, "diff")
    delta = X_prime - x
    if scale is not None:
        delta = delta / _scale_vector(scale, X_prime.shape[1])
    return np.sqrt(np.sum(delta * delta, axis=1))


def l0_gap_batch(X_prime, x) -> np.ndarray:
    """Row-wise :func:`l0_gap` of an ``(n, d)`` candidate matrix against
    one base row or per-row base rows (as :func:`l2_diff_batch`)."""
    X_prime, x = _base_rows(X_prime, x, "gap")
    return np.sum(np.abs(X_prime - x) > _GAP_TOLERANCE, axis=1)


def diff_gap_batch(X_prime, x, scale=None) -> tuple[np.ndarray, np.ndarray]:
    """``(l2_diff_batch(X_prime, x, scale), l0_gap_batch(X_prime, x))``
    bit for bit, from one shape check and one ``X_prime - x``.

    Both read only the magnitudes of the differences: the gap counts
    those above the tolerance, and a magnitude scaled and squared is
    exactly the square of the scaled difference.  So one buffer of
    magnitudes is worked in place — fewer full-size temporaries than
    the two calls allocate between them.  The gap is counted by a
    product with a ones vector of the default integer type: a sum of
    0/1 integers is exact in any order, and for short rows the product
    is faster than a reduction along them.
    """
    X_prime, x = _base_rows(X_prime, x, "diff")
    d = X_prime.shape[1]
    if scale is not None:
        scale = _scale_vector(scale, d)
    magnitude = np.subtract(X_prime, x)
    np.abs(magnitude, out=magnitude)
    gap = (magnitude > _GAP_TOLERANCE) @ np.ones(d, dtype=np.int_)
    if scale is not None:
        np.divide(magnitude, scale, out=magnitude)
    np.multiply(magnitude, magnitude, out=magnitude)
    return np.sqrt(np.sum(magnitude, axis=1)), gap


def l0_gap(x_prime, x) -> int:
    """Number of coordinates in which the candidate differs from the input."""
    x_prime = np.asarray(x_prime, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    if x_prime.shape != x.shape:
        raise ConstraintError(
            f"shape mismatch in gap: {x_prime.shape} vs {x.shape}"
        )
    return int(np.sum(np.abs(x_prime - x) > _GAP_TOLERANCE))


@dataclass(frozen=True)
class ScopedConstraint:
    """A boolean constraint plus the time points it applies to.

    ``times=None`` applies at every time point; otherwise a frozenset of
    integer time indices.
    """

    expr: BoolExpr
    times: frozenset[int] | None = None
    label: str = ""

    def applies_at(self, time: int) -> bool:
        return self.times is None or time in self.times

    def __str__(self) -> str:
        scope = "all t" if self.times is None else f"t in {sorted(self.times)}"
        return f"[{scope}] {self.expr}"


class ConstraintsFunction:
    """Conjunction of scoped constraints over a feature schema.

    In JustInTime "constraints specified by the administrator and the user
    are joined" — :meth:`conjoin` implements exactly that join, and the
    result is again a :class:`ConstraintsFunction`.

    Parameters
    ----------
    schema:
        Feature schema; every identifier in every constraint must be a
        schema feature, a ``base_``-prefixed schema feature, or one of the
        special properties.
    constraints:
        Initial scoped constraints (optional).
    diff_scale:
        Optional per-feature divisors applied inside ``diff``.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        constraints: list[ScopedConstraint] | None = None,
        diff_scale=None,
    ):
        self.schema = schema
        self.diff_scale = (
            None if diff_scale is None else np.asarray(diff_scale, dtype=float)
        )
        self._constraints: list[ScopedConstraint] = []
        for constraint in constraints or []:
            self._add_checked(constraint)

    # ------------------------------------------------------------ building

    def _add_checked(self, constraint: ScopedConstraint) -> None:
        from repro.constraints.ast import BASE_PREFIX, SPECIAL_VARS

        for name in constraint.expr.variables():
            stripped = (
                name[len(BASE_PREFIX):] if name.startswith(BASE_PREFIX) else None
            )
            known = (
                name in self.schema
                or name in SPECIAL_VARS
                or (stripped is not None and stripped in self.schema)
            )
            if not known:
                raise ConstraintError(
                    f"constraint references unknown identifier {name!r}"
                    f" (schema features: {self.schema.names})"
                )
        self._constraints.append(constraint)

    def add(
        self,
        constraint: str | BoolExpr | ScopedConstraint,
        *,
        times=None,
        label: str = "",
    ) -> "ConstraintsFunction":
        """Add a constraint (DSL text, AST, or pre-scoped) and return self.

        ``times`` may be an int, an iterable of ints, or ``None`` for all
        time points.
        """
        if isinstance(constraint, ScopedConstraint):
            self._add_checked(constraint)
            return self
        if isinstance(constraint, str):
            expr = parse_constraint(constraint)
            label = label or constraint
        else:
            expr = constraint
        if times is None:
            scope = None
        elif isinstance(times, int):
            scope = frozenset([times])
        else:
            scope = frozenset(int(t) for t in times)
        self._add_checked(ScopedConstraint(expr, scope, label))
        return self

    def conjoin(self, other: "ConstraintsFunction") -> "ConstraintsFunction":
        """Return the conjunction of this function with ``other``.

        This is how admin (domain) and user (preference) constraints are
        combined into the single ``C_t`` the generators receive.
        """
        if other.schema != self.schema:
            raise ConstraintError("cannot conjoin constraints over different schemas")
        scale = self.diff_scale if self.diff_scale is not None else other.diff_scale
        return ConstraintsFunction(
            self.schema,
            list(self._constraints) + list(other._constraints),
            diff_scale=scale,
        )

    @property
    def constraints(self) -> tuple[ScopedConstraint, ...]:
        return tuple(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __repr__(self) -> str:
        inner = "; ".join(str(c) for c in self._constraints) or "true"
        return f"ConstraintsFunction({inner})"

    # ---------------------------------------------------------- evaluation

    def context(
        self,
        x_prime,
        x_base,
        *,
        confidence: float,
        time: int,
    ) -> EvalContext:
        """Build the evaluation context for candidate ``x_prime``.

        ``x_base`` is the *temporal input* at the same time point (i.e.
        ``f(x, t)``), which is what diff/gap are measured against — a
        feature that merely drifted with time is not a user modification.
        """
        x_prime = np.asarray(x_prime, dtype=float).ravel()
        x_base = np.asarray(x_base, dtype=float).ravel()
        return EvalContext(
            features=self.schema.as_dict(x_prime),
            base=self.schema.as_dict(x_base),
            special={
                "diff": l2_diff(x_prime, x_base, self.diff_scale),
                "gap": float(l0_gap(x_prime, x_base)),
                "confidence": float(confidence),
                "time": float(time),
            },
        )

    def batch_context(
        self,
        X_prime,
        x_base,
        *,
        confidence,
        time: int,
        diff=None,
        gap=None,
    ) -> BatchEvalContext:
        """Build one evaluation context for an ``(n, d)`` candidate matrix.

        ``confidence`` is the ``(n,)`` vector of model scores.  Feature
        bindings are column views of ``X_prime`` — no per-row dicts.
        ``x_base`` is one base row shared by every candidate or an
        ``(n, d)`` matrix of per-row base rows, whose ``base_`` bindings
        are then column views too.  Callers that already measured the
        candidates (the search loop) can pass ``diff``/``gap`` arrays to
        skip recomputing them.
        """
        X_prime = np.atleast_2d(np.asarray(X_prime, dtype=float))
        x_base = np.asarray(x_base, dtype=float)
        n, d = X_prime.shape
        if d != len(self.schema) or (
            x_base.size != d and x_base.shape != X_prime.shape
        ):
            raise ConstraintError(
                f"batch shape {X_prime.shape} does not match schema"
                f" ({len(self.schema)} features)"
            )
        confidence = np.asarray(confidence, dtype=float).ravel()
        if confidence.size != n:
            raise ConstraintError(
                f"confidence has {confidence.size} entries, expected {n}"
            )
        names = self.schema.names
        if x_base.size == d:
            x_base = x_base.ravel()
            base = {name: float(x_base[i]) for i, name in enumerate(names)}
        else:
            base = {name: x_base[:, i] for i, name in enumerate(names)}
        return BatchEvalContext(
            features={name: X_prime[:, i] for i, name in enumerate(names)},
            base=base,
            special={
                "diff": (
                    l2_diff_batch(X_prime, x_base, self.diff_scale)
                    if diff is None
                    else np.asarray(diff, dtype=float).ravel()
                ),
                "gap": (
                    l0_gap_batch(X_prime, x_base).astype(float)
                    if gap is None
                    else np.asarray(gap, dtype=float).ravel()
                ),
                "confidence": confidence,
                "time": float(time),
            },
            n=n,
        )

    def is_valid_batch(
        self,
        X_prime,
        x_base,
        *,
        confidence,
        time: int,
    ) -> np.ndarray:
        """Vectorized :meth:`is_valid`: ``(n,)`` bool mask over rows."""
        ctx = self.batch_context(X_prime, x_base, confidence=confidence, time=time)
        mask = np.ones(ctx.n, dtype=bool)
        for c in self._constraints:
            # short-circuit like scalar all(): once every row is invalid,
            # later constraints must not be evaluated (scalar is_valid
            # never reaches them, and they may raise on evaluation)
            if not mask.any():
                break
            if c.applies_at(time):
                mask &= ctx.broadcast(c.expr.evaluate_batch(ctx))
        return mask

    def violation_counts_batch(
        self,
        X_prime,
        x_base,
        *,
        confidence,
        time: int,
        diff=None,
        gap=None,
    ) -> np.ndarray:
        """Per-row count of violated constraints (vectorized
        ``len(self.violated(...))``)."""
        ctx = self.batch_context(
            X_prime, x_base, confidence=confidence, time=time, diff=diff, gap=gap
        )
        return grouped_violation_counts(ctx, [self], [ctx.n], time)

    def is_valid(
        self,
        x_prime,
        x_base,
        *,
        confidence: float,
        time: int,
    ) -> bool:
        """Whether ``x_prime ∈ C(x)`` at time point ``time``."""
        ctx = self.context(x_prime, x_base, confidence=confidence, time=time)
        return all(
            c.expr.evaluate(ctx)
            for c in self._constraints
            if c.applies_at(time)
        )

    def violated(
        self,
        x_prime,
        x_base,
        *,
        confidence: float,
        time: int,
    ) -> list[ScopedConstraint]:
        """Return the constraints ``x_prime`` violates (for diagnostics/UI)."""
        ctx = self.context(x_prime, x_base, confidence=confidence, time=time)
        return [
            c
            for c in self._constraints
            if c.applies_at(time) and not c.expr.evaluate(ctx)
        ]

    @staticmethod
    def unconstrained(schema: DatasetSchema) -> "ConstraintsFunction":
        """The trivial constraints function: every modification is valid."""
        return ConstraintsFunction(
            schema, [ScopedConstraint(TrueExpr(), None, "true")]
        )


def _violated(expr: BoolExpr, ctx: BatchEvalContext) -> np.ndarray:
    return ~ctx.broadcast(expr.evaluate_batch(ctx))


def grouped_violation_counts(
    ctx: BatchEvalContext, functions, sizes, time: int
) -> np.ndarray:
    """Per-row violated-constraint counts of stacked rows held by several
    constraints functions: the first ``sizes[0]`` rows of ``ctx`` are
    counted against ``functions[0]``, the next ``sizes[1]`` against
    ``functions[1]``, and so on.

    Each distinct :class:`ScopedConstraint` object is evaluated once,
    over the rows of the functions that hold it (the domain constraints
    that :meth:`ConstraintsFunction.conjoin` shares between users are
    evaluated once for all of them); one listed twice counts twice.
    Equal to ``violation_counts_batch`` per function, ``ConstraintError``
    included: ``And``/``Or`` skip an operand only when *every* row allows
    it, so a stacked evaluation can reach a constant-zero divisor that no
    single function's rows reach — then the constraint is re-evaluated
    per function, where a divisor that is reached raises.
    """
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))).tolist()
    # constraint id -> [constraint, index of each function holding it]
    held: dict[int, list] = {}
    for j, function in enumerate(functions):
        for c in function._constraints:
            entry = held.get(id(c))
            if entry is None:
                held[id(c)] = [c, j]
            else:
                entry.append(j)
    counts = np.zeros(ctx.n, dtype=np.int64)
    views: dict[tuple, tuple] = {}
    for c, *holders in held.values():
        if not c.applies_at(time):
            continue
        key = tuple(holders)
        if key not in views:
            views[key] = _holder_view(ctx, bounds, holders)
        rows, sub, weight = views[key]
        try:
            violated = _violated(c.expr, sub)
        except ConstraintError:
            spans = [
                (bounds[j], bounds[j + 1])
                for j in dict.fromkeys(holders)
                if bounds[j + 1] > bounds[j]
            ]
            if len(spans) == 1:
                raise
            violated = np.concatenate(
                [_violated(c.expr, ctx.take(slice(lo, hi))) for lo, hi in spans]
            )
        counts[rows] += violated if weight is None else violated * weight
    return counts


def _holder_view(ctx: BatchEvalContext, bounds: list, holders: list) -> tuple:
    """``(rows, context, weight)`` for the rows of the functions
    ``holders`` (ascending, with repeats): a slice when they are
    contiguous, and ``weight`` the per-row repeat count, or ``None``
    when no function repeats."""
    distinct = list(dict.fromkeys(holders))
    weight = None
    if len(distinct) < len(holders):
        repeats = [holders.count(j) for j in distinct]
        weight = np.repeat(
            repeats, [bounds[j + 1] - bounds[j] for j in distinct]
        )
    if distinct[-1] - distinct[0] + 1 == len(distinct):
        rows = slice(bounds[distinct[0]], bounds[distinct[-1] + 1])
        if rows.start == 0 and rows.stop == ctx.n:
            return slice(None), ctx, weight
    else:
        rows = np.concatenate([np.arange(bounds[j], bounds[j + 1]) for j in distinct])
    return rows, ctx.take(rows), weight
