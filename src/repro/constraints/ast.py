"""Expression AST for the constraints language.

Per §II.A the language admits "any number of linear inequalities joined by
conjunctions and disjunctions, over any subset of attributes of the input
vector", plus three special properties of a candidate: ``diff`` (l2
distance from the input), ``gap`` (l0 distance) and ``confidence`` (model
score).  We additionally expose ``time`` (the time-point index) and
``base_<feature>`` (the user's temporal input value at that time point),
which the canned queries and the builders need.

Expressions evaluate against an :class:`EvalContext` to a bool (boolean
nodes) or float (arithmetic nodes).  Linearity is enforced structurally:
multiplication and division require a constant operand.

For the batched hot path the same AST also evaluates against a
:class:`BatchEvalContext`, where feature and special bindings are arrays
over ``n`` candidate rows: ``value_batch`` / ``evaluate_batch`` mirror
``value`` / ``evaluate`` with NumPy elementwise semantics, so one walk of
the tree replaces ``n`` scalar walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.exceptions import ConstraintError

__all__ = [
    "EvalContext",
    "BatchEvalContext",
    "Expr",
    "BoolExpr",
    "ArithExpr",
    "Num",
    "Var",
    "BinOp",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TrueExpr",
    "SPECIAL_VARS",
    "BASE_PREFIX",
]

#: Special candidate properties available in constraint expressions.
SPECIAL_VARS = ("diff", "gap", "confidence", "time")

#: Prefix resolving to the temporal input's value, e.g. ``base_income``.
BASE_PREFIX = "base_"

_COMPARISON_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: abs(a - b) <= 1e-9,
    "!=": lambda a, b: abs(a - b) > 1e-9,
}

# NumPy twins of _COMPARISON_OPS (elementwise over candidate rows); the
# equality tolerance matches the scalar definitions above exactly.
_BATCH_COMPARISON_OPS = {
    "<": lambda a, b: np.less(a, b),
    "<=": lambda a, b: np.less_equal(a, b),
    ">": lambda a, b: np.greater(a, b),
    ">=": lambda a, b: np.greater_equal(a, b),
    "==": lambda a, b: np.abs(a - b) <= 1e-9,
    "!=": lambda a, b: np.abs(a - b) > 1e-9,
}

_ARITH_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True)
class EvalContext:
    """Name→value bindings a constraint expression evaluates against.

    ``features`` binds candidate feature values by name; ``base`` binds the
    temporal input's values (``base_<name>``); ``special`` binds
    diff/gap/confidence/time.
    """

    features: dict[str, float]
    base: dict[str, float]
    special: dict[str, float]

    def resolve(self, name: str) -> float:
        if name in self.features:
            return self.features[name]
        if name.startswith(BASE_PREFIX):
            stripped = name[len(BASE_PREFIX):]
            if stripped in self.base:
                return self.base[stripped]
        if name in self.special:
            return self.special[name]
        raise ConstraintError(
            f"unknown identifier {name!r}; known features:"
            f" {sorted(self.features)}, specials: {sorted(self.special)}"
        )


@dataclass(frozen=True)
class BatchEvalContext:
    """Array-valued bindings: one evaluation over ``n`` candidate rows.

    ``features`` and the per-row entries of ``special`` (diff, gap,
    confidence) bind ``(n,)`` arrays; ``time`` is a scalar shared by
    every row and broadcast by NumPy.  ``base`` binds scalars when every
    row has the same base row, or ``(n,)`` arrays when the rows come
    from different cells, each measured against its own base row.
    """

    features: dict[str, np.ndarray]
    base: dict[str, float]
    special: dict[str, "np.ndarray | float"]
    n: int

    def resolve(self, name: str) -> "np.ndarray | float":
        if name in self.features:
            return self.features[name]
        if name.startswith(BASE_PREFIX):
            stripped = name[len(BASE_PREFIX):]
            if stripped in self.base:
                return self.base[stripped]
        if name in self.special:
            return self.special[name]
        raise ConstraintError(
            f"unknown identifier {name!r}; known features:"
            f" {sorted(self.features)}, specials: {sorted(self.special)}"
        )

    def take(self, rows: "slice | np.ndarray") -> "BatchEvalContext":
        """The context of the rows ``rows`` (a slice or an index array)."""

        def pick(bindings: dict) -> dict:
            return {
                name: value[rows] if isinstance(value, np.ndarray) else value
                for name, value in bindings.items()
            }

        return BatchEvalContext(
            features=pick(self.features),
            base=pick(self.base),
            special=pick(self.special),
            n=len(range(self.n)[rows]) if isinstance(rows, slice) else len(rows),
        )

    def broadcast(self, result) -> np.ndarray:
        """Expand a (possibly scalar) boolean result to an ``(n,)`` mask."""
        mask = np.asarray(result, dtype=bool)
        if mask.ndim == 0:
            return np.full(self.n, bool(mask))
        return mask


class Expr:
    """Base class for all AST nodes."""

    def variables(self) -> set[str]:
        """All identifiers referenced anywhere under this node."""
        return {node.name for node in self.walk() if isinstance(node, Var)}

    def walk(self) -> Iterator["Expr"]:
        yield self
        for child in self._children():
            yield from child.walk()

    def _children(self) -> tuple["Expr", ...]:
        return ()


class ArithExpr(Expr):
    """Numeric-valued node."""

    def value(self, ctx: EvalContext) -> float:
        raise NotImplementedError

    def value_batch(self, ctx: BatchEvalContext) -> "np.ndarray | float":
        """Vectorized :meth:`value`: scalar or ``(n,)`` array."""
        raise NotImplementedError

    def is_constant(self) -> bool:
        return all(not isinstance(n, Var) for n in self.walk())


class BoolExpr(Expr):
    """Boolean-valued node."""

    def evaluate(self, ctx: EvalContext) -> bool:
        raise NotImplementedError

    def evaluate_batch(self, ctx: BatchEvalContext) -> "np.ndarray | bool":
        """Vectorized :meth:`evaluate`: scalar bool or ``(n,)`` mask."""
        raise NotImplementedError


@dataclass(frozen=True)
class Num(ArithExpr):
    """Numeric literal."""

    number: float

    def value(self, ctx: EvalContext) -> float:
        return self.number

    def value_batch(self, ctx: BatchEvalContext) -> float:
        return self.number

    def __str__(self) -> str:
        return f"{self.number:g}"


@dataclass(frozen=True)
class Var(ArithExpr):
    """Feature, ``base_<feature>`` or special-property reference."""

    name: str

    def value(self, ctx: EvalContext) -> float:
        return ctx.resolve(self.name)

    def value_batch(self, ctx: BatchEvalContext) -> "np.ndarray | float":
        return ctx.resolve(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(ArithExpr):
    """Linear arithmetic: ``+ - * /`` with ``* /`` needing a constant side."""

    op: str
    left: ArithExpr
    right: ArithExpr

    def __post_init__(self):
        if self.op not in _ARITH_OPS:
            raise ConstraintError(f"unknown arithmetic operator {self.op!r}")
        if self.op == "*" and not (
            self.left.is_constant() or self.right.is_constant()
        ):
            raise ConstraintError(
                "non-linear expression: '*' needs a constant operand"
            )
        if self.op == "/" and not self.right.is_constant():
            raise ConstraintError(
                "non-linear expression: '/' needs a constant divisor"
            )

    def value(self, ctx: EvalContext) -> float:
        left = self.left.value(ctx)
        right = self.right.value(ctx)
        if self.op == "/" and right == 0:
            raise ConstraintError(f"division by zero in {self}")
        return _ARITH_OPS[self.op](left, right)

    def value_batch(self, ctx: BatchEvalContext) -> "np.ndarray | float":
        left = self.left.value_batch(ctx)
        right = self.right.value_batch(ctx)
        # '/' structurally requires a constant divisor, so `right` is a
        # scalar here and the zero check mirrors the scalar path
        if self.op == "/" and np.any(np.asarray(right) == 0):
            raise ConstraintError(f"division by zero in {self}")
        return _ARITH_OPS[self.op](left, right)

    def _children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Comparison(BoolExpr):
    """A single (in)equality between two linear arithmetic expressions."""

    op: str
    left: ArithExpr
    right: ArithExpr

    def __post_init__(self):
        if self.op not in _COMPARISON_OPS:
            raise ConstraintError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, ctx: EvalContext) -> bool:
        return _COMPARISON_OPS[self.op](self.left.value(ctx), self.right.value(ctx))

    def evaluate_batch(self, ctx: BatchEvalContext) -> "np.ndarray | bool":
        return _BATCH_COMPARISON_OPS[self.op](
            self.left.value_batch(ctx), self.right.value_batch(ctx)
        )

    def _children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(BoolExpr):
    """Conjunction of two or more boolean expressions."""

    operands: tuple[BoolExpr, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ConstraintError("And needs at least two operands")

    def evaluate(self, ctx: EvalContext) -> bool:
        return all(op.evaluate(ctx) for op in self.operands)

    def evaluate_batch(self, ctx: BatchEvalContext) -> "np.ndarray | bool":
        result = self.operands[0].evaluate_batch(ctx)
        for op in self.operands[1:]:
            # short-circuit like scalar all(): once every row is False,
            # later operands must not be evaluated (they may e.g. divide
            # by a constant zero that the scalar path never reaches)
            if not np.any(result):
                break
            result = np.logical_and(result, op.evaluate_batch(ctx))
        return result

    def _children(self) -> tuple[Expr, ...]:
        return self.operands

    def __str__(self) -> str:
        return "(" + " and ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(BoolExpr):
    """Disjunction of two or more boolean expressions."""

    operands: tuple[BoolExpr, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ConstraintError("Or needs at least two operands")

    def evaluate(self, ctx: EvalContext) -> bool:
        return any(op.evaluate(ctx) for op in self.operands)

    def evaluate_batch(self, ctx: BatchEvalContext) -> "np.ndarray | bool":
        result = self.operands[0].evaluate_batch(ctx)
        for op in self.operands[1:]:
            # short-circuit like scalar any(): once every row is True,
            # later operands must not be evaluated
            if np.all(result):
                break
            result = np.logical_or(result, op.evaluate_batch(ctx))
        return result

    def _children(self) -> tuple[Expr, ...]:
        return self.operands

    def __str__(self) -> str:
        return "(" + " or ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(BoolExpr):
    """Negation."""

    operand: BoolExpr

    def evaluate(self, ctx: EvalContext) -> bool:
        return not self.operand.evaluate(ctx)

    def evaluate_batch(self, ctx: BatchEvalContext) -> "np.ndarray | bool":
        return np.logical_not(self.operand.evaluate_batch(ctx))

    def _children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class TrueExpr(BoolExpr):
    """Always-true constraint (the identity element for conjunction)."""

    def evaluate(self, ctx: EvalContext) -> bool:
        return True

    def evaluate_batch(self, ctx: BatchEvalContext) -> bool:
        return True

    def __str__(self) -> str:
        return "true"
