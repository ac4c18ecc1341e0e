"""Feature schema: names, types, bounds and temporal/mutability flags.

The constraints language, the temporal update function and the candidate
search all need per-feature metadata:

* which features are *temporal* (change deterministically with time, e.g.
  age — Definition II.4 treats these specially);
* which features are *mutable* by the user at all (a person cannot change
  their age by acting, only time changes it);
* value bounds and integrality, so generated candidates stay realistic.

A :class:`DatasetSchema` is an ordered collection of :class:`FeatureSpec`
and provides name/index translation plus dict/vector conversion, which the
DB layer and the UI both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SchemaError

__all__ = ["FeatureSpec", "DatasetSchema"]


@dataclass(frozen=True)
class FeatureSpec:
    """Static description of one input feature.

    Parameters
    ----------
    name:
        Identifier used in constraints, SQL columns and the UI.
    dtype:
        ``'float'``, ``'int'`` or ``'categorical'`` (integer-coded).
    lower, upper:
        Inclusive physical bounds; ``None`` means unbounded on that side.
    mutable:
        Whether a user action can change this feature (age: no).
    temporal:
        Whether the feature drifts deterministically with time (age,
        seniority).  Temporal features get a rule in the temporal update
        function.
    step:
        Natural granularity for candidate moves (e.g. 500 for income).
        ``None`` lets the generator pick one from the data scale.
    categories:
        For categoricals: allowed integer codes (order is meaningful only
        as identity).
    description:
        Human-readable explanation surfaced by the UI layer.
    """

    name: str
    dtype: str = "float"
    lower: float | None = None
    upper: float | None = None
    mutable: bool = True
    temporal: bool = False
    step: float | None = None
    categories: tuple[int, ...] | None = None
    description: str = ""

    def __post_init__(self):
        if self.dtype not in ("float", "int", "categorical"):
            raise SchemaError(
                f"feature {self.name!r}: dtype must be float/int/categorical,"
                f" got {self.dtype!r}"
            )
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper
        ):
            raise SchemaError(
                f"feature {self.name!r}: lower bound {self.lower} exceeds"
                f" upper bound {self.upper}"
            )
        if self.dtype == "categorical" and not self.categories:
            raise SchemaError(
                f"feature {self.name!r}: categorical features need categories"
            )

    def clip(self, value: float) -> float:
        """Clip ``value`` into the feature's physical bounds and granularity.

        Bit-identical to :meth:`DatasetSchema.clip_matrix`, signed zeros
        included: a value at a bound becomes the bound, as in
        ``np.clip`` (``-0.0`` at a lower bound of 0 is ``0.0``), and
        integers round through ``np.round``, which keeps the sign of a
        negative value that rounds to zero.
        """
        out = float(value)
        if self.lower is not None and out <= self.lower:
            out = float(self.lower)
        if self.upper is not None and out >= self.upper:
            out = float(self.upper)
        if self.dtype == "categorical" and self.categories:
            # snap the raw value to the nearest allowed code
            codes = np.asarray(self.categories, dtype=float)
            out = float(codes[np.argmin(np.abs(codes - out))])
        elif self.dtype == "int":
            out = float(np.round(out))
        return out

    def contains(self, value: float) -> bool:
        """Whether ``value`` is a legal value for this feature."""
        if self.lower is not None and value < self.lower - 1e-9:
            return False
        if self.upper is not None and value > self.upper + 1e-9:
            return False
        if self.dtype in ("int", "categorical") and abs(value - round(value)) > 1e-9:
            return False
        if self.dtype == "categorical" and self.categories:
            return int(round(value)) in self.categories
        return True


class DatasetSchema:
    """Ordered feature collection with name/index resolution."""

    def __init__(self, features: list[FeatureSpec] | tuple[FeatureSpec, ...]):
        if not features:
            raise SchemaError("schema must contain at least one feature")
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate feature names in schema: {names}")
        self._features: tuple[FeatureSpec, ...] = tuple(features)
        self._index: dict[str, int] = {f.name: i for i, f in enumerate(features)}
        self._build_clip_cache()

    def _build_clip_cache(self) -> None:
        """Precompute the arrays backing the vectorized clip_matrix path."""
        self._lower = np.array(
            [-np.inf if f.lower is None else f.lower for f in self._features]
        )
        self._upper = np.array(
            [np.inf if f.upper is None else f.upper for f in self._features]
        )
        self._int_cols = np.array(
            [i for i, f in enumerate(self._features) if f.dtype == "int"], dtype=int
        )
        self._cat_cols: list[tuple[int, np.ndarray]] = [
            (i, np.asarray(f.categories, dtype=float))
            for i, f in enumerate(self._features)
            if f.dtype == "categorical" and f.categories
        ]

    # ------------------------------------------------------------- basics

    @property
    def features(self) -> tuple[FeatureSpec, ...]:
        return self._features

    @property
    def names(self) -> list[str]:
        return [f.name for f in self._features]

    def __len__(self) -> int:
        return len(self._features)

    def __iter__(self):
        return iter(self._features)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, key: str | int) -> FeatureSpec:
        if isinstance(key, str):
            return self._features[self.index_of(key)]
        return self._features[key]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DatasetSchema) and self._features == other._features
        )

    def __repr__(self) -> str:
        return f"DatasetSchema({self.names})"

    def index_of(self, name: str) -> int:
        """Return the column index of ``name`` or raise :class:`SchemaError`."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown feature {name!r}; schema has {self.names}"
            ) from None

    # --------------------------------------------------------- conversions

    def vector(self, values: dict[str, float]) -> np.ndarray:
        """Build a feature vector from a name→value dict (all names required)."""
        missing = set(self.names) - set(values)
        if missing:
            raise SchemaError(f"missing features: {sorted(missing)}")
        extra = set(values) - set(self.names)
        if extra:
            raise SchemaError(f"unknown features: {sorted(extra)}")
        return np.array([float(values[name]) for name in self.names])

    def as_dict(self, x) -> dict[str, float]:
        """Convert a feature vector to a name→value dict."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != len(self):
            raise SchemaError(
                f"vector has {x.size} entries, schema expects {len(self)}"
            )
        return {name: float(v) for name, v in zip(self.names, x)}

    # ----------------------------------------------------------- subsets

    def mutable_indices(self) -> np.ndarray:
        """Column indices the user may act on."""
        return np.array(
            [i for i, f in enumerate(self._features) if f.mutable], dtype=int
        )

    def temporal_features(self) -> list[FeatureSpec]:
        """Features that drift deterministically with time."""
        return [f for f in self._features if f.temporal]

    def clip(self, x) -> np.ndarray:
        """Clip a vector feature-wise into physical bounds/granularity."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != len(self):
            raise SchemaError(
                f"vector has {x.size} entries, schema expects {len(self)}"
            )
        return np.array([f.clip(v) for f, v in zip(self._features, x)])

    def clip_matrix(self, X) -> np.ndarray:
        """Vectorized :meth:`clip` over the rows of an ``(n, d)`` matrix.

        Bit-identical to clipping each row (bounds, then categorical snap
        / integer rounding — NumPy and Python both round half to even).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self):
            raise SchemaError(
                f"matrix has {X.shape[1]} columns, schema expects {len(self)}"
            )
        if not hasattr(self, "_lower"):  # unpickled from a pre-batch save
            self._build_clip_cache()
        out = np.clip(X, self._lower, self._upper)
        for i, codes in self._cat_cols:
            nearest = np.argmin(np.abs(out[:, i, None] - codes), axis=1)
            out[:, i] = codes[nearest]
        if self._int_cols.size:
            out[:, self._int_cols] = np.round(out[:, self._int_cols])
        return out

    def validate_vector(self, x) -> bool:
        """Whether each coordinate of ``x`` is legal for its feature."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != len(self):
            return False
        return all(f.contains(v) for f, v in zip(self._features, x))
