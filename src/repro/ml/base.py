"""Estimator protocol and shared estimator machinery.

The paper's Definition II.1 models a classifier as a function
``M : R^d -> [0, 1]`` returning the probability of the desired positive
class.  Every estimator in :mod:`repro.ml` implements this contract via
:meth:`BaseClassifier.predict_proba` (column 1 of the returned matrix) and
:meth:`BaseClassifier.decision_score`.

Estimators follow the familiar ``fit`` / ``predict`` idiom.  They are
deliberately sklearn-compatible in spirit (``get_params`` / ``set_params``,
``random_state`` seeding) without depending on sklearn, which is not
available in this environment.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any

import numpy as np

from repro.exceptions import NotFittedError, ValidationError

__all__ = [
    "BaseEstimator",
    "BaseClassifier",
    "check_fitted",
    "check_X",
    "check_X_y",
    "as_rng",
]

#: an estimator's ``_fitted_caches`` maps each prediction cache to the
#: value ``fit`` leaves it at, or to ``UNSET`` when fit leaves it absent
UNSET = object()


def as_rng(random_state: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy :class:`~numpy.random.Generator` for ``random_state``.

    Accepts ``None`` (fresh nondeterministic generator), an integer seed, or
    an existing generator (returned unchanged so that callers can share a
    stream).
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


def check_X(X: Any, *, name: str = "X") -> np.ndarray:
    """Validate and convert a 2-D feature matrix to ``float64``.

    Raises :class:`ValidationError` for ragged, empty, non-numeric or
    non-finite input.  A single sample may be passed as a 1-D vector and is
    reshaped to ``(1, d)``.
    """
    try:
        arr = np.asarray(X, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError(f"{name} is empty with shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def check_X_y(X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix together with a binary label vector."""
    X = check_X(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValidationError(f"y must be 1-D, got ndim={y.ndim}")
    if y.shape[0] != X.shape[0]:
        raise ValidationError(
            f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}"
        )
    try:
        y = y.astype(int)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"y is not integer-like: {exc}") from exc
    labels = np.unique(y)
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError(f"y must be binary in {{0, 1}}, got labels {labels}")
    return X, y


def check_fitted(estimator: "BaseEstimator", attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``attribute`` exists on ``estimator``."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() first"
        )


class BaseEstimator:
    """Parameter-introspection base shared by every estimator.

    Constructor arguments are treated as hyper-parameters: they are
    discoverable through :meth:`get_params`, updatable through
    :meth:`set_params`, and define ``repr`` output.  Attributes learned
    during ``fit`` use a trailing underscore (``n_features_``,
    ``trees_``, ...), mirroring the sklearn convention.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, parameter in signature.parameters.items()
            if name != "self"
            and parameter.kind
            not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        ]

    def get_params(self) -> dict[str, Any]:
        """Return the estimator's hyper-parameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Update hyper-parameters in place; unknown names raise ``ValueError``."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"unknown parameter {name!r} for {type(self).__name__};"
                    f" valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def clone(self) -> "BaseEstimator":
        """Return an unfitted copy with identical hyper-parameters."""
        return type(self)(**copy.deepcopy(self.get_params()))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class BaseClassifier(BaseEstimator):
    """Binary probabilistic classifier implementing Definition II.1.

    Subclasses must implement :meth:`fit` and :meth:`predict_proba`.  The
    positive-class score ``M(x)`` of the paper is
    ``predict_proba(X)[:, 1]``, exposed directly as
    :meth:`decision_score`.
    """

    #: learned during fit: number of input features d
    n_features_: int | None = None

    def fit(self, X: Any, y: Any) -> "BaseClassifier":
        raise NotImplementedError

    def predict_proba(self, X: Any) -> np.ndarray:
        """Return an ``(n, 2)`` matrix of class probabilities."""
        raise NotImplementedError

    def decision_score(self, X: Any) -> np.ndarray:
        """Return ``M(x)`` — probability of the positive class, shape ``(n,)``."""
        return self.predict_proba(X)[:, 1]

    def predict(self, X: Any, threshold: float = 0.5) -> np.ndarray:
        """Return hard 0/1 labels by thresholding the positive-class score."""
        return (self.decision_score(X) > threshold).astype(int)

    def score(self, X: Any, y: Any) -> float:
        """Return plain accuracy on ``(X, y)``."""
        X, y = check_X_y(X, y)
        return float(np.mean(self.predict(X) == y))

    def _check_n_features(self, X: np.ndarray) -> None:
        check_fitted(self, "n_features_")
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"{type(self).__name__} was fitted with {self.n_features_} features"
                f" but got {X.shape[1]}"
            )
