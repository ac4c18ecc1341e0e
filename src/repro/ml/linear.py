"""Logistic regression trained by full-batch gradient descent.

Used in three places in the reproduction:

* as an alternative model class for the JustInTime pipeline (the paper's
  framework is model-agnostic given Definition II.1);
* by the ``weights`` forecasting strategy (:mod:`repro.temporal.forecast`),
  which extrapolates the trajectory of per-year logistic coefficient
  vectors — the style of approach the paper cites as Kumagai & Iwata [8];
* by the gradient move proposer of the candidates generator, which walks
  along ``∇M(x)``.

Supports sample weights (needed by the ``reweight`` forecasting strategy)
and L2 regularisation.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.base import BaseClassifier, check_X, check_X_y, check_fitted

__all__ = ["LogisticRegression", "sigmoid"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticRegression(BaseClassifier):
    """L2-regularised binary logistic regression.

    Parameters
    ----------
    lr:
        Gradient-descent step size.
    max_iter:
        Maximum number of full-batch iterations.
    tol:
        Stop when the max absolute gradient component falls below this.
    alpha:
        L2 penalty strength on the weights (the intercept is not
        penalised).
    fit_intercept:
        Learn an intercept term.
    """

    def __init__(
        self,
        lr: float = 0.1,
        max_iter: int = 500,
        tol: float = 1e-6,
        alpha: float = 1e-4,
        fit_intercept: bool = True,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.lr = lr
        self.max_iter = max_iter
        self.tol = tol
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float | None = None
        self.n_features_: int | None = None
        self.n_iter_: int | None = None

    def fit(self, X, y, sample_weight=None) -> "LogisticRegression":
        X, y = check_X_y(X, y)
        n, d = X.shape
        if sample_weight is None:
            w = np.ones(n)
        else:
            w = np.asarray(sample_weight, dtype=float).ravel()
            if w.shape[0] != n:
                raise ValidationError("sample_weight length mismatch")
            if (w < 0).any():
                raise ValidationError("sample_weight must be non-negative")
            if w.sum() == 0:
                raise ValidationError("sample_weight sums to zero")
        w = w / w.mean()
        self.n_features_ = d
        coef = np.zeros(d)
        intercept = 0.0
        self.n_iter_ = self.max_iter
        for iteration in range(self.max_iter):
            z = X @ coef + intercept
            p = sigmoid(z)
            residual = w * (p - y)
            grad_coef = X.T @ residual / n + self.alpha * coef
            grad_intercept = residual.sum() / n
            coef -= self.lr * grad_coef
            if self.fit_intercept:
                intercept -= self.lr * grad_intercept
            max_grad = max(
                np.max(np.abs(grad_coef)),
                abs(grad_intercept) if self.fit_intercept else 0.0,
            )
            if max_grad < self.tol:
                self.n_iter_ = iteration + 1
                break
        self.coef_ = coef
        self.intercept_ = float(intercept)
        return self

    def set_weights(self, coef, intercept: float) -> "LogisticRegression":
        """Install explicit weights without fitting.

        The weight-extrapolation forecaster predicts future coefficient
        vectors directly and materialises a model through this method.
        """
        coef = np.asarray(coef, dtype=float).ravel()
        if coef.size == 0:
            raise ValidationError("coef must be non-empty")
        self.coef_ = coef
        self.intercept_ = float(intercept)
        self.n_features_ = coef.size
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = check_X(X)
        self._check_n_features(X)
        # a row-wise reduction, not ``X @ coef_``: a BLAS matrix-vector
        # product may round a row differently depending on the batch it
        # sits in, and the fused search scores rows of many cells at once
        p1 = sigmoid((X * self.coef_).sum(axis=1) + self.intercept_)
        return np.column_stack([1.0 - p1, p1])

    def score_gradient(self, x) -> np.ndarray:
        """Return ``∇_x M(x)`` for a single sample.

        For logistic regression the gradient of the positive-class
        probability is ``p (1 - p) w``, pointing in the direction that
        increases the score fastest.
        """
        check_fitted(self, "coef_")
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.n_features_:
            raise ValidationError(
                f"expected {self.n_features_} features, got {x.size}"
            )
        p = float(sigmoid(np.array([x @ self.coef_ + self.intercept_]))[0])
        return p * (1.0 - p) * self.coef_
