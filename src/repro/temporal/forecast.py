"""Models generator: the sequence of future models ``(M_t, δ_t)_{t=0..T}``.

"The models generator then uses existing domain adaptation methods, in
order to create a sequence of pairs (Mt, δt), where Mt is the expected
approximated model at future time t, and δt is its threshold" (§II.B).

Six interchangeable forecasting strategies are provided:

``last``
    Train once on the most recent window and reuse it for every future
    time point — the static baseline every temporal question implicitly
    compares against.
``full``
    Train once on all history.
``reweight``
    Recency-weighted bootstrap per future time point: samples are drawn
    with probability decaying in their age *as seen from that future
    point*, so later models lean harder on recent data.
``weights``
    Fit one logistic regression per historical window, then linearly
    extrapolate the coefficient trajectory to each future time point
    (the style of "learning future classifiers" the paper cites as
    Kumagai & Iwata, AAAI 2016).
``edd``
    The paper's §II.B method (Lampert, CVPR 2015): per-class kernel mean
    embeddings of the window sequence, vector-valued ridge regression of
    the embedding dynamics, kernel herding of a synthetic future training
    set, then training the configured model on it.
``oracle``
    Trains on fresh data labeled by the *ground-truth* future policy.
    Only possible with the synthetic generator; used as the upper bound
    in the forecast ablation (never by the production pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import TemporalDataset
from repro.exceptions import ForecastError
from repro.ml.base import BaseClassifier, as_rng
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.preprocessing import StandardScaler
from repro.temporal.edd import EDDPredictor
from repro.temporal.embedding import RBFKernel, median_heuristic_gamma
from repro.temporal.fingerprint import model_fingerprint, walk_models
from repro.temporal.herding import herd
from repro.temporal.thresholds import calibrate_threshold

__all__ = [
    "FutureModel",
    "FutureModels",
    "ScaledLinearModel",
    "ForecastStrategy",
    "LastWindowStrategy",
    "FullHistoryStrategy",
    "RecencyWeightStrategy",
    "WeightExtrapolationStrategy",
    "EDDStrategy",
    "OracleStrategy",
    "ModelsGenerator",
    "PerPeriodStrategy",
    "STRATEGY_NAMES",
    "make_strategy",
]

ModelFactory = Callable[[], BaseClassifier]


def _default_model_factory() -> BaseClassifier:
    """The paper's demo model: a random forest per time span."""
    return RandomForestClassifier(n_estimators=25, max_depth=10, random_state=0)


@dataclass(frozen=True)
class FutureModel:
    """One ``(M_t, δ_t)`` pair plus its calendar position.

    ``fingerprint`` is the deterministic content digest computed by the
    models generator (see :mod:`repro.temporal.fingerprint`); ``None``
    only for hand-assembled instances and pre-fingerprint pickles.
    """

    t: int
    time_value: float
    model: BaseClassifier
    threshold: float
    fingerprint: str | None = None

    def score(self, X) -> np.ndarray:
        return self.model.decision_score(X)

    def decides_positive(self, X) -> np.ndarray:
        """Definition II.3 test: ``M_t(x) > δ_t``."""
        return self.score(X) > self.threshold


class FutureModels:
    """The ordered sequence ``(M_0, δ_0) .. (M_T, δ_T)``."""

    def __init__(self, models: Sequence[FutureModel], delta: float, now: float):
        if not models:
            raise ForecastError("FutureModels needs at least one model")
        self._models = tuple(models)
        self.delta = delta
        self.now = now

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self):
        return iter(self._models)

    def __getitem__(self, t: int) -> FutureModel:
        if not 0 <= t < len(self._models):
            raise ForecastError(
                f"time index {t} out of range [0, {len(self._models) - 1}]"
            )
        return self._models[t]

    @property
    def T(self) -> int:
        """Largest time index (the paper's T)."""
        return len(self._models) - 1

    def score(self, x, t: int) -> float:
        """``M_t(x)`` for one profile."""
        return float(self[t].score(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def decides_positive(self, x, t: int) -> bool:
        return bool(self.score(x, t) > self[t].threshold)

    @property
    def fingerprints(self) -> dict[int, str | None]:
        """``{t: content fingerprint}`` for every time point."""
        return {fm.t: fm.fingerprint for fm in self._models}

    def stale_against(self, previous: "FutureModels") -> list[int]:
        """Time indices whose model content differs from ``previous``.

        A time point is stale when its fingerprint changed, when either
        side lacks a fingerprint (pre-fingerprint pickles: assume stale,
        never serve silently outdated candidates), or when ``previous``
        has no model at that index.
        """
        stale = []
        for fm in self._models:
            if fm.t >= len(previous):
                stale.append(fm.t)
                continue
            old = previous[fm.t].fingerprint
            if old is None or fm.fingerprint is None or old != fm.fingerprint:
                stale.append(fm.t)
        return stale


class ScaledLinearModel(BaseClassifier):
    """Logistic model over standardised inputs, exposed in raw space.

    The weight-extrapolation strategy predicts coefficients in z-scored
    space; this wrapper owns the scaler so the rest of the system keeps
    talking raw feature vectors.  Implements the same ``score_gradient``
    contract as :class:`~repro.ml.linear.LogisticRegression` (chain rule
    through the scaling).
    """

    def __init__(self, scaler: StandardScaler, inner: LogisticRegression):
        self.scaler = scaler
        self.inner = inner
        self.n_features_ = inner.n_features_

    def fit(self, X, y):  # pragma: no cover - assembled, never fitted
        raise ForecastError("ScaledLinearModel is assembled, not fitted")

    def predict_proba(self, X) -> np.ndarray:
        return self.inner.predict_proba(self.scaler.transform(X))

    def score_gradient(self, x) -> np.ndarray:
        z = self.scaler.transform(np.atleast_2d(np.asarray(x, dtype=float)))[0]
        return self.inner.score_gradient(z) / self.scaler.scale_


# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------


class ForecastStrategy:
    """Builds the model list for the requested future time values."""

    def build(
        self,
        history: TemporalDataset,
        times: list[float],
        model_factory: ModelFactory,
        rng: np.random.Generator,
    ) -> list[BaseClassifier]:
        raise NotImplementedError

    @staticmethod
    def _recent_window(history: TemporalDataset, width: float) -> TemporalDataset:
        lo, hi = history.span
        window = history.window(max(lo, hi - width), hi + 1e-9)
        if len(window) == 0:
            raise ForecastError("recent window is empty")
        return window

    @staticmethod
    def _fit(factory: ModelFactory, X, y, rng: np.random.Generator) -> BaseClassifier:
        model = factory()
        if "random_state" in model.get_params():
            model.set_params(random_state=int(rng.integers(0, 2**31 - 1)))
        return model.fit(X, y)


class LastWindowStrategy(ForecastStrategy):
    """One model trained on the last ``window`` time units, reused for all t."""

    def __init__(self, window: float = 2.0):
        if window <= 0:
            raise ForecastError("window must be positive")
        self.window = window

    def build(self, history, times, model_factory, rng):
        recent = self._recent_window(history, self.window)
        model = self._fit(model_factory, recent.X, recent.y, rng)
        return [model] * len(times)


class FullHistoryStrategy(ForecastStrategy):
    """One model trained on the entire history, reused for all t."""

    def build(self, history, times, model_factory, rng):
        model = self._fit(model_factory, history.X, history.y, rng)
        return [model] * len(times)


class RecencyWeightStrategy(ForecastStrategy):
    """Recency-weighted bootstrap per future time point.

    For future time τ each historical sample with timestamp ``s`` gets
    weight ``exp(-(τ - s) ln2 / half_life)``; a bootstrap of size n is
    drawn with those probabilities and the model is fitted on it.  Later
    time points concentrate ever harder on recent samples, which tracks a
    smoothly drifting policy without modelling it explicitly.
    """

    def __init__(self, half_life: float = 3.0):
        if half_life <= 0:
            raise ForecastError("half_life must be positive")
        self.half_life = half_life

    def build(self, history, times, model_factory, rng):
        models = []
        n = len(history)
        for tau in times:
            age = tau - history.timestamps
            weights = np.exp(-np.log(2) * np.maximum(age, 0.0) / self.half_life)
            probabilities = weights / weights.sum()
            idx = rng.choice(n, size=n, replace=True, p=probabilities)
            models.append(self._fit(model_factory, history.X[idx], history.y[idx], rng))
        return models


class WeightExtrapolationStrategy(ForecastStrategy):
    """Linear extrapolation of per-window logistic coefficients.

    Fits one L2-regularised logistic regression per historical window (in
    a globally standardised feature space), regresses each coefficient on
    the window midpoint, and evaluates the regression at each future time
    — producing genuinely *different* models per t.  The produced models
    ignore ``model_factory`` (they are inherently linear).
    """

    def __init__(self, window: float = 1.0, min_window_samples: int = 30):
        if window <= 0:
            raise ForecastError("window must be positive")
        self.window = window
        self.min_window_samples = min_window_samples

    def build(self, history, times, model_factory, rng):
        scaler = StandardScaler().fit(history.X)
        Xs = scaler.transform(history.X)
        midpoints: list[float] = []
        coef_rows: list[np.ndarray] = []
        for start, window in history.periods(self.window):
            if len(window) < self.min_window_samples or len(np.unique(window.y)) < 2:
                continue
            mask = (history.timestamps >= start) & (
                history.timestamps < start + self.window
            )
            # final period may be end-inclusive; recompute via membership
            if mask.sum() != len(window):
                mask = np.isin(history.timestamps, window.timestamps)
            lr = LogisticRegression(lr=0.5, max_iter=400, alpha=1e-3)
            lr.fit(Xs[mask], history.y[mask])
            midpoints.append(start + self.window / 2.0)
            coef_rows.append(np.r_[lr.coef_, lr.intercept_])
        if len(midpoints) < 2:
            raise ForecastError(
                "weight extrapolation needs at least 2 usable windows"
            )
        Mid = np.column_stack([np.asarray(midpoints), np.ones(len(midpoints))])
        Theta = np.vstack(coef_rows)  # (windows, d + 1)
        # least-squares line per coefficient dimension
        slope_intercept, *_ = np.linalg.lstsq(Mid, Theta, rcond=None)
        models = []
        for tau in times:
            predicted = slope_intercept[0] * tau + slope_intercept[1]
            inner = LogisticRegression().set_weights(predicted[:-1], predicted[-1])
            models.append(ScaledLinearModel(scaler, inner))
        return models


class EDDStrategy(ForecastStrategy):
    """The paper's §II.B method: per-class EDD + herding + retraining.

    Pipeline per future time point t (horizon h = t + 1 windows ahead of
    the last observed one):

    1. standardise features globally;
    2. split history into ``window``-wide sample sets per class;
    3. fit an :class:`~repro.temporal.edd.EDDPredictor` per class and
       predict the class-conditional embedding at horizon h;
    4. herd ``n_herd`` synthetic points per class from the historical
       pool (with jitter, so tree learners see fresh split points);
    5. extrapolate the class prior linearly over window positive-rates;
    6. train ``model_factory`` on the synthetic labeled set in raw space.
    """

    def __init__(
        self,
        window: float = 1.0,
        n_herd: int = 250,
        ridge: float = 0.1,
        jitter: float = 0.05,
        min_window_samples: int = 10,
    ):
        if window <= 0:
            raise ForecastError("window must be positive")
        if n_herd < 10:
            raise ForecastError("n_herd must be >= 10")
        self.window = window
        self.n_herd = n_herd
        self.ridge = ridge
        self.jitter = jitter
        self.min_window_samples = min_window_samples

    def build(self, history, times, model_factory, rng):
        scaler = StandardScaler().fit(history.X)
        windows: list[TemporalDataset] = [
            w
            for _, w in history.periods(self.window)
            if len(w) >= self.min_window_samples
        ]
        if len(windows) < 3:
            raise ForecastError(
                f"EDD needs >= 3 usable windows, got {len(windows)}"
            )
        per_class_sets: dict[int, list[np.ndarray]] = {}
        for label in (0, 1):
            sets = []
            for w in windows:
                subset = w.X[w.y == label]
                if subset.shape[0] == 0:
                    raise ForecastError(
                        f"a window has no samples of class {label};"
                        " enlarge the window"
                    )
                sets.append(scaler.transform(subset))
            per_class_sets[label] = sets
        gamma = median_heuristic_gamma(scaler.transform(history.X), rng=rng)
        kernel = RBFKernel(gamma=gamma)
        predictors = {
            label: EDDPredictor(kernel, ridge=self.ridge).fit(sets)
            for label, sets in per_class_sets.items()
        }
        # class-prior trajectory: linear fit of window approval rates
        rates = np.array([w.y.mean() for w in windows])
        positions = np.arange(len(windows), dtype=float)
        slope, intercept = np.polyfit(positions, rates, deg=1)
        last_position = positions[-1]
        models = []
        last_time = history.span[1]
        for tau in times:
            horizon = max(1, int(round((tau - last_time) / self.window)) + 1)
            parts_X, parts_y = [], []
            prior = float(
                np.clip(slope * (last_position + horizon) + intercept, 0.05, 0.95)
            )
            counts = {
                1: max(5, int(round(self.n_herd * prior))),
                0: max(5, int(round(self.n_herd * (1 - prior)))),
            }
            for label, predictor in predictors.items():
                embedding = predictor.predict_embedding(horizon)
                herded = herd(
                    kernel,
                    embedding,
                    predictor.historical_pool,
                    counts[label],
                    jitter=self.jitter,
                    rng=rng,
                )
                parts_X.append(scaler.inverse_transform(herded))
                parts_y.append(np.full(herded.shape[0], label))
            X_future = np.vstack(parts_X)
            y_future = np.concatenate(parts_y)
            models.append(self._fit(model_factory, X_future, y_future, rng))
        return models


class PerPeriodStrategy(ForecastStrategy):
    """Model for time index t trains on the t-th ``window`` of history.

    The simplest forecaster with genuinely per-time-point models — and,
    more importantly, a *drift-locality harness*: new samples with
    timestamps inside one window change exactly one model, so it pins
    "one of T time points drifts" scenarios in refresh tests
    (``tests/test_refresh.py``).  Not registered under a name (it is a
    baseline/harness, not a recommended production forecaster);
    construct it explicitly.
    """

    def __init__(self, window: float = 1.0):
        if window <= 0:
            raise ForecastError("window must be positive")
        self.window = window

    def build(self, history, times, model_factory, rng):
        start = float(np.floor(history.span[0]))
        models = []
        for i in range(len(times)):
            window = history.window(
                start + i * self.window, start + (i + 1) * self.window
            )
            models.append(self._fit(model_factory, window.X, window.y, rng))
        return models


class OracleStrategy(ForecastStrategy):
    """Benchmark upper bound: trains on ground-truth-labeled future data.

    ``generator`` must expose ``sample_profiles(n)`` and
    ``label(X, years)`` — i.e. a :class:`~repro.data.lending.LendingGenerator`.
    """

    def __init__(self, generator, n_samples: int = 500):
        self.generator = generator
        self.n_samples = n_samples

    def build(self, history, times, model_factory, rng):
        models = []
        for tau in times:
            X = self.generator.sample_profiles(self.n_samples)
            y = self.generator.label(X, np.full(self.n_samples, tau))
            if len(np.unique(y)) < 2:  # degenerate draw; retry once larger
                X = self.generator.sample_profiles(self.n_samples * 2)
                y = self.generator.label(X, np.full(X.shape[0], tau))
            models.append(self._fit(model_factory, X, y, rng))
        return models


_STRATEGIES: dict[str, Callable[[], ForecastStrategy]] = {
    "last": LastWindowStrategy,
    "full": FullHistoryStrategy,
    "reweight": RecencyWeightStrategy,
    "weights": WeightExtrapolationStrategy,
    "edd": EDDStrategy,
}

#: Names accepted wherever a strategy is given as a string
#: (``oracle`` must be constructed explicitly).
STRATEGY_NAMES: tuple[str, ...] = tuple(sorted(_STRATEGIES))


def make_strategy(name: str, **kwargs) -> ForecastStrategy:
    """Instantiate a named strategy (``oracle`` must be built explicitly)."""
    try:
        factory = _STRATEGIES[name]
    except KeyError:
        raise ForecastError(
            f"unknown strategy {name!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
    return factory(**kwargs)


# --------------------------------------------------------------------------
# generator
# --------------------------------------------------------------------------


class ModelsGenerator:
    """Admin-configured producer of the future-model sequence.

    Parameters
    ----------
    T:
        Number of future time points beyond the present (indices 0..T).
    delta:
        Interval Δ between consecutive time points (timestamp units).
    strategy:
        Strategy instance or name (see :func:`make_strategy`).
    model_factory:
        Zero-argument callable returning an unfitted classifier; defaults
        to the paper's 25-tree random forest.
    threshold_method / fixed_threshold / target_rate:
        Passed to :func:`~repro.temporal.thresholds.calibrate_threshold`,
        evaluated against the most recent historical window.
    random_state:
        Seeds every stochastic step (bootstraps, herding jitter, model
        seeds).
    """

    def __init__(
        self,
        T: int = 5,
        delta: float = 1.0,
        strategy: ForecastStrategy | str = "edd",
        model_factory: ModelFactory | None = None,
        threshold_method: str = "fixed",
        fixed_threshold: float = 0.5,
        target_rate: float | None = None,
        random_state: int | None = 0,
    ):
        if T < 0:
            raise ForecastError("T must be non-negative")
        if delta <= 0:
            raise ForecastError("delta must be positive")
        self.T = T
        self.delta = delta
        self.strategy = (
            make_strategy(strategy) if isinstance(strategy, str) else strategy
        )
        self.model_factory = model_factory or _default_model_factory
        self.threshold_method = threshold_method
        self.fixed_threshold = fixed_threshold
        self.target_rate = target_rate
        self.random_state = random_state

    def generate(
        self, history: TemporalDataset, now: float | None = None
    ) -> FutureModels:
        """Train the sequence ``(M_t, δ_t)`` for ``t = 0 .. T``.

        ``now`` defaults to the most recent timestamp in the history; time
        point t corresponds to calendar time ``now + t·Δ``.
        """
        if len(history) == 0:
            raise ForecastError("history is empty")
        rng = as_rng(self.random_state)
        now = float(now if now is not None else history.span[1])
        times = [now + t * self.delta for t in range(self.T + 1)]
        models = self.strategy.build(history, times, self.model_factory, rng)
        if len(models) != len(times):
            raise ForecastError(
                f"strategy produced {len(models)} models for {len(times)} times"
            )
        walks = walk_models(models)
        reference = ForecastStrategy._recent_window(history, 2 * self.delta)
        future = []
        for t, (tau, model, walk) in enumerate(zip(times, models, walks)):
            threshold = calibrate_threshold(
                model,
                reference.X,
                reference.y,
                method=self.threshold_method,
                fixed_value=self.fixed_threshold,
                target_rate=self.target_rate,
            )
            fingerprint = model_fingerprint(
                walk, threshold, self.strategy, self.random_state
            )
            future.append(FutureModel(t, tau, model, threshold, fingerprint))
        return FutureModels(future, delta=self.delta, now=now)
