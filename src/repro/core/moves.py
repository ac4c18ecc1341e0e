"""Model-dependent move proposers for the candidate search.

The algorithm of [5] "applies model-dependent heuristics" to walk from the
rejected input toward the decision boundary.  Each proposer suggests
single-coordinate modifications of the current search state:

* :class:`ThresholdMoveProposer` — for tree ensembles: the score surface
  only changes when a feature crosses a split threshold, so the proposer
  jumps each mutable feature just past its nearest thresholds on either
  side (the classic tree-counterfactual heuristic).
* :class:`GradientMoveProposer` — for differentiable scorers exposing
  ``score_gradient``: moves coordinates in the direction that increases
  the score, at several step sizes.
* :class:`RandomMoveProposer` — model-agnostic exploration: perturbs a
  random mutable coordinate by a schema-scaled amount.  Keeps the search
  complete-ish when the structured heuristics stall.

Moves never touch immutable features and are clipped to schema bounds, so
every proposal is at least physically plausible before constraint
checking.

Batched path
------------
:meth:`MoveProposer.propose_batch` emits the proposals of *all* beam
states in one call, returning one ``(m_i, d)`` matrix per state.  The
default implementation loops over :meth:`propose` (bit-identical,
including the RNG draw order — only one default proposer consumes the
RNG, and it draws state-by-state in both paths);
:class:`ThresholdMoveProposer` overrides it with an array-native
implementation (one ``searchsorted`` pair per feature over all states,
index arithmetic for the picks, one matrix clip).
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import DatasetSchema
from repro.exceptions import CandidateSearchError

__all__ = [
    "MoveProposer",
    "ThresholdMoveProposer",
    "GradientMoveProposer",
    "RandomMoveProposer",
    "default_proposers",
]

#: Relative margin used when stepping across a split threshold.
_CROSS_MARGIN = 1e-3


class MoveProposer:
    """Suggests modified vectors around a search state."""

    def propose(
        self,
        x_current: np.ndarray,
        model,
        schema: DatasetSchema,
        rng: np.random.Generator,
    ) -> list[np.ndarray]:
        raise NotImplementedError

    def propose_batch(
        self,
        states: list[np.ndarray],
        model,
        schema: DatasetSchema,
        rng: np.random.Generator,
    ) -> list[np.ndarray]:
        """Proposals for every state: one ``(m_i, d)`` matrix per state.

        The default delegates to :meth:`propose` state-by-state, which
        preserves the exact RNG draw order of the scalar search loop.
        """
        d = len(schema)
        out = []
        for state in states:
            proposals = self.propose(state, model, schema, rng)
            if proposals:
                out.append(np.asarray(proposals, dtype=float).reshape(-1, d))
            else:
                out.append(np.empty((0, d)))
        return out


def _feature_margin(value: float) -> float:
    """Small absolute step proportional to the value scale."""
    return max(abs(value) * _CROSS_MARGIN, 1e-6)


def _quantile_spread(values: np.ndarray, n: int) -> np.ndarray:
    """Up to ``n`` values spread evenly (by rank) across ``values``."""
    if n == 0 or values.size == 0:
        return np.empty(0)
    if values.size <= n:
        return values
    idx = np.unique(np.linspace(0, values.size - 1, n).round().astype(int))
    return values[idx]


def _spread_offsets(counts: np.ndarray, n: int) -> np.ndarray:
    """:func:`_quantile_spread` as index arithmetic: for slices holding
    ``counts`` values, the offsets of the ``n`` picks, on a new last
    axis.  A slice of at most ``n`` values is taken whole (offsets
    ``0..n-1``, valid below the count).  A longer one spaces the picks
    by ``(count - 1) / (n - 1) > 1``, so rounding keeps them distinct and
    ``np.unique`` changes nothing; the arithmetic is ``np.linspace``'s
    own (index times step, last pick exactly ``count - 1``, round half
    to even), and ``n = 1`` picks offset 0.
    """
    picks = np.arange(n, dtype=float)
    offsets = np.broadcast_to(picks, counts.shape + (n,)).copy()
    many = counts > n
    if n > 1 and many.any():
        spread = picks * ((counts[many] - 1).astype(float) / (n - 1))[:, None]
        spread[:, -1] = counts[many] - 1
        offsets[many] = spread.round()
    return offsets.astype(np.intp)


class ThresholdMoveProposer(MoveProposer):
    """Jump mutable features across the model's split thresholds.

    Ensemble scores only change when a feature crosses a split, so
    candidate values per feature are "just past" thresholds.  Proposals
    combine the ``n_nearest`` thresholds on each side of the current value
    (local refinement) with ``n_far`` quantile-spread thresholds across
    the full per-feature range (long jumps) — without the long jumps the
    search cannot escape the flat zero-score plateau around a strongly
    rejected input.

    Parameters
    ----------
    n_nearest:
        Thresholds tried immediately on each side of the current value.
    n_far:
        Additional quantile-spread thresholds per direction.
    """

    def __init__(self, n_nearest: int = 3, n_far: int = 4):
        if n_nearest < 1:
            raise CandidateSearchError("n_nearest must be >= 1")
        if n_far < 0:
            raise CandidateSearchError("n_far must be >= 0")
        self.n_nearest = n_nearest
        self.n_far = n_far
        self._cache_model = None
        self._cache_thresholds: dict[int, np.ndarray] | None = None

    def _thresholds(self, model) -> dict[int, np.ndarray]:
        if model is not self._cache_model:
            if not hasattr(model, "split_thresholds"):
                raise CandidateSearchError(
                    f"{type(model).__name__} exposes no split_thresholds;"
                    " use GradientMoveProposer or RandomMoveProposer"
                )
            self._cache_model = model
            # sort defensively: both the nearest-k slicing and the batch
            # searchsorted lookup require ascending thresholds, which a
            # duck-typed model may not guarantee
            self._cache_thresholds = {
                feature: np.sort(values)
                for feature, values in model.split_thresholds().items()
            }
        return self._cache_thresholds

    def _targets_for(self, value: float, feature_thresholds: np.ndarray) -> np.ndarray:
        """Candidate values for one feature: nearest and quantile-spread
        thresholds on both sides of ``value``, margin-shifted past the
        split.  ``feature_thresholds`` is sorted, so the strict >/<
        splits are two binary searches.  The scalar reference that
        :meth:`propose_batch` reproduces by index arithmetic.
        """
        margin = _feature_margin(value)
        first_above = np.searchsorted(
            feature_thresholds, value + 1e-12, side="right"
        )
        first_at_or_above = np.searchsorted(
            feature_thresholds, value - 1e-12, side="left"
        )
        above = feature_thresholds[first_above:]
        below = feature_thresholds[:first_at_or_above]
        return np.concatenate(
            [
                above[: self.n_nearest] + margin,
                below[-self.n_nearest:] - margin,
                _quantile_spread(above[self.n_nearest:], self.n_far) + margin,
                _quantile_spread(below[: -self.n_nearest or None], self.n_far)
                - margin,
            ]
        )

    def propose(self, x_current, model, schema, rng) -> list[np.ndarray]:
        thresholds = self._thresholds(model)
        proposals: list[np.ndarray] = []
        for idx in schema.mutable_indices():
            feature_thresholds = thresholds.get(int(idx))
            if feature_thresholds is None or feature_thresholds.size == 0:
                continue
            value = x_current[idx]
            targets = self._targets_for(value, feature_thresholds)
            for target in targets:
                candidate = x_current.copy()
                candidate[idx] = target
                candidate = schema.clip(candidate)
                # integer rounding can undo a crossing; nudge one unit
                if candidate[idx] == x_current[idx]:
                    candidate[idx] = x_current[idx] + np.sign(target - value)
                    candidate = schema.clip(candidate)
                    if candidate[idx] == x_current[idx]:
                        continue
                proposals.append(candidate)
        return proposals

    def propose_batch(self, states, model, schema, rng) -> list[np.ndarray]:
        """Vectorized multi-state proposal: identical rows and row order
        to calling :meth:`propose` per state.

        Per mutable feature, two ``searchsorted`` calls over every state
        place each value among the sorted thresholds; the nearest and
        quantile-spread picks of :meth:`_targets_for` are then index
        arithmetic on those positions.  The targets form one
        ``(state, feature, slot)`` block whose valid slots, read in C
        order, are the scalar loop's targets in its order, and
        materialization, clipping and the integer-rounding nudge run as
        matrix operations over all rows at once.
        """
        thresholds = self._thresholds(model)
        d = len(schema)
        if not len(states):
            return []
        S = np.atleast_2d(np.asarray(states, dtype=float))
        n_states = S.shape[0]
        features, first_above, n_below = [], [], []
        for idx in schema.mutable_indices():
            feature_thresholds = thresholds.get(int(idx))
            if feature_thresholds is None or feature_thresholds.size == 0:
                continue
            features.append(int(idx))
            first_above.append(
                np.searchsorted(feature_thresholds, S[:, idx] + 1e-12, side="right")
            )
            n_below.append(
                np.searchsorted(feature_thresholds, S[:, idx] - 1e-12, side="left")
            )
        if not features:
            return [np.empty((0, d)) for _ in range(n_states)]
        # (state, feature) positions among each feature's sorted thresholds
        first_above = np.stack(first_above, axis=1)
        n_below = np.stack(n_below, axis=1)
        sizes = np.array([thresholds[f].size for f in features])
        nn, nf = self.n_nearest, self.n_far
        near, far = np.arange(nn), np.arange(nf)
        near_below = np.minimum(n_below, nn)
        far_above = np.maximum(sizes - first_above - nn, 0)
        far_below = np.maximum(n_below - nn, 0)
        # slots: nearest above, nearest below, spread above, spread below
        positions = np.concatenate(
            [
                first_above[..., None] + near,
                (n_below - near_below)[..., None] + near,
                (first_above + nn)[..., None] + _spread_offsets(far_above, nf),
                _spread_offsets(far_below, nf),
            ],
            axis=2,
        )
        valid = np.concatenate(
            [
                near < (sizes - first_above)[..., None],
                near < n_below[..., None],
                far < far_above[..., None],
                far < far_below[..., None],
            ],
            axis=2,
        )
        state_of, feature_of, slot_of = np.nonzero(valid)
        if not state_of.size:
            return [np.empty((0, d)) for _ in range(n_states)]
        # every feature's thresholds in one array: a pick's index there is
        # its feature's start plus its position
        packed = np.concatenate([thresholds[f] for f in features])
        picks = (np.cumsum(sizes) - sizes)[feature_of] + positions[valid]
        col_of = np.asarray(features)[feature_of]
        original = S[state_of, col_of]
        margin = np.maximum(np.abs(original) * _CROSS_MARGIN, 1e-6)
        sign = np.repeat([1.0, -1.0, 1.0, -1.0], [nn, nn, nf, nf])
        targets = packed[picks] + sign[slot_of] * margin
        m = targets.size
        rows = np.arange(m)
        candidates = S[state_of]
        candidates[rows, col_of] = targets
        candidates = schema.clip_matrix(candidates)
        # integer rounding can undo a crossing; nudge one unit and re-clip
        undone = candidates[rows, col_of] == original
        keep = np.ones(m, dtype=bool)
        if undone.any():
            which = rows[undone]
            candidates[which, col_of[undone]] = original[undone] + np.sign(
                targets[undone] - original[undone]
            )
            candidates[which] = schema.clip_matrix(candidates[which])
            keep[which] = candidates[which, col_of[undone]] != original[undone]
        candidates = candidates[keep]
        state_of = state_of[keep]
        # rows are state-major, so one split recovers per-state
        bounds = np.searchsorted(state_of, np.arange(1, n_states))
        return np.split(candidates, bounds)


class GradientMoveProposer(MoveProposer):
    """Per-coordinate steps along the model's score gradient.

    ``step_fractions`` scale the per-feature move relative to the
    feature's schema ``step`` (or 1% of the current magnitude when the
    schema gives none).
    """

    def __init__(self, step_fractions: tuple[float, ...] = (1.0, 4.0, 16.0)):
        if not step_fractions:
            raise CandidateSearchError("step_fractions must be non-empty")
        self.step_fractions = step_fractions

    def propose(self, x_current, model, schema, rng) -> list[np.ndarray]:
        if not hasattr(model, "score_gradient"):
            raise CandidateSearchError(
                f"{type(model).__name__} exposes no score_gradient;"
                " use ThresholdMoveProposer or RandomMoveProposer"
            )
        gradient = np.asarray(model.score_gradient(x_current), dtype=float)
        proposals: list[np.ndarray] = []
        for idx in schema.mutable_indices():
            direction = np.sign(gradient[idx])
            if direction == 0:
                continue
            spec = schema[int(idx)]
            base_step = spec.step or max(abs(x_current[idx]) * 0.01, 1.0)
            for fraction in self.step_fractions:
                candidate = x_current.copy()
                candidate[idx] = x_current[idx] + direction * base_step * fraction
                candidate = schema.clip(candidate)
                if candidate[idx] != x_current[idx]:
                    proposals.append(candidate)
        return proposals


class RandomMoveProposer(MoveProposer):
    """Schema-scaled random single-coordinate perturbations."""

    def __init__(self, n_proposals: int = 8, spread: float = 4.0):
        if n_proposals < 1:
            raise CandidateSearchError("n_proposals must be >= 1")
        self.n_proposals = n_proposals
        self.spread = spread

    def propose(self, x_current, model, schema, rng) -> list[np.ndarray]:
        mutable = schema.mutable_indices()
        if mutable.size == 0:
            return []
        proposals: list[np.ndarray] = []
        for _ in range(self.n_proposals):
            idx = int(rng.choice(mutable))
            spec = schema[idx]
            if spec.dtype == "categorical" and spec.categories:
                options = [c for c in spec.categories if c != x_current[idx]]
                if not options:
                    continue
                new_value = float(rng.choice(options))
            else:
                base_step = spec.step or max(abs(x_current[idx]) * 0.01, 1.0)
                new_value = x_current[idx] + rng.normal(0.0, self.spread) * base_step
            candidate = x_current.copy()
            candidate[idx] = new_value
            candidate = schema.clip(candidate)
            if candidate[idx] != x_current[idx]:
                proposals.append(candidate)
        return proposals


def default_proposers(model) -> list[MoveProposer]:
    """Pick proposers matching the model's capabilities.

    Tree ensembles get threshold moves, differentiable models get gradient
    moves; both are backed by random exploration.
    """
    proposers: list[MoveProposer] = []
    if hasattr(model, "split_thresholds"):
        proposers.append(ThresholdMoveProposer())
    if hasattr(model, "score_gradient"):
        proposers.append(GradientMoveProposer())
    proposers.append(RandomMoveProposer())
    return proposers
