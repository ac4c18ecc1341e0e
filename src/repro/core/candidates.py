"""Decision-altering candidate generation (Definitions II.3, §II.A).

The generator searches for modifications ``x'`` of the (temporal) input
``x`` with ``x' ∈ C(x)`` and ``M_t(x') > δ_t``.  Finding an optimal
candidate is NP-hard for forests and neural networks, so — following the
paper's adaptation of Deutch & Frost [5] — the search is an iterative
beam search:

* model-dependent heuristics propose single-coordinate moves around each
  beam state (:mod:`repro.core.moves`);
* a beam of width ``beam_width`` keeps the most promising states, where
  "promising" blends proximity to the decision boundary, the user's
  objective, and a penalty for violated constraints (states may pass
  *through* invalid regions, but only valid, decision-altering points are
  collected as candidates);
* iteration stops at ``max_iter`` or after ``patience`` iterations
  without improving the best candidate (the paper observes empirical
  convergence "after a small number of iterations" — the bench measures
  this);
* the pool is reduced to a small *diverse* top-k
  (:mod:`repro.core.diversity`).

:func:`brute_force_tree_candidates` computes the exact minimal-``diff``
candidate for a single decision tree by enumerating positive leaves —
feasible because one tree partitions the space into boxes — and serves as
the optimality reference in tests and the beam ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constraints.evaluate import ConstraintsFunction
from repro.core.diversity import diverse_order
from repro.core.moves import MoveProposer, default_proposers
from repro.core.objectives import (
    BatchCandidateMetrics,
    CandidateMetrics,
    Objective,
    get_objective,
    measure,
    measure_batch,
)
from repro.data.schema import DatasetSchema
from repro.exceptions import CandidateSearchError
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "Candidate",
    "SearchStats",
    "CandidateGenerator",
    "search_counter_totals",
    "brute_force_tree_candidates",
]

#: Weight of the boundary-distance term in the beam heuristic.
_BOUNDARY_WEIGHT = 10.0
#: Per-violated-constraint penalty in the beam heuristic.
_VIOLATION_PENALTY = 5.0

@dataclass(frozen=True)
class Candidate:
    """One decision-altering candidate at one time point.

    ``plan_rank``/``plan_quality``/``plan_min_dist`` describe the
    candidate's place in its cell's stored diverse plan set: selection
    order under greedy max-min diversity, the objective key it was
    scored with, and the scaled distance to the nearest earlier pick
    (``None`` for the seed).  ``plan_rank`` is ``-1`` for candidates
    that never went through plan-set finalisation (legacy rows,
    ad-hoc constructions); such rows serialise exactly as before the
    metadata existed.
    """

    x: np.ndarray
    time: int
    metrics: CandidateMetrics
    plan_rank: int = -1
    plan_quality: float | None = None
    plan_min_dist: float | None = None

    @property
    def diff(self) -> float:
        return self.metrics.diff

    @property
    def gap(self) -> int:
        return self.metrics.gap

    @property
    def confidence(self) -> float:
        return self.metrics.confidence

    def changes(self, x_base, schema: DatasetSchema) -> dict[str, tuple[float, float]]:
        """``{feature: (from, to)}`` for every modified coordinate."""
        x_base = np.asarray(x_base, dtype=float).ravel()
        out = {}
        for i, name in enumerate(schema.names):
            if abs(self.x[i] - x_base[i]) > 1e-9:
                out[name] = (float(x_base[i]), float(self.x[i]))
        return out


@dataclass
class SearchStats:
    """Diagnostics of one ``generate`` call."""

    iterations: int = 0
    proposals_evaluated: int = 0
    valid_found: int = 0
    converged: bool = False
    best_key_history: list[float] = field(default_factory=list)
    #: proposals dropped by the rounded-row visited-set dedupe before any
    #: model/constraint evaluation
    dedupe_hits: int = 0
    #: rows whose decision score was served from the fused engine's
    #: epoch-level cross-cell proposal cache (0 for a single-cell
    #: :meth:`CandidateGenerator.generate`)
    cache_hits: int = 0
    #: rows the epoch cache had to score through the model (0 for a
    #: single-cell :meth:`CandidateGenerator.generate`)
    cache_misses: int = 0


#: counter fields aggregated across cells by refresh / drain reports
SEARCH_COUNTER_FIELDS = (
    "iterations",
    "proposals_evaluated",
    "valid_found",
    "dedupe_hits",
    "cache_hits",
    "cache_misses",
)


def search_counter_totals(stats_iter) -> dict[str, int]:
    """Sum the :data:`SEARCH_COUNTER_FIELDS` over an iterable of
    :class:`SearchStats` (``None`` entries are skipped) — the per-epoch
    drain-efficiency summary exposed on refresh and worker reports."""
    totals = dict.fromkeys(SEARCH_COUNTER_FIELDS, 0)
    for stats in stats_iter:
        if stats is None:
            continue
        for name in SEARCH_COUNTER_FIELDS:
            totals[name] += int(getattr(stats, name, 0))
    return totals


class _CandidatePool:
    """One cell's insert-only candidate pool, kept as arrays.

    Each :meth:`add` appends a block of valid rows with their metrics
    and objective keys.  Blocks keep first-insertion order — the order
    the row-at-a-time search's dict pool keeps — so plan-set selection
    sees the same pool order.  Rows are unique without a check: the
    visited set admits each rounded row once.
    """

    __slots__ = ("_blocks", "_size")

    def __init__(self):
        self._blocks: list[tuple] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, rows, metrics: BatchCandidateMetrics, quality, take) -> None:
        """Append rows ``take`` of ``rows``/``metrics``/``quality``."""
        self._blocks.append(
            (
                rows[take],
                metrics.diff[take],
                metrics.gap[take],
                metrics.confidence[take],
                quality[take],
            )
        )
        self._size += self._blocks[-1][0].shape[0]

    @classmethod
    def of(cls, candidates: list[Candidate], objective: Objective):
        """The pool of row-at-a-time :class:`Candidate` objects, in order."""
        pool = cls()
        if candidates:
            metrics = BatchCandidateMetrics(
                diff=np.array([c.diff for c in candidates], dtype=float),
                gap=np.array([c.gap for c in candidates]),
                confidence=np.array([c.confidence for c in candidates], dtype=float),
            )
            quality = np.array([objective.key(c.metrics) for c in candidates])
            rows = np.vstack([c.x for c in candidates])
            pool.add(rows, metrics, quality, slice(None))
        return pool

    def stacked(self) -> tuple[np.ndarray, BatchCandidateMetrics, np.ndarray]:
        """``(points, metrics, quality)`` over the whole pool."""
        rows, diff, gap, confidence, quality = (
            np.concatenate(column) for column in zip(*self._blocks)
        )
        return rows, BatchCandidateMetrics(diff, gap, confidence), quality


@dataclass
class _BeamState:
    """Mutable state of one cell's batched beam search.

    Owned by :meth:`CandidateGenerator.generate` and shared with the
    fused multi-cell engine, which holds one per active cell and
    advances them in lock-stepped rounds (cells drop out of the round
    set as ``done`` flips).  ``pool`` holds the valid proposals as
    arrays; :class:`Candidate` objects are built only for the plan set
    chosen from it at the end.
    """

    x_base: np.ndarray
    time: int
    rng: np.random.Generator
    stats: SearchStats
    pool: _CandidatePool
    visited: set
    best_key: float
    pool_best: float
    beam: list
    stale: int = 0
    done: bool = False


class CandidateGenerator:
    """Beam-search generator of diverse top-k decision-altering candidates.

    Parameters
    ----------
    model:
        Fitted scorer ``M_t`` (Definition II.1).
    threshold:
        Decision threshold ``δ_t``.
    schema:
        Feature schema (drives move granularity and physical clipping).
    constraints:
        Joined admin+user constraints ``C_t``; ``None`` means
        unconstrained.
    k:
        Number of candidates to return (diverse top-k).
    beam_width:
        Beam size; defaults to ``k`` as in the paper ("a beam search with
        width k").
    max_iter / patience:
        Iteration budget and no-improvement stopping patience.
    objective:
        Preset name or :class:`~repro.core.objectives.Objective` used for
        beam ranking and the final quality key.
    diff_scale:
        Per-feature divisors for ``diff`` (typically training-set stds).
    proposers:
        Move proposers; defaults to capability-matched ones.
    random_state:
        Seeds the random exploration moves.
    """

    def __init__(
        self,
        model,
        threshold: float,
        schema: DatasetSchema,
        constraints: ConstraintsFunction | None = None,
        *,
        k: int = 8,
        beam_width: int | None = None,
        max_iter: int = 15,
        patience: int = 3,
        objective: str | Objective = "balanced",
        diff_scale=None,
        proposers: list[MoveProposer] | None = None,
        random_state: int | None = 0,
    ):
        if k < 1:
            raise CandidateSearchError("k must be >= 1")
        if max_iter < 1:
            raise CandidateSearchError("max_iter must be >= 1")
        if patience < 1:
            raise CandidateSearchError("patience must be >= 1")
        self.model = model
        self.threshold = float(threshold)
        self.schema = schema
        self.constraints = constraints or ConstraintsFunction.unconstrained(schema)
        if diff_scale is None and self.constraints.diff_scale is not None:
            diff_scale = self.constraints.diff_scale
        self.diff_scale = diff_scale
        # metrics diff can be reused for the constraints' 'diff' variable
        # only when both layers measure in the same scaled space
        constraint_scale = self.constraints.diff_scale
        self._shared_diff_scale = (
            (diff_scale is None and constraint_scale is None)
            or (
                diff_scale is not None
                and constraint_scale is not None
                and np.array_equal(diff_scale, constraint_scale)
            )
        )
        self.k = k
        self.beam_width = beam_width or k
        self.max_iter = max_iter
        self.patience = patience
        self.objective = get_objective(objective)
        self.proposers = proposers if proposers is not None else default_proposers(model)
        self.random_state = random_state
        self.last_stats_: SearchStats | None = None

    # ------------------------------------------------------------ internals

    @staticmethod
    def _state_key(x: np.ndarray) -> tuple:
        return tuple(np.round(x, 9))

    @staticmethod
    def _row_keys(X: np.ndarray) -> list[bytes]:
        """Rounded-row dedupe keys for a proposal matrix.

        Equivalent to hashing :meth:`_state_key` tuples: ``+ 0.0``
        normalises ``-0.0`` to ``+0.0`` so the byte keys collide exactly
        where tuple equality would.
        """
        R = np.round(np.atleast_2d(X), 9) + 0.0
        return R.view(np.dtype((np.void, R.itemsize * R.shape[1]))).ravel().tolist()

    def _beam_key(
        self, metrics: CandidateMetrics, n_violations: int, pool_empty: bool
    ) -> float:
        """Beam ranking: smaller is more promising.

        While the pool is empty the objective term is down-weighted so the
        beam chases the decision boundary instead of hugging the input (a
        strongly rejected input sits on a flat zero-score plateau where
        only the boundary term can provide direction).
        """
        boundary = max(0.0, self.threshold - metrics.confidence)
        objective_weight = 0.1 if pool_empty else 1.0
        return (
            _BOUNDARY_WEIGHT * boundary
            + objective_weight * self.objective.key(metrics)
            + _VIOLATION_PENALTY * n_violations
        )

    # -------------------------------------------------------------- search

    def _prologue_rows(self, x_base, warm_start=None):
        """The clipped base vector and clipped warm matrix exactly as
        :meth:`_prologue` will rebuild them (warm matrix is ``None`` when
        no warm seeds exist).  The fused engine uses this to pre-score
        the prologue rows through the epoch cache before starting the
        cell."""
        x_clip = self.schema.clip(np.asarray(x_base, dtype=float).ravel())
        warm_matrix = (
            None
            if warm_start is None
            else np.atleast_2d(np.asarray(warm_start, dtype=float))
        )
        if warm_matrix is not None and warm_matrix.size:
            return x_clip, self.schema.clip_matrix(warm_matrix)
        return x_clip, None

    def _prologue(
        self,
        x_base,
        time: int,
        key_fn,
        warm_start=None,
        *,
        base_score=None,
        warm_scores=None,
    ):
        """Shared search setup: clip the input, seed the RNG, and pool
        the unmodified input if it already flips (the paper's Q1, "no
        modification").  ``key_fn`` is the search loop's state-key function.

        ``warm_start`` is an optional ``(n, d)`` array (or list of
        vectors) of previously found candidates for this cell; each is
        clipped, revalidated under the *current* model and constraints
        (pooled only when still decision-altering and valid), and kept as
        an extra initial beam seed ranked by the beam key.  With
        ``warm_start=None`` the search is bit-identical to the historical
        cold path.

        ``base_score`` / ``warm_scores`` optionally inject the decision
        scores of the clipped base vector / warm matrix (as returned by
        :meth:`_prologue_rows`) instead of calling the model here — the
        fused engine scores the prologue rows of many cells in one
        grouped, cache-served call.  The injected values must equal what
        the model would return row-by-row — true for every supported
        scorer (``tests/test_row_determinism.py``).
        """
        x_base = self.schema.clip(np.asarray(x_base, dtype=float).ravel())
        rng = np.random.default_rng(self.random_state)
        stats = SearchStats()
        pool: dict = {}
        visited: set = {key_fn(x_base)}
        if base_score is None:
            base_score = float(
                self.model.decision_score(x_base.reshape(1, -1))[0]
            )
        else:
            base_score = float(base_score)
        base_metrics = measure(x_base, x_base, base_score, self.diff_scale)
        if base_score > self.threshold and self.constraints.is_valid(
            x_base, x_base, confidence=base_score, time=time
        ):
            pool[key_fn(x_base)] = Candidate(x_base, time, base_metrics)
            stats.valid_found += 1
        seeds: list[tuple[float, int, np.ndarray]] = []
        warm_matrix = (
            None
            if warm_start is None
            else np.atleast_2d(np.asarray(warm_start, dtype=float))
        )
        if warm_matrix is not None and warm_matrix.size:
            W = self.schema.clip_matrix(warm_matrix)
            # one model call for all seeds; constraints stay per-row (the
            # seed lists are small — at most the stored k of the cell)
            if warm_scores is None:
                warm_scores = np.asarray(
                    self.model.decision_score(W), dtype=float
                ).ravel()
            else:
                warm_scores = np.asarray(warm_scores, dtype=float).ravel()
            for order in range(W.shape[0]):
                w = W[order]
                key = key_fn(w)
                if key in visited:
                    continue
                visited.add(key)
                score = float(warm_scores[order])
                metrics = measure(w, x_base, score, self.diff_scale)
                violations = self.constraints.violated(
                    w, x_base, confidence=score, time=time
                )
                stats.proposals_evaluated += 1
                if not violations and score > self.threshold:
                    pool[key] = Candidate(w, time, metrics)
                    stats.valid_found += 1
                seeds.append(
                    (self._beam_key(metrics, len(violations), not pool), order, w)
                )
            seeds.sort(key=lambda item: (item[0], item[1]))
        best_key = min(
            (self.objective.key(c.metrics) for c in pool.values()),
            default=np.inf,
        )
        beam = [x_base] + [w for _, _, w in seeds[: max(0, self.beam_width - 1)]]
        return x_base, rng, stats, pool, visited, best_key, beam

    def generate(self, x_base, time: int = 0, warm_start=None) -> list[Candidate]:
        """Return up to ``k`` diverse decision-altering candidates.

        ``x_base`` is the temporal input ``f(x, t)`` for this generator's
        time point; diff/gap are measured against it.  ``warm_start``
        optionally seeds the beam from previously stored candidates (see
        :meth:`_prologue`); the incremental refresh uses it to resume the
        search near the old optimum instead of from the profile.

        One iteration is: stack all proposals of the beam into an
        ``(m, d)`` matrix, dedupe by rounded-row byte keys, then compute
        scores, metrics, constraint-violation counts and beam keys as
        single array operations.  Every floating-point reduction matches
        the row-at-a-time :meth:`_generate_scalar`'s op order, and
        ranking uses a *stable* top-k, so the candidates are
        bit-identical to it for the same seed.

        The loop body is factored into :meth:`_propose_step`,
        :meth:`_dedupe_step` and :meth:`_absorb_step` over a
        :class:`_BeamState`; the fused multi-cell engine
        (:mod:`repro.core.fused`) drives the same steps across many
        cells at once, with only the model-scoring call between them
        swapped for the grouped, cache-served variant.
        """
        state = self._begin_batch(x_base, time, warm_start)
        for _ in range(self.max_iter):
            state.stats.iterations += 1
            pair = self._dedupe_step(state, self._propose_step(state))
            if pair is None:
                break
            fresh = pair[0]
            scores = np.asarray(
                self.model.decision_score(fresh), dtype=float
            ).ravel()
            self._absorb_step(state, fresh, scores)
            if state.done:
                break
        self.last_stats_ = state.stats
        return self._finalise(state.pool, state.time)

    def _generate_scalar(
        self, x_base, time: int = 0, warm_start=None
    ) -> list[Candidate]:
        """Row-at-a-time reference implementation of :meth:`generate`.

        No option selects it: tests check the vectorized kernel against
        it.  Caveat: :meth:`generate` calls each proposer once per
        iteration (over all beam states) while this loop interleaves
        proposers per state, so with *custom* proposer lists in which
        more than one proposer consumes the RNG, the draw order — and
        hence the random moves — can differ.  The default proposers have
        exactly one RNG consumer, where both orders coincide.
        """
        x_base, rng, stats, pool, visited, best_key, beam = self._prologue(
            x_base, time, self._state_key, warm_start
        )
        stale = 0
        for iteration in range(self.max_iter):
            stats.iterations = iteration + 1
            proposals: list[np.ndarray] = []
            for state in beam:
                for proposer in self.proposers:
                    proposals.extend(
                        proposer.propose(state, self.model, self.schema, rng)
                    )
            fresh: list[np.ndarray] = []
            for proposal in proposals:
                key = self._state_key(proposal)
                if key not in visited:
                    visited.add(key)
                    fresh.append(proposal)
            stats.dedupe_hits += len(proposals) - len(fresh)
            if not fresh:
                stats.converged = True
                break
            stats.proposals_evaluated += len(fresh)
            scores = self.model.decision_score(np.vstack(fresh))
            ranked: list[tuple[float, np.ndarray]] = []
            for proposal, score in zip(fresh, scores):
                metrics = measure(proposal, x_base, float(score), self.diff_scale)
                violations = self.constraints.violated(
                    proposal, x_base, confidence=float(score), time=time
                )
                if not violations and score > self.threshold:
                    pool[self._state_key(proposal)] = Candidate(
                        proposal, time, metrics
                    )
                    stats.valid_found += 1
                ranked.append(
                    (self._beam_key(metrics, len(violations), not pool), proposal)
                )
            ranked.sort(key=lambda pair: pair[0])
            beam = [proposal for _, proposal in ranked[: self.beam_width]]
            new_best = min(
                (self.objective.key(c.metrics) for c in pool.values()),
                default=np.inf,
            )
            stats.best_key_history.append(new_best)
            if new_best < best_key - 1e-12:
                best_key = new_best
                stale = 0
            else:
                stale += 1
                if stale >= self.patience and pool:
                    stats.converged = True
                    break
        self.last_stats_ = stats
        return self._finalise(
            _CandidatePool.of(list(pool.values()), self.objective), time
        )

    # ------------------------------------------------- batched step kernel

    def _begin_batch(
        self, x_base, time: int, warm_start=None, *, base_score=None,
        warm_scores=None,
    ) -> "_BeamState":
        """Prologue → mutable :class:`_BeamState` for the batched loop;
        the prologue's pooled rows move into the array pool here."""
        x_base, rng, stats, pool, visited, best_key, beam = self._prologue(
            x_base,
            time,
            lambda x: self._row_keys(x)[0],
            warm_start,
            base_score=base_score,
            warm_scores=warm_scores,
        )
        # pool only ever grows, so the best pool key is a running minimum
        return _BeamState(
            x_base=x_base,
            time=time,
            rng=rng,
            stats=stats,
            pool=_CandidatePool.of(list(pool.values()), self.objective),
            visited=visited,
            best_key=best_key,
            pool_best=best_key,
            beam=beam,
        )

    def _propose_step(self, state: "_BeamState") -> list[np.ndarray]:
        """All proposal matrices for the current beam, in scalar order."""
        chunks = [
            proposer.propose_batch(state.beam, self.model, self.schema, state.rng)
            for proposer in self.proposers
        ]
        return self._interleave_chunks(chunks, len(state.beam))

    @staticmethod
    def _interleave_chunks(
        chunks: list[list[np.ndarray]], n_states: int
    ) -> list[np.ndarray]:
        """Re-interleave per-proposer batches state-major, matching the
        scalar loop's proposal order; empty matrices are dropped."""
        mats = [chunk[s] for s in range(n_states) for chunk in chunks]
        return [m for m in mats if m.shape[0]]

    def _dedupe_step(self, state: "_BeamState", mats: list[np.ndarray]):
        """Visited-set dedupe of one iteration's proposals.

        Returns ``(fresh, fresh_keys)`` — the unvisited rows and their
        byte keys — or ``None`` when the iteration produced nothing new,
        in which case the search is marked converged/done.
        """
        if not mats:
            state.stats.converged = True
            state.done = True
            return None
        proposals = np.vstack(mats)
        keys = self._row_keys(proposals)
        fresh_idx = []
        fresh_keys = []
        for i, key in enumerate(keys):
            if key not in state.visited:
                state.visited.add(key)
                fresh_idx.append(i)
                fresh_keys.append(key)
        state.stats.dedupe_hits += len(keys) - len(fresh_idx)
        if not fresh_idx:
            state.stats.converged = True
            state.done = True
            return None
        fresh = proposals[fresh_idx]
        state.stats.proposals_evaluated += fresh.shape[0]
        return fresh, fresh_keys

    def _absorb_step(
        self,
        state: "_BeamState",
        fresh: np.ndarray,
        scores: np.ndarray,
    ) -> None:
        """Post-scoring remainder of one iteration: metrics, constraint
        counts, pool inserts (the valid rows, as one array block),
        beam re-ranking and the patience check.  Sets ``state.done``
        when the search converged."""
        x_base, time, pool, stats = state.x_base, state.time, state.pool, state.stats
        n = fresh.shape[0]
        metrics = measure_batch(fresh, x_base, scores, self.diff_scale)
        violation_counts = self.constraints.violation_counts_batch(
            fresh,
            x_base,
            confidence=scores,
            time=time,
            diff=metrics.diff if self._shared_diff_scale else None,
            gap=metrics.gap,
        )
        valid = (violation_counts == 0) & (scores > self.threshold)
        objective_keys = self.objective.key_batch(metrics)
        # the scalar loop checks `not pool` after inserting each row,
        # so the objective down-weighting switches off as soon as any
        # earlier row (inclusive) entered the pool this iteration
        if pool:
            pool_empty = np.zeros(n, dtype=bool)
        else:
            pool_empty = np.cumsum(valid) == 0
        objective_weight = np.where(pool_empty, 0.1, 1.0)
        beam_keys = (
            _BOUNDARY_WEIGHT * np.maximum(0.0, self.threshold - scores)
            + objective_weight * objective_keys
            + _VIOLATION_PENALTY * violation_counts
        )
        keep = np.flatnonzero(valid)
        if keep.size:
            pool.add(fresh, metrics, objective_keys, keep)
            stats.valid_found += int(keep.size)
            state.pool_best = min(
                state.pool_best, float(objective_keys[keep].min())
            )
        state.beam = [
            fresh[i] for i in self._stable_top(beam_keys, self.beam_width)
        ]
        new_best = state.pool_best
        stats.best_key_history.append(new_best)
        if new_best < state.best_key - 1e-12:
            state.best_key = new_best
            state.stale = 0
        else:
            state.stale += 1
            if state.stale >= self.patience and pool:
                stats.converged = True
                state.done = True

    @staticmethod
    def _stable_top(keys: np.ndarray, width: int) -> np.ndarray:
        """Indices of the ``width`` smallest keys, in stable sorted order.

        One ``argpartition`` plus a tie repair at the cut, equivalent to
        a full stable sort followed by ``[:width]`` (ties at the boundary
        resolve to the lowest original indices, like Python's stable
        ``list.sort`` in the scalar path).
        """
        n = keys.size
        if n <= width:
            take = np.arange(n)
        else:
            part = np.argpartition(keys, width - 1)[:width]
            cut = keys[part].max()
            smaller = np.flatnonzero(keys < cut)
            tied = np.flatnonzero(keys == cut)
            take = np.concatenate([smaller, tied[: width - smaller.size]])
        return take[np.argsort(keys[take], kind="stable")]

    def _finalise_pack(
        self,
        time: int,
        points: np.ndarray,
        metrics: BatchCandidateMetrics,
        quality: np.ndarray,
        chosen: list[int],
        min_dists: list[float],
    ) -> list[Candidate]:
        """Build the selected plan set from the stacked pool, annotated,
        in quality order."""
        plans = [
            Candidate(
                points[i].copy(),
                time,
                metrics.row(i),
                plan_rank=rank,
                plan_quality=float(quality[i]),
                plan_min_dist=float(dist) if np.isfinite(dist) else None,
            )
            for rank, (i, dist) in enumerate(zip(chosen, min_dists))
        ]
        plans.sort(key=lambda c: c.plan_quality)
        return plans

    def _finalise(self, pool: _CandidatePool, time: int) -> list[Candidate]:
        if not pool:
            return []
        points, metrics, quality = pool.stacked()
        chosen, min_dists = diverse_order(
            points, quality, self.k, scale=self.diff_scale
        )
        return self._finalise_pack(time, points, metrics, quality, chosen, min_dists)


# --------------------------------------------------------------------------
# exact reference for single trees
# --------------------------------------------------------------------------


def brute_force_tree_candidates(
    tree: DecisionTreeClassifier,
    threshold: float,
    x_base,
    schema: DatasetSchema,
    constraints: ConstraintsFunction | None = None,
    *,
    time: int = 0,
    diff_scale=None,
) -> list[Candidate]:
    """Exact candidates for a single tree, sorted by ``diff`` ascending.

    A decision tree partitions the input space into axis-aligned boxes
    (one per leaf).  For every leaf whose probability exceeds the
    threshold, the closest point of its box to ``x_base`` (coordinate-wise
    projection, honouring strict inequalities with a small margin) is the
    optimal candidate *within that leaf*; the global optimum is the best
    across leaves.  Used to verify beam-search quality.
    """
    x_base = schema.clip(np.asarray(x_base, dtype=float).ravel())
    constraints = constraints or ConstraintsFunction.unconstrained(schema)
    d = len(schema)
    results: list[Candidate] = []
    margin = 1e-6

    def leaf_boxes(node, lo, hi):
        if node.is_leaf:
            yield node, lo.copy(), hi.copy()
            return
        f, thr = node.feature, node.threshold
        # left: x[f] <= thr
        old = hi[f]
        hi[f] = min(hi[f], thr)
        if lo[f] <= hi[f]:
            yield from leaf_boxes(node.left, lo, hi)
        hi[f] = old
        # right: x[f] > thr
        old = lo[f]
        lo[f] = max(lo[f], np.nextafter(thr, np.inf) + margin * max(1, abs(thr)))
        if lo[f] <= hi[f]:
            yield from leaf_boxes(node.right, lo, hi)
        lo[f] = old

    lo0 = np.full(d, -np.inf)
    hi0 = np.full(d, np.inf)
    for leaf, lo, hi in leaf_boxes(tree.root_, lo0, hi0):
        if leaf.probability <= threshold:
            continue
        candidate = np.clip(x_base, lo, hi)
        candidate = schema.clip(candidate)
        # integer clipping may exit the box; nudge back inside where possible
        adjusted = np.clip(candidate, lo, hi)
        if not np.allclose(adjusted, candidate):
            candidate = schema.clip(adjusted)
            if not ((candidate >= lo - 1e-9) & (candidate <= hi + 1e-9)).all():
                continue
        score = float(tree.decision_score(candidate.reshape(1, -1))[0])
        if score <= threshold:
            continue
        if not constraints.is_valid(
            candidate, x_base, confidence=score, time=time
        ):
            continue
        results.append(
            Candidate(candidate, time, measure(candidate, x_base, score, diff_scale))
        )
    results.sort(key=lambda c: c.diff)
    return results
