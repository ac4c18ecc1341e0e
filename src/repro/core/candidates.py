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

from repro.constraints.evaluate import ConstraintsFunction, grouped_violation_counts
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

    def add(self, rows, diff, gap, confidence, quality) -> None:
        """Append one block of aligned row/metric/quality arrays."""
        self._blocks.append((rows, diff, gap, confidence, quality))
        self._size += rows.shape[0]

    @classmethod
    def of(cls, candidates: list[Candidate], objective: Objective):
        """The pool of row-at-a-time :class:`Candidate` objects, in order."""
        pool = cls()
        if candidates:
            pool.add(
                np.vstack([c.x for c in candidates]),
                np.array([c.diff for c in candidates], dtype=float),
                np.array([c.gap for c in candidates]),
                np.array([c.confidence for c in candidates], dtype=float),
                np.array([objective.key(c.metrics) for c in candidates]),
            )
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

    Built by :func:`_begin_group` and advanced by :func:`_dedupe_group`
    and :func:`_absorb_group`, for one cell in
    :meth:`CandidateGenerator.generate` and for many at once in the
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
        """The clipped base vector and clipped warm matrix (``None`` when
        no warm seeds exist) that a search starts from: the rows the
        prologue scores before the first round."""
        x_clip = self.schema.clip(np.asarray(x_base, dtype=float).ravel())
        warm_matrix = (
            None
            if warm_start is None
            else np.atleast_2d(np.asarray(warm_start, dtype=float))
        )
        if warm_matrix is not None and warm_matrix.size:
            return x_clip, self.schema.clip_matrix(warm_matrix)
        return x_clip, None

    def _prologue(self, x_base, time: int, warm_start=None):
        """Row-at-a-time search setup of :meth:`_generate_scalar`: clip the
        input, seed the RNG, and pool the unmodified input if it already
        flips (the paper's Q1, "no modification").

        ``warm_start`` is an optional ``(n, d)`` array (or list of
        vectors) of previously found candidates for this cell; each is
        clipped, revalidated under the *current* model and constraints
        (pooled only when still decision-altering and valid), and kept as
        an extra initial beam seed ranked by the beam key.  With
        ``warm_start=None`` the search is bit-identical to the historical
        cold path.  :func:`_begin_group` is the batched twin.
        """
        key_fn = self._state_key
        x_base = self.schema.clip(np.asarray(x_base, dtype=float).ravel())
        rng = np.random.default_rng(self.random_state)
        stats = SearchStats()
        pool: dict = {}
        visited: set = {key_fn(x_base)}
        base_score = float(self.model.decision_score(x_base.reshape(1, -1))[0])
        base_metrics = measure(x_base, x_base, base_score, self.diff_scale)
        if base_score > self.threshold and self.constraints.is_valid(
            x_base, x_base, confidence=base_score, time=time
        ):
            pool[key_fn(x_base)] = Candidate(x_base, time, base_metrics)
            stats.valid_found += 1
        seeds: list[tuple[float, int, np.ndarray]] = []
        _, W = self._prologue_rows(x_base, warm_start)
        if W is not None:
            warm_scores = np.asarray(self.model.decision_score(W), dtype=float).ravel()
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

        The search runs the group kernel — :func:`_begin_group`, then
        per round :meth:`_propose_step`, :func:`_dedupe_group` and
        :func:`_absorb_group` — as a one-cell group.  The fused
        multi-cell engine (:mod:`repro.core.fused`) runs the same kernel
        once per group of cells, with only the model-scoring call
        between its steps swapped for the grouped, cache-served variant.
        """
        x_clip, W = self._prologue_rows(x_base, warm_start)
        X = x_clip.reshape(1, -1) if W is None else np.vstack([x_clip, W])
        scores = np.asarray(self.model.decision_score(X), dtype=float).ravel()
        (state,) = _begin_group(
            [self], time, X, self._row_keys(X), [X.shape[0]], scores
        )
        for _ in range(self.max_iter):
            state.stats.iterations += 1
            fresh, _, sizes = _dedupe_group([state], [self._propose_step(state)])
            if state.done:
                break
            scores = np.asarray(self.model.decision_score(fresh), dtype=float).ravel()
            _absorb_group([(self, state)], sizes, fresh, scores)
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
            x_base, time, warm_start
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

    def _kernel_key(self) -> tuple:
        """What the searches of one kernel group must share: every
        generator setting the group kernel reads once for all its rows —
        threshold, objective, the constraints' schema, the metrics diff
        scale and the constraints' own diff space."""

        def scale_bytes(scale):
            return None if scale is None else np.asarray(scale, dtype=float).tobytes()

        return (
            self.threshold,
            self.objective,
            id(self.constraints.schema),
            scale_bytes(self.diff_scale),
            scale_bytes(self.constraints.diff_scale),
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
# the group step kernel
# --------------------------------------------------------------------------
#
# One search or many: the kernel takes a group of searches whose
# generators share a ``_kernel_key`` (and a time point) and does each step
# once for the stacked rows of all of them.  Every row keeps its own
# search's arithmetic — its own base row, constraints, visited set, pool
# and beam — so each search gets exactly what it would get alone.


def _begin_group(gens, time: int, X, keys, sizes, scores) -> list[_BeamState]:
    """The prologue of a kernel group: one :class:`_BeamState` per
    generator.

    Generator ``j`` owns the next ``sizes[j]`` rows of ``X``: its
    clipped base row, then its clipped warm seeds (as
    :meth:`CandidateGenerator._prologue_rows` returns them), with their
    byte ``keys`` and decision ``scores``.  The base row is pooled when
    it already flips and is valid.  A warm seed repeating an earlier row
    of its search is skipped; the others are measured and ranked in one
    stacked pass (each valid one pooled), and the best ``beam_width - 1``
    by ``(beam key, order)`` join the base row in the first beam —
    equal, row for row, to the scalar :meth:`CandidateGenerator._prologue`.
    """
    states: list[_BeamState] = []
    warm_rows: list[int] = []
    warm_sizes: list[int] = []
    lo = 0
    for gen, n in zip(gens, sizes):
        x_base, score = X[lo], float(scores[lo])
        state = _BeamState(
            x_base=x_base,
            time=time,
            rng=np.random.default_rng(gen.random_state),
            stats=SearchStats(),
            pool=_CandidatePool(),
            visited={keys[lo]},
            best_key=np.inf,
            pool_best=np.inf,
            beam=[x_base],
        )
        if score > gen.threshold and gen.constraints.is_valid(
            x_base, x_base, confidence=score, time=time
        ):
            metrics = measure_batch(x_base, x_base, [score], gen.diff_scale)
            quality = gen.objective.key_batch(metrics)
            state.pool.add(
                X[lo : lo + 1], metrics.diff, metrics.gap, metrics.confidence, quality
            )
            state.stats.valid_found += 1
            state.pool_best = float(quality[0])
        visited = state.visited
        kept = [
            i
            for i, key in enumerate(keys[lo + 1 : lo + n], lo + 1)
            if not (key in visited or visited.add(key))
        ]
        state.stats.proposals_evaluated += len(kept)
        warm_rows += kept
        warm_sizes.append(len(kept))
        states.append(state)
        lo += n
    if warm_rows:
        members = [
            (gen, state) for gen, state, n in zip(gens, states, warm_sizes) if n
        ]
        sizes = [n for n in warm_sizes if n]
        rows = X[warm_rows]
        beam_keys, bounds = _rank_group(members, sizes, rows, scores[warm_rows])
        for (gen, state), lo, hi in zip(members, bounds, bounds[1:]):
            seeds = np.argsort(beam_keys[lo:hi], kind="stable")
            state.beam += list(rows[lo:hi][seeds[: max(0, gen.beam_width - 1)]])
    for state in states:
        state.best_key = state.pool_best
    return states


def _dedupe_group(states, mats):
    """Visited-set dedupe of one round's proposals for a kernel group.

    ``mats[j]`` lists state ``j``'s proposal matrices in scalar order.
    One :meth:`CandidateGenerator._row_keys` call covers the stacked
    proposals of every state; each state then keeps the rows its own
    visited set has not seen, in first-occurrence order (a row repeated
    within the round is kept once).  A state with nothing new is marked
    converged and done.

    Returns ``(fresh, keys, sizes)``: every state's kept rows stacked in
    state order (``None`` when no state kept any), their byte keys, and
    the number each state kept.
    """
    flat = [m for state_mats in mats for m in state_mats]
    proposals = np.vstack(flat) if flat else None
    keys = CandidateGenerator._row_keys(proposals) if flat else []
    take: list[int] = []
    sizes: list[int] = []
    lo = 0
    for state, state_mats in zip(states, mats):
        n = sum(m.shape[0] for m in state_mats)
        visited = state.visited
        kept = [
            i
            for i, key in enumerate(keys[lo : lo + n], lo)
            if not (key in visited or visited.add(key))
        ]
        lo += n
        state.stats.dedupe_hits += n - len(kept)
        state.stats.proposals_evaluated += len(kept)
        if not kept:
            state.stats.converged = True
            state.done = True
        take += kept
        sizes.append(len(kept))
    if not take:
        return None, [], sizes
    return proposals[take], [keys[i] for i in take], sizes


def _absorb_group(members, sizes, rows, scores) -> None:
    """Post-scoring remainder of one round for a kernel group.

    ``members`` are ``(generator, state)`` pairs owning the next
    ``sizes[j]`` of ``rows`` (the states' fresh rows, scored as
    ``scores``).  Metrics, violation counts, pool inserts and beam keys
    run once over all rows (:func:`_rank_group`); then each state takes
    its ``beam_width`` best rows by beam key as its next beam — ties in
    row order, as the stable sort of the scalar loop breaks them —
    appends its pool's best key to its history and runs its patience
    check, setting ``done`` when its search converged.
    """
    beam_keys, bounds = _rank_group(members, sizes, rows, scores)
    for (gen, state), lo, hi in zip(members, bounds, bounds[1:]):
        top = np.argsort(beam_keys[lo:hi], kind="stable")[: gen.beam_width]
        state.beam = list(rows[lo:hi][top])
        stats = state.stats
        new_best = state.pool_best
        stats.best_key_history.append(new_best)
        if new_best < state.best_key - 1e-12:
            state.best_key = new_best
            state.stale = 0
        else:
            state.stale += 1
            if state.stale >= gen.patience and state.pool:
                stats.converged = True
                state.done = True


def _rank_group(members, sizes, rows, scores):
    """The per-row arithmetic of a kernel group's rows.

    Measures every row against its own state's base row, counts its
    violated constraints (each distinct constraint once over the rows of
    the states that hold it), appends every valid row to its state's
    pool — as views of one copy of the valid rows — and computes the beam
    keys.  Returns ``(beam_keys, bounds)``: state ``j`` owns rows
    ``bounds[j]`` to ``bounds[j + 1]``.
    """
    gen = members[0][0]
    states = [state for _, state in members]
    time = states[0].time
    owner = np.repeat(np.arange(len(members)), sizes)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    if len(members) == 1:
        bases = states[0].x_base
    else:
        bases = np.asarray([state.x_base for state in states])[owner]
    metrics = measure_batch(rows, bases, scores, gen.diff_scale)
    ctx = gen.constraints.batch_context(
        rows,
        bases,
        confidence=scores,
        time=time,
        diff=metrics.diff if gen._shared_diff_scale else None,
        gap=metrics.gap,
    )
    violation_counts = grouped_violation_counts(
        ctx, [g.constraints for g, _ in members], sizes, time
    )
    valid = (violation_counts == 0) & (scores > gen.threshold)
    objective_keys = gen.objective.key_batch(metrics)
    # the scalar loop checks `not pool` after inserting each row, so a
    # state's objective down-weighting switches off as soon as any
    # earlier row (inclusive) of that state entered its pool
    running = np.cumsum(valid)
    before = np.concatenate(([0], running))[bounds[:-1]]
    pooled = np.array([bool(state.pool) for state in states])
    pool_empty = ~pooled[owner] & (running == before[owner])
    objective_weight = np.where(pool_empty, 0.1, 1.0)
    beam_keys = (
        _BOUNDARY_WEIGHT * np.maximum(0.0, gen.threshold - scores)
        + objective_weight * objective_keys
        + _VIOLATION_PENALTY * violation_counts
    )
    keep = np.flatnonzero(valid)
    if keep.size:
        block = (
            rows[keep],
            metrics.diff[keep],
            metrics.gap[keep],
            metrics.confidence[keep],
            objective_keys[keep],
        )
        cuts = np.searchsorted(keep, bounds).tolist()
        for state, lo, hi in zip(states, cuts, cuts[1:]):
            if hi > lo:
                state.pool.add(*(column[lo:hi] for column in block))
                state.stats.valid_found += hi - lo
                state.pool_best = min(state.pool_best, float(block[4][lo:hi].min()))
    return beam_keys, bounds.tolist()


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
