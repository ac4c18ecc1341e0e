"""Fused multi-cell beam engine: the system's one search path.

Every (user × time-point) cell the system computes — onboarding in
:meth:`JustInTime.create_sessions`, recomputes in
:meth:`JustInTime.refresh` and in the lease-coordinated worker drain —
goes through :func:`generate_fused`.  A single cell's
:meth:`~repro.core.candidates.CandidateGenerator.generate` vectorizes
*within* the cell, but every cell run that way pays its own model
calls, proposal construction and Python loop overhead.  In the paper's
many-users-few-features regime those per-cell costs dominate, and they
are massively redundant: every cell of a time point shares the same
model, the same split thresholds, the same per-t RNG seed, and (for
similar profiles) many identical candidate rows.

:func:`generate_fused` runs the beam searches of **many cells as one
fused loop**:

* cells advance in lock-stepped rounds with an **active-cell set** —
  each converges and exits on exactly the iteration its per-cell search
  would have, without holding the others back;
* per round, cells are grouped by ``(t, model)`` and their fresh
  proposal rows are scored through **one** ``decision_score`` call per
  group instead of one per cell;
* the rest of the round runs **once per kernel group** — the cells of a
  ``(t, model)`` group whose generators also share threshold, objective,
  constraints schema, diff scale and constraints diff space: one
  rounded-row key pass for the dedupe (each cell still filters against
  its own visited set), then metrics against per-row base rows,
  violation counts with each shared constraint evaluated once over the
  rows of the cells that hold it, beam keys, pool inserts and patience
  checks over the stacked rows;
* scored rows feed an **epoch-level proposal cache**
  (:class:`EpochProposalCache`) holding one ``row_bytes -> score``
  table per model fingerprint — the per-beam rounded-row dedupe of
  ``candidates._row_keys`` hoisted across users, so two users proposing
  the same candidate row under the same model never score it twice.
  ``model_fp`` is the invalidation signal: a refit changes the
  fingerprint, and the stale table simply stops being asked;
* threshold moves for a whole group run through **one shared
  array-native** :meth:`ThresholdMoveProposer.propose_batch` call over
  every beam state of the group;
* random moves exploit that cells of a time point share the per-t RNG
  seed: cells whose generators have consumed their streams identically
  so far draw **once** (through a representative's generator) and replay
  the recorded draws for all of them in one stacked pass,
  fast-forwarding the other cells' generators to the identical
  post-draw state;
* cells that are byte-identical as *search problems* — same ``t``,
  base row, warm seeds, search parameters and declared constraints
  identity — are computed **once** and replicated;
* each cell's candidate pool stays **arrays** (rows, metrics and
  objective keys appended per round): the cells finishing in a round
  have their plan sets selected in one stacked
  :func:`select_diverse_batch` pass, and ``Candidate`` objects are built
  only for the ≤k chosen rows of each cell.

Bit-identity contract
---------------------
The fused engine reorders *which batches* rows are scored and measured
in, never the per-row arithmetic: it drives the group kernel of
:mod:`repro.core.candidates` (``_begin_group``, then per round
``_dedupe_group → score → _absorb_group``), which
:meth:`CandidateGenerator.generate` runs as a one-cell group.  Every
row is measured against its own cell's base row and counted against
its own cell's constraints, and each cell keeps its own visited set,
pool, beam and patience.  A row's decision score must not depend on the
batch it is scored in; every model class the system supports meets
that contract, which ``tests/test_row_determinism.py`` pins bit for
bit.  Under it the results — candidates, stats histories, store
digests — are byte-identical to generating each cell on its own
(``tests/test_group_kernel.py`` checks mixed groups cell by cell).

``CandidateGenerator.generate`` stays the single-cell API and the
reference: ``tests/test_fused_engine.py`` asserts ``contents_digest()``
equality with a per-cell recompute on every store backend, and the
benches assert it before they time anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from repro.core.candidates import (
    Candidate,
    CandidateGenerator,
    SearchStats,
    _absorb_group,
    _begin_group,
    _dedupe_group,
    search_counter_totals,
)
from repro.core.diversity import select_diverse_batch
from repro.core.moves import RandomMoveProposer, ThresholdMoveProposer

__all__ = [
    "EpochProposalCache",
    "FusedCell",
    "FusedReport",
    "generate_fused",
]

@dataclass
class EpochProposalCache:
    """Cross-user decision-score cache: one ``row_bytes -> score`` table
    per model fingerprint.

    One instance lives for a drain epoch (a worker keeps it across claim
    batches; a refresh builds one per call).  Entries are only ever
    *correct*: rows are looked up in their model fingerprint's own
    table, so a refit does not need to purge anything — stale tables
    stop being asked.  Rows offered without a fingerprint bypass the
    cache entirely.

    ``max_entries`` bounds memory across all tables: when a call's
    misses would overflow it, every table is dropped wholesale (counted
    in ``evictions``) rather than partially, and at most ``max_entries``
    of the new scores are kept — epoch working sets are far below the
    cap in practice, and a rare full reset only costs recomputed scores,
    never correctness.
    """

    max_entries: int = 1_000_000
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _tables: dict = field(default_factory=dict, repr=False)
    _size: int = field(default=0, repr=False)

    def __len__(self) -> int:
        return self._size

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def scores_for(self, model, fp, X, keys):
        """Decision scores for the rows of ``X`` (keys per row), served
        from the cache where known and scored through ``model`` (one
        call for all missing rows) otherwise.

        Returns ``(scores, hit_mask)``; with ``fp`` falsy the cache is
        bypassed and every row counts as uncached.
        """
        n = X.shape[0]
        if not fp:
            scores = np.asarray(model.decision_score(X), dtype=float).ravel()
            return scores, np.zeros(n, dtype=bool)
        found = list(map(self._tables.get(fp, {}).get, keys))
        missing = [i for i, value in enumerate(found) if value is None]
        hit_mask = np.ones(n, dtype=bool)
        if missing:
            # cells advance in lock-step, so different cells proposing
            # the same row usually do it in the *same* call — dedupe
            # in-flight rows too: the first occurrence of a missing key
            # is the scored representative, repeats are hits served
            # from it
            first: dict[bytes, int] = {}
            for i in missing:
                first.setdefault(keys[i], i)
            reps = list(first.values())
            fresh = np.asarray(
                model.decision_score(X[reps]), dtype=float
            ).ravel()
            hit_mask[reps] = False
            new = dict(zip(first, fresh.tolist()))
            for i in missing:
                found[i] = new[keys[i]]
            self._store(fp, new)
            self.misses += len(reps)
        self.hits += int(hit_mask.sum())
        return np.array(found, dtype=float), hit_mask

    def _store(self, fp, new: dict) -> None:
        """Insert ``new`` under ``fp`` within the ``max_entries`` bound."""
        if self._size + len(new) > self.max_entries:
            self.evictions += self._size
            self._tables.clear()
            self._size = 0
            if len(new) > self.max_entries:
                new = dict(islice(new.items(), self.max_entries))
        self._tables.setdefault(fp, {}).update(new)
        self._size += len(new)


@dataclass
class FusedCell:
    """One (user × time-point) cell submitted to the fused engine.

    ``cell_id`` is the caller's handle (unique per call — the system
    uses ``(user_id, t)``); ``generator`` is the cell's fully configured
    :class:`CandidateGenerator`, whose settings the group kernel reads.
    ``model_fp`` keys the epoch cache; ``None`` disables
    caching for the cell's rows.

    ``constraints_key`` declares the identity of the cell's constraints
    for *cell-level* dedup: two cells with equal keys (and equal base /
    warm / parameter bytes) are asserted by the caller to evaluate
    constraints identically, so the engine searches once and replicates.
    ``None`` opts the cell out of dedup (never out of correctness).
    All cells of one call must come from the same system configuration —
    the key is not meaningful across systems.
    """

    cell_id: object
    t: int
    x_base: np.ndarray
    generator: CandidateGenerator
    model_fp: str | None = None
    warm_start: object | None = None
    constraints_key: object | None = None


@dataclass
class FusedReport:
    """Engine-level outcome of one :func:`generate_fused` call."""

    cells: int = 0
    #: distinct search problems actually run
    unique_cells: int = 0
    #: cells served by replicating an identical cell's results
    cells_deduped: int = 0
    #: lock-stepped rounds until the last cell converged
    rounds: int = 0
    #: grouped ``decision_score`` calls issued (cache misses only)
    model_calls: int = 0
    #: summed :class:`SearchStats` counters of the unique runs
    search: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "cells": self.cells,
            "unique_cells": self.unique_cells,
            "cells_deduped": self.cells_deduped,
            "rounds": self.rounds,
            "model_calls": self.model_calls,
        }
        out.update(self.search)
        return out


# ----------------------------------------------------------------- dedup


def _proposer_signature(proposer) -> tuple:
    """Hashable parameter summary of one proposer (search-identity part
    of the cell-dedup key).  Private/cache attributes are skipped."""
    params = tuple(
        sorted(
            (name, value)
            for name, value in vars(proposer).items()
            if not name.startswith("_")
            and isinstance(value, (int, float, str, bool, tuple))
        )
    )
    return (type(proposer).__name__, params)


def _cell_key(cell: FusedCell):
    """Byte-exact identity of a cell as a search problem, or ``None``
    when the cell opted out (no ``constraints_key``)."""
    if cell.constraints_key is None:
        return None
    gen = cell.generator
    base = np.asarray(cell.x_base, dtype=float).ravel() + 0.0
    if cell.warm_start is None:
        warm_bytes = b""
    else:
        W = np.atleast_2d(np.asarray(cell.warm_start, dtype=float)) + 0.0
        warm_bytes = W.tobytes() + repr(W.shape).encode()
    scale = gen.diff_scale
    return (
        cell.t,
        cell.model_fp if cell.model_fp is not None else ("model-id", id(gen.model)),
        base.tobytes(),
        warm_bytes,
        cell.constraints_key,
        gen.k,
        gen.beam_width,
        gen.max_iter,
        gen.patience,
        gen.threshold,
        gen.random_state,
        repr(gen.objective),
        None if scale is None else np.asarray(scale, dtype=float).tobytes(),
        tuple(_proposer_signature(p) for p in gen.proposers),
    )


def _copy_stats(stats: SearchStats) -> SearchStats:
    return replace(stats, best_key_history=list(stats.best_key_history))


# -------------------------------------------------------- fused proposals


class _Run:
    """One unique cell's live search: its generator plus beam state."""

    __slots__ = ("cell", "gen", "kernel_key", "state", "result")

    def __init__(self, cell: FusedCell):
        self.cell = cell
        self.gen = cell.generator
        self.kernel_key = cell.generator._kernel_key()
        self.state = None
        self.result: list[Candidate] | None = None


def _rng_key(rng: np.random.Generator):
    """Hashable snapshot of a generator's exact stream position."""
    state = rng.bit_generator.state
    inner = state.get("state", {})
    return (
        state.get("bit_generator"),
        tuple(sorted((k, v) for k, v in inner.items())),
        state.get("has_uint32"),
        state.get("uinteger"),
    )


def _shared_random_proposals(
    proposer: RandomMoveProposer, schema, runs: list[_Run]
) -> dict[int, list[np.ndarray]]:
    """Random moves for runs whose RNG streams are at the same position.

    All runs share the per-t seed and have consumed their streams
    identically, so the draw *sequence* — which mutable coordinate, then
    either a categorical pick or a normal step — is common to all of
    them; only the resulting values differ (they depend on the beam
    states).  One representative generator performs the real draws
    (recording coordinate, kind and payload per proposal), the others'
    generators are fast-forwarded to the identical post-draw state, and
    every run's proposals are materialized from the records in one
    stacked ``(runs × records × d)`` pass with one ``clip_matrix`` call,
    whose per-row arithmetic equals the scalar
    :meth:`RandomMoveProposer.propose` exactly.

    Categorical draws rely on every beam state being schema-clipped
    (current value snapped onto the category grid, so the option count
    is the same for every run); a run that violates this — only possible
    with a custom non-clipping proposer in the mix — is detected, and
    only that run is rewound and recomputed through its own generator.
    """
    mutable = schema.mutable_indices()
    n_states = len(runs[0].state.beam)
    d = len(schema)
    empty = [np.empty((0, d)) for _ in range(n_states)]
    if mutable.size == 0:
        return {id(run): list(empty) for run in runs}

    rep = runs[0]
    rep_rng = rep.state.rng
    # pre-draw stream position: the divergence fallback rewinds a run
    # here and lets its own generator redo the draws (state dicts hold
    # only immutable ints, so sharing one snapshot across runs is safe)
    pre_state = rep_rng.bit_generator.state
    # records: (state index, coordinate, is_categorical, payload,
    #           option count at draw time — the replay-safety invariant).
    # ``rng.choice(a)`` over a 1-D population of n draws exactly
    # ``rng.integers(n)`` and returns that element, so the draws below
    # take the integer directly: the mutable position, and for a
    # categorical the option's index
    columns = mutable.tolist()
    grids = [
        schema[c].categories if schema[c].dtype == "categorical" else None
        for c in columns
    ]
    records: list[tuple[int, int, bool, float, int]] = []
    for s in range(n_states):
        x_rep = rep.state.beam[s]
        for _ in range(proposer.n_proposals):
            pos = int(rep_rng.integers(len(columns)))
            idx = columns[pos]
            if grids[pos]:
                n_options = sum(c != x_rep[idx] for c in grids[pos])
                if not n_options:
                    continue
                pick = float(rep_rng.integers(n_options))
                records.append((s, idx, True, pick, n_options))
            else:
                draw = float(rep_rng.normal(0.0, proposer.spread))
                records.append((s, idx, False, draw, 0))
    # the other runs made the same draws — jump their streams forward
    post_state = rep_rng.bit_generator.state
    for run in runs[1:]:
        run.state.rng.bit_generator.state = post_state

    if not records:
        return {id(run): list(empty) for run in runs}

    s_idx = np.array([r[0] for r in records])
    cols = np.array([r[1] for r in records])
    is_cat = np.array([r[2] for r in records])
    payload = np.array([r[3] for r in records])
    opt_count = np.array([r[4] for r in records])
    rows = np.arange(len(records))
    # per-coordinate schema steps; NaN/0 → the scalar path's fallback
    steps = np.full(d, np.nan)
    for j in range(d):
        step = schema[j].step
        if step is not None:
            steps[j] = float(step)

    # every run's recorded rows in one (runs × records × d) stack
    candidates = np.asarray([run.state.beam for run in runs], dtype=float)[:, s_idx]
    current = candidates[:, rows, cols]
    new_values = np.empty_like(current)
    num = ~is_cat
    if num.any():
        vals = current[:, num]
        col_steps = steps[cols[num]]
        use_step = np.isfinite(col_steps) & (col_steps != 0.0)
        base_step = np.where(
            use_step, col_steps, np.maximum(np.abs(vals) * 0.01, 1.0)
        )
        new_values[:, num] = vals + payload[num] * base_step
    replayable = np.ones(len(runs), dtype=bool)
    for c in sorted({int(c) for c in cols[is_cat]}):
        rows_c = is_cat & (cols == c)
        C = np.asarray(schema[c].categories, dtype=float)
        mask = C != current[:, rows_c, None]
        # replay safety: a run's option lists must be as long as the
        # representative's were at draw time
        replayable &= (mask.sum(axis=2) == opt_count[rows_c]).all(axis=1)
        pick = payload[rows_c].astype(int)
        sel = mask & (np.cumsum(mask, axis=2) == pick[:, None] + 1)
        new_values[:, rows_c] = C[np.argmax(sel, axis=2)]
    candidates[:, rows, cols] = new_values
    clipped = schema.clip_matrix(candidates.reshape(-1, d)).reshape(
        candidates.shape
    )
    keep = clipped[:, rows, cols] != current
    # kept rows are run-major then state-major: one split over every
    # (run, state) pair
    owner = (np.arange(len(runs))[:, None] * n_states + s_idx)[keep]
    mats = np.split(
        clipped[keep], np.searchsorted(owner, np.arange(1, len(runs) * n_states))
    )
    out: dict[int, list[np.ndarray]] = {}
    for r, run in enumerate(runs):
        if replayable[r]:
            out[id(run)] = mats[r * n_states : (r + 1) * n_states]
            continue
        # stream divergence: this run's categorical state fell off the
        # category grid, so the shared draws do not model its own RNG
        # consumption — rewind its generator to the pre-draw position
        # and let it redo the draws itself (exact per-cell path; the run
        # leaves the shared subgroup automatically next round because
        # its stream position now differs)
        run.state.rng.bit_generator.state = pre_state
        out[id(run)] = proposer.propose_batch(
            run.state.beam, None, schema, run.state.rng
        )
    return out


def _group_proposals(group: list[_Run]) -> dict[int, list[np.ndarray]]:
    """One round of proposals for every run of a ``(t, model)`` group,
    as per-run ``chunks`` lists (one list of per-state matrices per
    proposer slot) ready for ``_interleave_chunks``.

    Proposer slots whose instances agree across the group run fused
    (one shared threshold call / shared random draws); anything else
    falls back to the run's own proposer — bit-identical either way.
    """
    gen0 = group[0].gen
    chunks: dict[int, list] = {id(run): [] for run in group}
    uniform = all(
        len(run.gen.proposers) == len(gen0.proposers)
        and run.gen.schema is gen0.schema
        for run in group
    )
    if not uniform:
        for run in group:
            chunks[id(run)] = [
                proposer.propose_batch(
                    run.state.beam, run.gen.model, run.gen.schema, run.state.rng
                )
                for proposer in run.gen.proposers
            ]
        return chunks
    for j in range(len(gen0.proposers)):
        slot = [run.gen.proposers[j] for run in group]
        lead = slot[0]
        if isinstance(lead, ThresholdMoveProposer) and all(
            type(p) is ThresholdMoveProposer
            and p.n_nearest == lead.n_nearest
            and p.n_far == lead.n_far
            for p in slot
        ):
            # threshold moves are RNG-free and depend only on
            # (state, thresholds): one array-native call over every
            # beam state of the group
            states = [s for run in group for s in run.state.beam]
            mats = lead.propose_batch(
                states, gen0.model, gen0.schema, group[0].state.rng
            )
            offset = 0
            for run in group:
                width = len(run.state.beam)
                chunks[id(run)].append(mats[offset : offset + width])
                offset += width
        elif isinstance(lead, RandomMoveProposer) and all(
            type(p) is RandomMoveProposer
            and p.n_proposals == lead.n_proposals
            and p.spread == lead.spread
            for p in slot
        ):
            # subgroup by exact stream position and beam width; within a
            # subgroup one generator draws for everyone
            subgroups: dict[tuple, list[_Run]] = {}
            order: list[tuple] = []
            for run in group:
                key = (len(run.state.beam), _rng_key(run.state.rng))
                if key not in subgroups:
                    subgroups[key] = []
                    order.append(key)
                subgroups[key].append(run)
            for key in order:
                sub = subgroups[key]
                shared = _shared_random_proposals(lead, gen0.schema, sub)
                for run in sub:
                    chunks[id(run)].append(shared[id(run)])
        else:
            for run in group:
                chunks[id(run)].append(
                    run.gen.proposers[j].propose_batch(
                        run.state.beam,
                        run.gen.model,
                        run.gen.schema,
                        run.state.rng,
                    )
                )
    return chunks


# --------------------------------------------------------------- engine


def _group_active(runs: list[_Run]) -> list[list[_Run]]:
    """Group runs by ``(t, model identity, fingerprint)``, preserving
    submission order within and across groups."""
    groups: dict[tuple, list[_Run]] = {}
    order: list[tuple] = []
    for run in runs:
        key = (run.cell.t, id(run.gen.model), run.cell.model_fp)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(run)
    return [groups[key] for key in order]


def _kernel_groups(group: list[_Run], sizes: list[int]):
    """Split the runs of a ``(t, model)`` group that own rows of its
    stacked matrix (``sizes[j]`` rows for run ``j``, in run order) into
    kernel groups of runs with equal ``kernel_key``.

    Yields ``(runs, sizes, index)`` per kernel group, in order of first
    appearance; ``index`` selects the kernel group's rows from the
    stacked matrix, and is ``None`` when one kernel group owns them all.
    """
    groups: dict[tuple, tuple[list, list, list]] = {}
    lo = 0
    for run, n in zip(group, sizes):
        if n:
            runs, counts, spans = groups.setdefault(run.kernel_key, ([], [], []))
            runs.append(run)
            counts.append(n)
            spans.append(np.arange(lo, lo + n))
        lo += n
    for runs, counts, spans in groups.values():
        yield runs, counts, None if len(groups) == 1 else np.concatenate(spans)


def _attribute_group_counters(group: list[_Run], sizes, hit_mask) -> None:
    """Credit each run with the cache hits and misses among its rows
    (run ``j`` owns the next ``sizes[j]`` rows of ``hit_mask``)."""
    lo = 0
    for run, n in zip(group, sizes):
        hits = int(hit_mask[lo : lo + n].sum())
        run.state.stats.cache_hits += hits
        run.state.stats.cache_misses += n - hits
        lo += n


def _finalise_batch(finished: list[_Run]) -> None:
    """Select the finishing runs' diverse plan sets in one stacked pass.

    Bit-identical to calling ``run.gen._finalise(run.state.pool, t)``
    per run (:func:`select_diverse_batch` replays the exact per-cell
    greedy arithmetic), but the pools of every cell finishing this round
    are stacked and selected together — grouped by distance scale, since
    the scaled pairwise distances are shared across the whole stack.
    Only the chosen rows become :class:`Candidate` objects.
    """
    groups: dict = {}
    for run in finished:
        if not run.state.pool:
            run.result = []
            continue
        points, metrics, quality = run.state.pool.stacked()
        scale = run.gen.diff_scale
        key = (
            points.shape[1],
            None
            if scale is None
            else np.asarray(scale, dtype=float).tobytes(),
        )
        groups.setdefault(key, []).append((run, points, metrics, quality))
    for entries in groups.values():
        selections = select_diverse_batch(
            np.vstack([points for _, points, _, _ in entries]),
            np.concatenate([quality for _, _, _, quality in entries]),
            [points.shape[0] for _, points, _, _ in entries],
            [run.gen.k for run, _, _, _ in entries],
            scale=entries[0][0].gen.diff_scale,
        )
        for (run, points, metrics, quality), (chosen, dists) in zip(
            entries, selections
        ):
            run.result = run.gen._finalise_pack(
                run.state.time, points, metrics, quality, chosen, dists
            )


def generate_fused(
    cells, *, cache: EpochProposalCache | None = None, on_round=None
) -> tuple[dict, FusedReport]:
    """Run many cells' beam searches as one fused, cache-served loop.

    ``cells`` is an iterable of :class:`FusedCell` with unique
    ``cell_id``s.  Returns ``(results, report)`` where ``results`` maps
    ``cell_id -> (candidates, SearchStats)`` — per cell exactly what
    ``cell.generator.generate(...)`` would have produced — and
    ``report`` is the engine-level :class:`FusedReport`.  ``cache``
    carries the epoch-level score cache across calls (a worker passes
    one per drain); by default each call gets a private cache.

    ``on_round``, if given, is a zero-argument callable invoked at the
    top of every lock-stepped round.  A fused call over a large claim
    can outlive a lease that was taken before it started, so lease-based
    callers use this as a heartbeat (the worker drain renews its claim's
    leases here once a quarter of the lease has passed since their last
    renewal; rounds themselves are milliseconds apart).  The hook must
    not mutate cells or beams; results are byte-identical with or
    without it.
    """
    cells = list(cells)
    report = FusedReport(cells=len(cells))
    results: dict = {}
    if not cells:
        return results, report
    if cache is None:
        cache = EpochProposalCache()

    # ---- cell-level dedup: identical search problems run once
    runs: list[_Run] = []
    run_of_cell: list[int] = []
    seen: dict[tuple, int] = {}
    for cell in cells:
        key = _cell_key(cell)
        if key is not None and key in seen:
            run_of_cell.append(seen[key])
            continue
        if key is not None:
            seen[key] = len(runs)
        run_of_cell.append(len(runs))
        runs.append(_Run(cell))
    report.unique_cells = len(runs)
    report.cells_deduped = len(cells) - len(runs)

    # ---- fused prologue: score every cell's base + warm rows through
    # the cache, one grouped model call per (t, model) for the misses,
    # then start each kernel group's searches in one pass
    for group in _group_active(runs):
        gen0 = group[0].gen
        fp = group[0].cell.model_fp
        rows: list[np.ndarray] = []
        sizes: list[int] = []
        for run in group:
            x_clip, W = run.gen._prologue_rows(run.cell.x_base, run.cell.warm_start)
            rows.append(x_clip.reshape(1, -1))
            if W is not None:
                rows.append(W)
            sizes.append(1 + (0 if W is None else W.shape[0]))
        X = np.vstack(rows)
        keys = CandidateGenerator._row_keys(X)
        scores, hit_mask = cache.scores_for(gen0.model, fp, X, keys)
        if not fp or not hit_mask.all():
            report.model_calls += 1
        for sub, sub_sizes, index in _kernel_groups(group, sizes):
            sub_keys = keys if index is None else [keys[i] for i in index]
            states = _begin_group(
                [run.gen for run in sub],
                group[0].cell.t,
                X if index is None else X[index],
                sub_keys,
                sub_sizes,
                scores if index is None else scores[index],
            )
            for run, state in zip(sub, states):
                run.state = state
        _attribute_group_counters(group, sizes, hit_mask)

    # ---- lock-stepped rounds over the active-cell set
    active = list(runs)
    while active:
        if on_round is not None:
            on_round()
        report.rounds += 1
        for group in _group_active(active):
            gen0 = group[0].gen
            fp = group[0].cell.model_fp
            for run in group:
                run.state.stats.iterations += 1
            chunks = _group_proposals(group)
            fresh, keys, sizes = _dedupe_group(
                [run.state for run in group],
                [
                    run.gen._interleave_chunks(chunks[id(run)], len(run.state.beam))
                    for run in group
                ],
            )
            if fresh is None:
                continue
            # one grouped, cache-served scoring call for the whole group
            scores, hit_mask = cache.scores_for(gen0.model, fp, fresh, keys)
            if not fp or not hit_mask.all():
                report.model_calls += 1
            _attribute_group_counters(group, sizes, hit_mask)
            for sub, sub_sizes, index in _kernel_groups(group, sizes):
                _absorb_group(
                    [(run.gen, run.state) for run in sub],
                    sub_sizes,
                    fresh if index is None else fresh[index],
                    scores if index is None else scores[index],
                )
        # asynchronous exit: finished cells leave the round set, and every
        # cell finishing this round gets its diverse plan set selected in
        # one stacked batch instead of a per-cell Python loop
        still_active: list[_Run] = []
        finished: list[_Run] = []
        for run in active:
            if run.state.done or run.state.stats.iterations >= run.gen.max_iter:
                run.gen.last_stats_ = run.state.stats
                finished.append(run)
            else:
                still_active.append(run)
        _finalise_batch(finished)
        active = still_active

    # ---- fan results back out (deduped cells get fresh copies)
    for cell, run_index in zip(cells, run_of_cell):
        run = runs[run_index]
        if cell is run.cell:
            results[cell.cell_id] = (run.result, run.state.stats)
        else:
            results[cell.cell_id] = (
                [replace(c, x=c.x.copy()) for c in run.result],
                _copy_stats(run.state.stats),
            )
    report.search = search_counter_totals(run.state.stats for run in runs)
    report.search["cells_deduped"] = report.cells_deduped
    return results, report
