"""The JustInTime system facade (Figure 1).

Wires the full architecture together:

* an administrator configures the horizon (T, Δ), the forecasting
  strategy, the model class and global domain constraints
  (:class:`AdminConfig`);
* :meth:`JustInTime.fit` runs the models generator over the timestamped
  training data — performed once, independent of any user;
* :meth:`JustInTime.create_session` registers a user profile plus
  preference constraints, projects the profile through the temporal
  update function, runs one candidates generator per time point (they are
  independent, so the fused engine of :mod:`repro.core.fused` advances
  them together, deterministically), and stores temporal inputs and
  candidates in the relational store;
* :meth:`JustInTime.refresh` keeps the service *alive*: as new
  timestamped data arrives the models are re-forecast, which leaves the
  cells of changed models stale in the store ledger, and the claim queue
  is drained in-process by the worker pool's own loop
  (:func:`~repro.core.worker.drain_stale_cells`) — only the stale
  (user × time-point) cells are recomputed and upserted, and registered
  :class:`UserSession` objects survive and see the updated candidates;
* the returned :class:`UserSession` exposes the canned-question interface
  and expert SQL passthrough.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.constraints.domain import schema_domain_constraints
from repro.constraints.evaluate import ConstraintsFunction
from repro.core.candidates import Candidate, CandidateGenerator
from repro.core.fused import FusedCell, generate_fused
from repro.core.insights import Insight, InsightEngine
from repro.core.objectives import OBJECTIVE_PRESETS, Objective
from repro.core.plans import Plan, build_plan
from repro.data.dataset import TemporalDataset
from repro.data.schema import DatasetSchema
from repro.db.backends import StoreBackend
from repro.db.store import CandidateStore
from repro.exceptions import CandidateSearchError, ForecastError
from repro.temporal.forecast import (
    STRATEGY_NAMES,
    ForecastStrategy,
    FutureModels,
    ModelsGenerator,
)
from repro.temporal.update import TemporalUpdateFunction

__all__ = ["AdminConfig", "JustInTime", "RefreshReport", "UserSession"]


@dataclass
class AdminConfig:
    """System-administrator configuration (the demo's admin UI).

    ``T`` and ``delta`` "control the amount and time intervals between
    future time points" (§I); the rest selects the forecasting strategy,
    model class, threshold calibration and search budget.
    """

    T: int = 5
    delta: float = 1.0
    strategy: str | ForecastStrategy = "edd"
    model_factory: object | None = None
    threshold_method: str = "fixed"
    fixed_threshold: float = 0.5
    target_rate: float | None = None
    k: int = 8
    beam_width: int | None = None
    max_iter: int = 15
    patience: int = 3
    objective: str | Objective = "balanced"
    random_state: int = 0
    #: seed refreshed cells' beams from the previously stored candidates
    #: (clipped + revalidated under the new model).  A robustness
    #: feature, not a speed one: still-valid old candidates can never be
    #: lost to an unlucky fresh search, at ~1.5× the refresh wall-clock
    #: (the wider initial beam explores more; see
    #: benchmarks/bench_incremental_refresh.py).  Disable for the
    #: bit-identical-to-cold-recompute reference path.
    warm_start: bool = True

    def __post_init__(self) -> None:
        """Eager validation: fail at configuration time, not deep inside
        the search, and name the allowed values."""
        if isinstance(self.strategy, str) and self.strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.strategy!r};"
                f" allowed values: {sorted(STRATEGY_NAMES)}"
                " (or pass a ForecastStrategy instance)"
            )
        if isinstance(self.objective, str) and self.objective not in OBJECTIVE_PRESETS:
            raise ValueError(
                f"unknown objective {self.objective!r};"
                f" allowed values: {sorted(OBJECTIVE_PRESETS)}"
                " (or pass an Objective instance)"
            )


@dataclass(frozen=True)
class RefreshReport:
    """Outcome of one :meth:`JustInTime.refresh` pass."""

    #: time indices whose model fingerprint changed (cells recomputed)
    stale_times: tuple[int, ...]
    #: time indices whose model content was unchanged (cells untouched)
    fresh_times: tuple[int, ...]
    #: registered sessions the refresh covered
    n_users: int
    #: (user × stale time point) cells recomputed
    cells_recomputed: int
    #: candidate rows written back in the bulk upsert
    candidates_written: int
    #: whether the beams were warm-started from stored candidates
    warm_start: bool
    #: stale cells the refresh's drain claimed but could not compute:
    #: their user has neither a live session nor a resumable DSL spec
    #: (their stored candidates stay outdated until the session is
    #: recreated — alert on this); on a budgeted refresh only the cells
    #: the budget reached are counted, the rest are deferred
    skipped_stale_cells: int = 0
    #: summed per-cell search counters (iterations, proposals_evaluated,
    #: dedupe_hits, cache_hits, cache_misses, ...) of the recompute —
    #: the drain-efficiency view; ``None`` when nothing was recomputed
    search: dict | None = None
    #: stale cells left in the ledger after the drain, minus the skipped
    #: ones: the cells a refresh ``budget`` deferred to a later epoch;
    #: 0 on unbudgeted refreshes
    deferred_cells: int = 0
    #: post-refresh :meth:`CandidateStore.traffic_weighted_freshness`
    #: snapshot — only populated on budgeted refreshes (the scan is
    #: O(store) and the unbudgeted path always ends fully fresh)
    freshness: dict | None = None


class JustInTime:
    """End-to-end system: models generator + candidates generators + DB.

    Parameters
    ----------
    schema:
        Feature schema of the application domain.
    update_function:
        Temporal update function (Definition II.4).
    config:
        Admin configuration; defaults are the demo-scale settings.
    domain_constraints:
        Global constraints imposed on all users; defaults to the
        schema-derived integrity constraints.
    store_path:
        SQLite path or ``':memory:'``.
    store_backend:
        Store backend name (``'sqlite'``, ``'memory'``, ``'sharded'``) or
        :class:`~repro.db.backends.StoreBackend` instance; ``None`` infers
        from ``store_path``.
    n_shards:
        Shard count for the sharded backend; ``None`` uses the on-disk
        count, or 4 for a new store.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        update_function: TemporalUpdateFunction,
        config: AdminConfig | None = None,
        domain_constraints: ConstraintsFunction | None = None,
        store_path: str | Path = ":memory:",
        store_backend: str | StoreBackend | None = None,
        n_shards: int | None = None,
    ):
        self.schema = schema
        self.update_function = update_function
        self.config = config or AdminConfig()
        self._explicit_domain = domain_constraints
        self.store = CandidateStore(
            schema, store_path, backend=store_backend, n_shards=n_shards
        )
        self.future_models: FutureModels | None = None
        self.diff_scale: np.ndarray | None = None
        self.domain_constraints: ConstraintsFunction | None = None
        #: session registry: UserSession objects survive refreshes
        self.sessions: dict[str, UserSession] = {}
        self._history: TemporalDataset | None = None
        #: caller state restored by :func:`load_system` (e.g. the refresh
        #: orchestrator's feed cursor, persisted atomically with the history)
        self.saved_extra: dict = {}

    # ----------------------------------------------------------------- fit

    def _fit_models(
        self, history: TemporalDataset, now: float | None
    ) -> FutureModels:
        cfg = self.config
        generator = ModelsGenerator(
            T=cfg.T,
            delta=cfg.delta,
            strategy=cfg.strategy,
            model_factory=cfg.model_factory,
            threshold_method=cfg.threshold_method,
            fixed_threshold=cfg.fixed_threshold,
            target_rate=cfg.target_rate,
            random_state=cfg.random_state,
        )
        return generator.generate(history, now=now)

    def fit(self, history: TemporalDataset, now: float | None = None) -> "JustInTime":
        """Run the models generator (user-independent, done once)."""
        if history.schema != self.schema:
            raise ForecastError("history schema does not match system schema")
        self.future_models = self._fit_models(history, now)
        self._history = history
        scale = history.X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.diff_scale = scale
        domain = self._explicit_domain or schema_domain_constraints(self.schema)
        # rebuild with the diff scale attached so user constraints on
        # 'diff' are interpreted in scaled units consistently
        self.domain_constraints = ConstraintsFunction(
            self.schema, list(domain.constraints), diff_scale=self.diff_scale
        )
        return self

    @property
    def time_values(self) -> list[float]:
        """Calendar value of each time index t = 0 .. T."""
        self._require_fitted()
        return [fm.time_value for fm in self.future_models]

    @property
    def history(self) -> TemporalDataset | None:
        """The training history the current models were fitted on
        (``None`` for systems loaded from pre-refresh saves)."""
        return self._history

    @property
    def model_fingerprints(self) -> dict[int, str]:
        """``{t: content fingerprint}`` of the current future models
        (missing fingerprints — pre-fingerprint pickles — map to ``''``,
        the store ledger's always-stale value)."""
        self._require_fitted()
        return {
            t: fp or "" for t, fp in self.future_models.fingerprints.items()
        }

    def _require_fitted(self) -> None:
        if self.future_models is None:
            raise ForecastError("JustInTime is not fitted; call fit() first")

    # -------------------------------------------------------------- users

    def create_session(
        self,
        user_id: str,
        profile: dict[str, float] | np.ndarray,
        user_constraints=None,
    ) -> "UserSession":
        """Register a user and generate their candidate database rows.

        ``user_constraints`` may be a :class:`ConstraintsFunction`, a list
        of DSL strings / :class:`ScopedConstraint` items, or ``None``.
        Existing rows for ``user_id`` are replaced (the demo lets a
        participant revise preferences and re-run).
        """
        return self.create_sessions([(user_id, profile, user_constraints)])[0]

    def create_sessions(self, users) -> "list[UserSession]":
        """Register a batch of users and generate all their candidates.

        ``users`` is an iterable of ``(user_id, profile)`` or
        ``(user_id, profile, user_constraints)`` tuples (or dicts with
        those keys).  All (user × time-point) candidates generators are
        independent (§II.B), so every cell of the batch runs in one
        :func:`~repro.core.fused.generate_fused` call, and all database
        rows are written in one transaction.  Candidates are identical
        to calling :meth:`create_session` per user, in order.
        """
        self._require_fitted()
        cfg = self.config
        specs = [self._user_spec(user) for user in users]
        seen: set[str] = set()
        for user_id, _, _ in specs:
            if user_id in seen:
                raise CandidateSearchError(
                    f"duplicate user_id {user_id!r} in create_sessions batch"
                )
            seen.add(user_id)
        prepared = [
            (
                user_id,
                x,
                self.update_function.trajectory(x, cfg.T),
                self._join_constraints(user_constraints),
                self._constraint_texts(user_constraints),
            )
            for user_id, x, user_constraints in specs
        ]
        times = range(len(self.future_models))
        outcome, _ = generate_fused(
            self._fused_cell(
                user_id,
                t,
                trajectory[t],
                constraints,
                self._constraints_cache_key(texts),
            )
            for user_id, _, trajectory, constraints, texts in prepared
            for t in times
        )

        sessions: list[UserSession] = []
        bulk_rows = []
        spec_rows = []
        for user_id, x, trajectory, constraints, texts in prepared:
            results = [outcome[(user_id, t)] for t in times]
            all_candidates = [c for found, _ in results for c in found]
            bulk_rows.append((user_id, trajectory, all_candidates))
            spec_rows.append((user_id, x, texts))
            session = UserSession(
                system=self,
                user_id=user_id,
                profile=x,
                trajectory=trajectory,
                constraints=constraints,
                candidates=all_candidates,
                search_stats=[stats for _, stats in results],
            )
            session.constraints_key = self._constraints_cache_key(texts)
            sessions.append(session)
        self.store.store_sessions(
            bulk_rows, fingerprints=self.model_fingerprints, specs=spec_rows
        )
        for session in sessions:
            self.sessions[session.user_id] = session
        return sessions

    def drop_session(self, user_id: str) -> None:
        """Fully forget a user: registry entry plus every store row.

        This is the deletion API — calling ``store.clear_user`` alone
        while the session stays registered would let the next refresh
        recompute (resurrect) the user's cells from the live session.
        """
        self.sessions.pop(str(user_id), None)
        self.store.clear_user(str(user_id))

    def get_session(self, user_id: str) -> "UserSession":
        """Look up a registered (live) session by user id."""
        try:
            return self.sessions[str(user_id)]
        except KeyError:
            raise CandidateSearchError(
                f"no registered session for user {user_id!r};"
                " call create_session or resume_sessions first"
            ) from None

    def resume_sessions(self, include_opaque: bool = False) -> "list[UserSession]":
        """Rehydrate sessions persisted in the store into the registry.

        A long-running service restarts: the store still holds every
        user's temporal inputs, candidates and session spec (profile +
        DSL constraint texts).  Users already present in the registry are
        left untouched.

        Specs whose constraints were *not* serialisable (opaque
        :class:`ConstraintsFunction` objects rather than DSL strings) are
        **skipped** by default: resuming them would drop the user's
        preferences, and a later refresh would overwrite their
        preference-respecting candidates with unconstrained ones.  Their
        rows stay in the store (and show up as stale in the ledger once
        models move on); pass ``include_opaque=True`` to knowingly resume
        them under domain constraints only.  Returns the newly restored
        sessions.
        """
        self._require_fitted()
        restored: list[UserSession] = []
        for user_id, profile, texts in self.store.load_session_specs():
            if user_id in self.sessions:
                continue
            if texts is None and not include_opaque:
                continue
            session = UserSession(
                system=self,
                user_id=user_id,
                profile=profile,
                trajectory=self.update_function.trajectory(profile, self.config.T),
                constraints=self._join_constraints(texts),
                candidates=self.store.load_candidates(user_id),
                search_stats=[],
            )
            session.constraints_key = self._constraints_cache_key(texts)
            self.sessions[user_id] = session
            restored.append(session)
        return restored

    # ------------------------------------------------------------ refresh

    def refit(
        self,
        new_data: TemporalDataset | None = None,
        *,
        now: float | None = None,
        history: TemporalDataset | None = None,
    ) -> tuple[int, ...]:
        """Re-forecast on fresh data **without recomputing any cells**.

        Steps 1–2 of :meth:`refresh`: merge ``new_data`` into the
        fit-time history (or take a complete ``history``), refit the
        future models with the same seeds and ``now``, and diff the
        per-time-point content fingerprints.  Returns the model-stale
        time indices.

        The store ledger is left untouched, which is the point: every
        cell stamped under an old fingerprint now reads as stale in
        :meth:`CandidateStore.stale_cells`, so the recompute work can be
        drained by a lease-coordinated worker pool
        (:mod:`repro.core.worker`) instead of this process.  Call
        :func:`~repro.core.persistence.save_system` after ``refit`` so
        workers load the refit models.
        """
        self._require_fitted()
        if history is None:
            if self._history is None:
                raise ForecastError(
                    "refit needs the training history; this system was"
                    " loaded without one — pass history= explicitly"
                )
            history = self._history
        if new_data is not None:
            history = self._merge_history(history, new_data)
        if history.schema != self.schema:
            raise ForecastError("history schema does not match system schema")
        old_models = self.future_models
        self.future_models = self._fit_models(
            history, now if now is not None else old_models.now
        )
        self._history = history
        return tuple(self.future_models.stale_against(old_models))

    def refresh(
        self,
        new_data: TemporalDataset | None = None,
        *,
        now: float | None = None,
        history: TemporalDataset | None = None,
        warm_start: bool | None = None,
        budget: int | None = None,
    ) -> RefreshReport:
        """Re-forecast on fresh data and recompute only the stale cells.

        The paper's system is a living service: models are re-forecast as
        new timestamped data arrives, and stored temporal insights must
        track the *current* forecast.  A full cold recompute of every
        (user × time-point) cell is wasteful when most models did not
        actually change, so refresh:

        1. refits the future models on ``history + new_data``
           (:meth:`refit`: same seeds, same ``now`` unless overridden),
           which leaves every cell stamped under a changed model
           fingerprint stale in the store ledger, alongside cells
           invalidated with ``clear_user(uid, time=t)``;
        2. re-stamps the whole horizon of any live session that has no
           ledger rows (``clear_user(uid)`` ran while it stayed live)
           with the empty fingerprint, so those cells are stale too and
           the store is restored;
        3. drains the store's claim queue in this process with
           :func:`~repro.core.worker.drain_stale_cells` — the worker
           pool's own loop, claiming every stale cell in one batch and
           computing it in one fused multi-cell search, each beam
           warm-started from the cell's stored candidates unless
           disabled;
        4. writes the recomputed cells back in one grouped upsert,
           leaving untouched cells' rows byte-identical, and reloads the
           candidates of every live session the drain touched (a
           session's ``search_stats`` stay those of the search that
           created it; the recompute's counters are summed in
           :attr:`RefreshReport.search`).

        Every stale cell the drain can compute is recomputed, not only
        those of live sessions: a cell is computable when its user has
        a live session (its trajectory and constraints are used, opaque
        :class:`ConstraintsFunction` ones included) or a resumable DSL
        spec in the store.  The stale cells with neither are reported as
        ``skipped_stale_cells`` and stay stale.  The drain takes leases
        like any worker: a cell leased to a live worker is waited for
        instead of being computed twice, and a dead worker's lease
        delays its cell until the lease expires (30 s).

        ``new_data`` is merged into the fit-time history; alternatively
        pass a complete ``history``.  ``warm_start`` overrides
        :attr:`AdminConfig.warm_start` for this call; with warm start
        disabled, recomputed cells are bit-identical to a cold
        recompute.  The fit-time ``diff_scale`` is intentionally kept so
        stored ``diff`` values stay comparable across refreshes.

        ``budget`` caps the recompute at that many claimed cells, in
        claim order: SLA-escalated cells first, then the store's
        ``user_priority`` scores (highest first), then (user, time).  It
        arms the store's durable budget row, as ``refresh-workers``
        does; the cells beyond it keep their old ledger fingerprints,
        stay stale, and are reported as ``deferred_cells`` — the next
        refresh (or a worker drain) picks them up.  ``None`` (the
        default) clears any leftover budget row and recomputes
        everything.
        """
        if budget is not None:
            budget = int(budget)
            if budget < 0:
                raise ForecastError("budget must be >= 0 or None")
        # imported here: worker imports persistence, which imports this
        # module
        from repro.core.worker import drain_stale_cells

        stale = self.refit(new_data, now=now, history=history)
        fresh = tuple(t for t in range(len(self.future_models)) if t not in stale)
        warm = bool(self.config.warm_start if warm_start is None else warm_start)
        stored = set(self.store.user_ids())
        for user_id, session in self.sessions.items():
            if user_id not in stored:
                # rows without a fingerprint: the whole horizon is stale
                self.store.store_temporal_inputs(user_id, session.trajectory)
        self.store.set_refresh_budget(budget)
        fingerprints = self.model_fingerprints
        n_stale = len(self.store.stale_cells(fingerprints))
        drained = drain_stale_cells(
            self, warm_start=warm, claim_batch=max(n_stale, 1)
        )
        for user_id in self.sessions.keys() & {u for u, _ in drained.cells}:
            self.sessions[user_id].candidates = self.store.load_candidates(user_id)
        skipped = len(drained.skipped_cells)
        return RefreshReport(
            tuple(stale),
            fresh,
            len(self.sessions),
            len(drained.cells),
            drained.candidates_written,
            warm,
            skipped,
            search=drained.search if drained.cells else None,
            deferred_cells=len(self.store.stale_cells(fingerprints)) - skipped,
            freshness=(
                self.store.traffic_weighted_freshness(fingerprints)
                if budget is not None
                else None
            ),
        )

    def _merge_history(
        self, history: TemporalDataset, new_data: TemporalDataset
    ) -> TemporalDataset:
        if new_data.schema != self.schema:
            raise ForecastError("new_data schema does not match system schema")
        return TemporalDataset.concat([history, new_data])

    # ------------------------------------------------------------ helpers

    def _cell_generator(
        self, t: int, constraints: ConstraintsFunction
    ) -> CandidateGenerator:
        """One (user, t) cell's candidates generator — the per-t seed
        formula makes any recompute of the cell deterministic."""
        cfg = self.config
        future_model = self.future_models[t]
        return CandidateGenerator(
            future_model.model,
            future_model.threshold,
            self.schema,
            constraints,
            k=cfg.k,
            beam_width=cfg.beam_width,
            max_iter=cfg.max_iter,
            patience=cfg.patience,
            objective=cfg.objective,
            diff_scale=self.diff_scale,
            random_state=cfg.random_state + 7919 * (t + 1),
        )

    def _fused_cell(
        self,
        user_id: str,
        t: int,
        x_base: np.ndarray,
        constraints: ConstraintsFunction,
        constraints_key: str | None,
        *,
        warm: bool = False,
    ) -> FusedCell:
        """The (user, t) cell as :func:`generate_fused` computes it, for
        every caller alike: the cell's generator, the model fingerprint
        keying the epoch score cache, and the constraints identity
        keying cell dedup.  With ``warm``, the cell's stored candidates
        are read here and seed its beam, so callers build every cell
        before writing any."""
        seeds = self.store.cell_vectors(user_id, t) if warm else None
        return FusedCell(
            cell_id=(user_id, t),
            t=t,
            x_base=x_base,
            generator=self._cell_generator(t, constraints),
            model_fp=self.future_models[t].fingerprint or None,
            warm_start=seeds,
            constraints_key=constraints_key,
        )

    @staticmethod
    def _constraint_texts(user_constraints) -> list | None:
        """JSON-able constraint entries for persistence, or ``None`` when
        not serialisable (opaque :class:`ConstraintsFunction` objects).

        DSL strings pass through; ASTs render to DSL (the pretty-printer
        round-trips through the parser); :class:`ScopedConstraint` items
        become ``{"expr", "times", "label"}`` dicts.
        """
        from repro.constraints.ast import BoolExpr
        from repro.constraints.evaluate import ScopedConstraint

        if user_constraints is None:
            return []
        if not isinstance(user_constraints, (list, tuple)):
            return None
        entries: list = []
        for item in user_constraints:
            if isinstance(item, str):
                entries.append(item)
            elif isinstance(item, ScopedConstraint):
                entries.append(
                    {
                        "expr": str(item.expr),
                        "times": (
                            None if item.times is None else sorted(item.times)
                        ),
                        "label": item.label,
                    }
                )
            elif isinstance(item, BoolExpr):
                entries.append(str(item))
            else:
                return None
        return entries

    @staticmethod
    def _constraints_cache_key(texts) -> str | None:
        """Deterministic identity of serialisable constraint texts.

        Feeds the fused engine's cell-dedup key; ``None`` (opaque
        constraints) opts the cell out of deduplication entirely.
        """
        return None if texts is None else json.dumps(texts, sort_keys=True)

    def _user_spec(self, user) -> tuple[str, np.ndarray, object]:
        """Normalise one ``create_sessions`` entry to (id, vector, constraints)."""
        if isinstance(user, dict):
            user_id = user["user_id"]
            profile = user["profile"]
            user_constraints = user.get("user_constraints")
        else:
            if len(user) not in (2, 3):
                raise CandidateSearchError(
                    "each user must be (user_id, profile) or"
                    " (user_id, profile, user_constraints)"
                )
            user_id, profile = user[0], user[1]
            user_constraints = user[2] if len(user) == 3 else None
        x = (
            self.schema.vector(profile)
            if isinstance(profile, dict)
            else np.asarray(profile, dtype=float).ravel()
        )
        if x.size != len(self.schema):
            raise CandidateSearchError(
                f"profile has {x.size} entries, schema expects {len(self.schema)}"
            )
        return str(user_id), x, user_constraints

    def _join_constraints(self, user_constraints) -> ConstraintsFunction:
        self._require_fitted()
        if user_constraints is None:
            return self.domain_constraints
        if isinstance(user_constraints, ConstraintsFunction):
            return self.domain_constraints.conjoin(user_constraints)
        fn = ConstraintsFunction(self.schema, diff_scale=self.diff_scale)
        for item in user_constraints:
            if isinstance(item, dict):
                # rehydrated ScopedConstraint spec (see _constraint_texts)
                fn.add(
                    item["expr"],
                    times=item.get("times"),
                    label=item.get("label", ""),
                )
            else:
                # ConstraintsFunction.add accepts DSL text, ASTs and
                # pre-scoped constraints alike
                fn.add(item)
        return self.domain_constraints.conjoin(fn)


class UserSession:
    """One user's view: profile, constraints, candidates, insights."""

    def __init__(
        self,
        system: JustInTime,
        user_id: str,
        profile: np.ndarray,
        trajectory: np.ndarray,
        constraints: ConstraintsFunction,
        candidates: list[Candidate],
        search_stats: list,
    ):
        self.system = system
        self.user_id = user_id
        self.profile = profile
        self.trajectory = trajectory
        self.constraints = constraints
        self.candidates = candidates
        self.search_stats = search_stats
        # Deterministic identity of the session's constraints, set by the
        # session factories when the constraint list is serialisable; the
        # fused engine uses it as part of its cell-dedup key.
        self.constraints_key: str | None = None
        self._time_values = system.time_values

    @property
    def engine(self) -> InsightEngine:
        """A fresh query engine: an engine keeps the temporal inputs,
        plans and plan sets it has read, so none may outlive a
        re-ingest of this user."""
        return InsightEngine(self.system.store, self.user_id, self._time_values)

    # ------------------------------------------------------------ insights

    def ask(self, question: str, **params) -> Insight:
        """Answer one canned question (``'q1'`` .. ``'q6'``)."""
        return self.engine.ask(question, **params)

    def all_insights(self, alpha: float = 0.8, feature: str | None = None) -> list[Insight]:
        """Answer every canned question (Q3 needs a feature; defaults to
        the first mutable one)."""
        if feature is None:
            mutable = self.system.schema.mutable_indices()
            if mutable.size == 0:
                raise CandidateSearchError(
                    "all_insights needs a feature for Q3, but the schema has"
                    " no mutable features; pass feature= explicitly"
                )
            feature = self.system.schema.names[int(mutable[0])]
        return [
            self.ask("q1"),
            self.ask("q2"),
            self.ask("q3", feature=feature),
            self.ask("q4"),
            self.ask("q5"),
            self.ask("q6", alpha=alpha),
        ]

    def sql(self, query: str, params=()):
        """Expert passthrough to the candidate database."""
        return self.system.store.sql(query, params)

    # -------------------------------------------------------------- plans

    def plans(self, time: int | None = None) -> list[Plan]:
        """All stored candidates as plans, optionally for one time point."""
        plans = []
        for candidate in self.candidates:
            if time is not None and candidate.time != time:
                continue
            base = self.trajectory[candidate.time]
            plans.append(
                build_plan(
                    candidate,
                    base,
                    self.system.schema,
                    time_value=self.system.time_values[candidate.time],
                )
            )
        return plans

    def current_score(self) -> float:
        """Present-model score of the unmodified profile (t = 0)."""
        return self.system.future_models.score(self.trajectory[0], 0)

    def is_rejected_now(self) -> bool:
        """Whether the present model rejects the unmodified profile."""
        fm = self.system.future_models[0]
        return not fm.decides_positive(self.trajectory[0].reshape(1, -1))[0]
