"""Fused multi-cell beam engine: byte-identity, dedup and the epoch cache.

The fused engine is the system's one search path, and it is a
*scheduling* change, never an arithmetic one: it advances every cell's
beam in lock-step and groups model scoring across cells, so its
candidates must be **byte-identical** to computing each cell on its own
(the per-cell reference in ``cell_reference.py``) on every store
backend, warm or cold.  These tests pin that contract
(``contents_digest`` equality), the epoch-level proposal cache semantics
(hits on shared rows, invalidation on model-fingerprint change), and
the cell-level dedup fan-out.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import lending_domain_constraints
from repro.core import (
    AdminConfig,
    CandidateGenerator,
    EpochProposalCache,
    FusedCell,
    JustInTime,
    RandomMoveProposer,
    ThresholdMoveProposer,
    drain_stale_cells,
    generate_fused,
)
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    lending_schema,
    make_lending_dataset,
)
from repro.temporal import PerPeriodStrategy, lending_update_function

from cell_reference import reference_create_sessions, reference_recompute

DRIFT_T = 1
BACKENDS = ["sqlite", "memory", "sharded"]


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=60, random_state=1)


@pytest.fixture(scope="module")
def drift_data(history):
    start = float(np.floor(history.span[0]))
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(50)
    years = np.full(50, start + DRIFT_T + 0.5)
    return TemporalDataset(X, generator.label(X, years), years, history.schema)


def make_users(schema, n=8):
    """Mixed workload: duplicate profiles under *different* constraints.

    Identical (profile, constraints) cells are collapsed by cell-level
    dedup before the row cache ever sees them, so the cache-hit
    assertions need same-profile-different-constraint pairs — the
    realistic shape of discretised applicant pools.
    """
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    users = []
    for i in range(n):
        profile = base.copy()
        profile[1] += float(rng.integers(0, 3) * 1000)
        constraints = ["monthly_debt <= 900"] if i % 2 else None
        users.append((f"user-{i:02d}", profile, constraints))
    return users


def build_system(schema, db, backend, **overrides):
    config = dict(
        T=3,
        strategy=PerPeriodStrategy(),
        k=4,
        beam_width=6,
        max_iter=8,
        patience=3,
        random_state=11,
    )
    config.update(overrides)
    return JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(**config),
        domain_constraints=lending_domain_constraints(schema),
        store_path=db,
        store_backend=backend,
        n_shards=4,
    )


def populate_and_refresh(schema, history, drift_data, db, backend, warm):
    system = build_system(schema, db, backend, warm_start=warm)
    system.fit(history)
    system.create_sessions(make_users(schema))
    report = system.refresh(drift_data)
    return system, report


def populate_and_recompute_per_cell(
    schema, history, drift_data, db, backend, warm
):
    """The same workload with every cell computed on its own."""
    system = build_system(schema, db, backend, warm_start=warm)
    system.fit(history)
    reference_create_sessions(system, make_users(schema))
    system.refit(drift_data)
    return system, reference_recompute(system, warm_start=warm)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
class TestRefreshDigestIdentity:
    def test_fused_refresh_matches_batch(
        self, schema, history, drift_data, tmp_path, backend, warm
    ):
        """``refresh`` equals the per-cell reference, onboarding
        included."""
        def db(tag):
            return (
                ":memory:" if backend == "memory" else tmp_path / f"{tag}.db"
            )

        ref_sys, (cells, written, search) = populate_and_recompute_per_cell(
            schema, history, drift_data, db("reference"), backend, warm
        )
        fus_sys, fus = populate_and_refresh(
            schema, history, drift_data, db("fused"), backend, warm
        )
        assert (
            fus_sys.store.contents_digest() == ref_sys.store.contents_digest()
        )
        assert fus.cells_recomputed == len(cells)
        assert fus.candidates_written == written
        # identical work, counted identically — only scheduling differs
        for key in ("iterations", "proposals_evaluated", "valid_found",
                    "dedupe_hits"):
            assert fus.search[key] == search[key]
        ref_sys.store.close()
        fus_sys.store.close()


class TestEpochCache:
    class _CountingModel:
        """decision_score = row sum; counts batched scoring calls."""

        def __init__(self):
            self.calls = 0

        def decision_score(self, X):
            self.calls += 1
            return np.asarray(X, dtype=float).sum(axis=1)

    @staticmethod
    def _rows():
        X = np.arange(12, dtype=float).reshape(4, 3)
        keys = [row.tobytes() for row in X]
        return X, keys

    def test_repeat_rows_hit_and_skip_the_model(self):
        cache = EpochProposalCache()
        model = self._CountingModel()
        X, keys = self._rows()
        scores1, hits1 = cache.scores_for(model, "fp-a", X, keys)
        assert not hits1.any() and cache.misses == 4
        scores2, hits2 = cache.scores_for(model, "fp-a", X, keys)
        assert hits2.all() and cache.hits == 4
        assert model.calls == 1  # second pass fully served from cache
        np.testing.assert_array_equal(scores1, scores2)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_model_fingerprint_change_invalidates(self):
        """The regression pinned by the issue: a refit changes the
        fingerprint, and rows cached under the old one must stop
        matching — stale scores can never leak across model versions."""
        cache = EpochProposalCache()
        model = self._CountingModel()
        X, keys = self._rows()
        cache.scores_for(model, "fp-old", X, keys)
        scores, hits = cache.scores_for(model, "fp-new", X, keys)
        assert not hits.any()
        assert model.calls == 2
        np.testing.assert_array_equal(scores, X.sum(axis=1))

    def test_falsy_fingerprint_bypasses_cache(self):
        """Unfingerprinted models (no content hash) must never share
        scores: every call goes to the model and nothing is stored."""
        cache = EpochProposalCache()
        model = self._CountingModel()
        X, keys = self._rows()
        for _ in range(2):
            _, hits = cache.scores_for(model, None, X, keys)
            assert not hits.any()
        assert model.calls == 2
        assert cache.hits == 0 and cache.misses == 0

    def test_max_entries_holds_when_one_call_misses_more(self):
        """A call with more misses than ``max_entries`` must not leave the
        cache over its bound, and the bound covers every fingerprint's
        table together."""
        cache = EpochProposalCache(max_entries=2)
        model = self._CountingModel()
        X, keys = self._rows()
        scores, hits = cache.scores_for(model, "fp", X[:3], keys[:3])
        assert len(cache) <= 2
        np.testing.assert_array_equal(scores, X[:3].sum(axis=1))
        X2 = X + 100.0
        keys2 = [row.tobytes() for row in X2]
        scores, hits = cache.scores_for(model, "fp", X2[:3], keys2[:3])
        assert len(cache) <= 2 and not hits.any()
        np.testing.assert_array_equal(scores, X2[:3].sum(axis=1))
        assert cache.evictions == 2
        # one more row under a second fingerprint overflows the shared
        # bound: every table is dropped, then the new row is kept
        cache.scores_for(model, "fp-other", X[3:], keys[3:])
        assert len(cache) == 1 and cache.evictions == 4
        _, hits = cache.scores_for(model, "fp-other", X[3:], keys[3:])
        assert hits.all()

    def test_shared_workload_has_nonzero_hit_rate(
        self, schema, history, drift_data, tmp_path
    ):
        """End-to-end: duplicate profiles under different constraints
        share proposal rows through the epoch cache during a fused
        refresh."""
        _, report = populate_and_refresh(
            schema, history, drift_data, tmp_path / "cands.db", "sqlite", False
        )
        assert report.search["cache_hits"] > 0


class TestFinalistsOnly:
    def test_candidates_built_only_for_prologue_rows_and_plan_sets(
        self, schema, history, drift_data, tmp_path, monkeypatch
    ):
        """A cell's pool stays arrays: the engine builds ``Candidate``
        objects only for prologue rows (base row and warm seeds) and the
        ≤k plan set of each cell (replicated cells get fresh copies)."""
        import repro.core.candidates as candidates_module

        system = build_system(schema, tmp_path / "c.db", "sqlite")
        system.fit(history)
        sessions = system.create_sessions(make_users(schema))
        system.refit(drift_data)
        cells = [
            system._fused_cell(
                session.user_id,
                t,
                session.trajectory[t],
                session.constraints,
                session.constraints_key,
                warm=True,
            )
            for session in sessions
            for t in range(len(system.future_models))
        ]
        built = []

        class CountingCandidate(candidates_module.Candidate):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(candidates_module, "Candidate", CountingCandidate)
        results, report = generate_fused(cells)
        prologue_rows = sum(
            1 + (0 if cell.warm_start is None else len(cell.warm_start))
            for cell in cells
        )
        assert len(built) <= system.config.k * report.cells + prologue_rows
        # the searches pooled far more valid rows than were built
        assert report.search["valid_found"] > 2 * len(built)
        assert all(
            isinstance(c, CountingCandidate)
            for found, _ in results.values()
            for c in found
        )


class TestCellDedup:
    def test_identical_cells_computed_once(self, schema, lending_ds):
        from repro.ml import RandomForestClassifier

        model = RandomForestClassifier(
            n_estimators=6, max_depth=4, random_state=0
        ).fit(lending_ds.X, lending_ds.y)
        base = schema.vector(john_profile())

        def cell(cell_id):
            return FusedCell(
                cell_id=cell_id,
                t=0,
                x_base=base,
                generator=CandidateGenerator(
                    model, 0.5, schema, k=3, beam_width=4, max_iter=5,
                    random_state=3,
                ),
                model_fp="fp",
                constraints_key="[]",
            )

        results, report = generate_fused([cell("a"), cell("b"), cell("c")])
        assert report.cells == 3 and report.unique_cells == 1
        assert report.cells_deduped == 2
        cands_a, stats_a = results["a"]
        for other in ("b", "c"):
            cands_o, stats_o = results[other]
            assert len(cands_o) == len(cands_a)
            for ca, co in zip(cands_a, cands_o):
                assert co is not ca  # replicas, not aliases
                np.testing.assert_array_equal(ca.x, co.x)
                assert ca.metrics == co.metrics
            assert stats_o is not stats_a
            assert stats_o.iterations == stats_a.iterations

    def test_opaque_constraints_opt_out_of_dedup(self, schema, lending_ds):
        from repro.ml import RandomForestClassifier

        model = RandomForestClassifier(
            n_estimators=6, max_depth=4, random_state=0
        ).fit(lending_ds.X, lending_ds.y)
        base = schema.vector(john_profile())
        cells = [
            FusedCell(
                cell_id=i,
                t=0,
                x_base=base,
                generator=CandidateGenerator(
                    model, 0.5, schema, k=3, beam_width=4, max_iter=5,
                    random_state=3,
                ),
                model_fp="fp",
                constraints_key=None,
            )
            for i in range(2)
        ]
        _, report = generate_fused(cells)
        assert report.cells_deduped == 0


@pytest.mark.parametrize("backend", ["sqlite", "sharded"])
class TestWorkerDrainIdentity:
    def test_fused_drain_matches_per_cell(
        self, schema, history, drift_data, tmp_path, backend
    ):
        reference, (cells, written, search) = populate_and_recompute_per_cell(
            schema, history, drift_data, tmp_path / "reference.db", backend,
            False,
        )
        expected = reference.store.contents_digest()
        reference.store.close()

        system = build_system(schema, tmp_path / "fused.db", backend)
        system.fit(history)
        system.create_sessions(make_users(schema))
        system.refit(drift_data)
        report = drain_stale_cells(
            system, worker_id="w", claim_batch=3, warm_start=False
        )
        assert system.store.contents_digest() == expected
        system.store.close()
        assert sorted(report.cells) == sorted(cells)
        assert report.candidates_written == written
        for key in ("iterations", "proposals_evaluated", "valid_found",
                    "dedupe_hits"):
            assert report.search[key] == search[key]
        # the drain-long cache keeps paying across claim batches
        assert report.search["cache_hits"] > 0


class _TickingClock:
    """Deterministic drain clock whose time advances only while a model
    scores — i.e. *during* the fused compute — so the test controls
    exactly how much lease time the compute consumes."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestLeaseHeartbeat:
    """A whole-epoch fused claim computes every cell before writing any,
    so the compute can outlive ``lease_seconds`` — and an expired lease
    is never renewed, which without the per-round heartbeat loses the
    entire batch and re-claims the same cells over and over.  Pin the
    fix: a fused compute spanning multiple leases must lose nothing."""

    def test_long_fused_compute_keeps_leases(
        self, schema, history, drift_data, tmp_path
    ):
        lease = 30.0
        users = make_users(schema)

        reference, _ = populate_and_recompute_per_cell(
            schema, history, drift_data, tmp_path / "ref.db", "sqlite", False
        )
        reference_digest = reference.store.contents_digest()
        reference.store.close()

        system = build_system(schema, tmp_path / "hb.db", "sqlite")
        system.fit(history)
        system.create_sessions(users)
        system.refit(drift_data)
        stale = system.store.stale_cells(system.model_fingerprints)
        assert stale  # the drift staled something, or the test is vacuous
        clock = _TickingClock()
        # every grouped model call burns a slice of the lease: the whole
        # drain spans several leases' worth, a single round far less
        for fm in system.future_models:
            fm.model.decision_score = (
                lambda X, _inner=fm.model.decision_score: (
                    setattr(clock, "now", clock.now + lease * 0.16),
                    _inner(X),
                )[1]
            )
        report = drain_stale_cells(
            system,
            worker_id="hb",
            claim_batch=len(stale),
            lease_seconds=lease,
            warm_start=False,
            clock=clock,
        )
        # the compute really did outlive the lease it was claimed under…
        assert clock.now > lease
        # …yet the heartbeat kept every cell owned to the end
        assert report.lost_leases == 0
        assert sorted(report.cells) == sorted(stale)
        assert system.store.stale_cells(system.model_fingerprints) == []
        assert system.store.contents_digest() == reference_digest
        system.store.close()


@pytest.fixture(scope="module")
def property_model(history):
    from repro.ml import RandomForestClassifier

    return RandomForestClassifier(
        n_estimators=6, max_depth=4, random_state=0
    ).fit(history.X, history.y)


class TestFusedEquivalenceProperty:
    """Hypothesis sweep: ragged beam widths, different convergence
    horizons and duplicate base rows must all produce exactly the
    per-cell candidate sets."""

    cell_strategy = st.tuples(
        st.integers(min_value=0, max_value=2),  # base-profile index
        st.integers(min_value=2, max_value=5),  # beam_width (ragged)
        st.integers(min_value=2, max_value=6),  # max_iter (convergence)
        st.integers(min_value=0, max_value=1),  # time point
    )

    @given(cells=st.lists(cell_strategy, min_size=1, max_size=5))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_per_cell(self, property_model, cells):
        schema = lending_schema()
        base = schema.vector(john_profile())
        profiles = [
            base,
            schema.clip(base * 1.1),
            schema.clip(base * 0.9),
        ]

        def generator(beam_width, max_iter, t):
            return CandidateGenerator(
                property_model,
                0.5,
                schema,
                k=3,
                beam_width=beam_width,
                max_iter=max_iter,
                patience=2,
                random_state=17 + 7919 * (t + 1),
            )

        fused_cells = [
            FusedCell(
                cell_id=i,
                t=t,
                x_base=profiles[p],
                generator=generator(bw, mi, t),
                model_fp="fp-prop",
                constraints_key="[]",
            )
            for i, (p, bw, mi, t) in enumerate(cells)
        ]
        results, report = generate_fused(fused_cells)
        assert report.cells == len(cells)
        for i, (p, bw, mi, t) in enumerate(cells):
            ref_gen = generator(bw, mi, t)
            expected = ref_gen.generate(profiles[p], time=t)
            found, stats = results[i]
            assert len(found) == len(expected)
            for got, want in zip(found, expected):
                np.testing.assert_array_equal(got.x, want.x)
                assert got.time == want.time
                assert got.metrics == want.metrics
            assert stats.iterations == ref_gen.last_stats_.iterations
            assert (
                stats.proposals_evaluated
                == ref_gen.last_stats_.proposals_evaluated
            )


class _OffGridThresholds(ThresholdMoveProposer):
    """Threshold moves that leave ``household`` half a code off its
    category grid, unclipped — a custom proposer that breaks the
    shared random replay's on-grid assumption."""

    def propose_batch(self, states, model, schema, rng):
        col = schema.index_of("household")
        mats = super().propose_batch(states, model, schema, rng)
        for matrix in mats:
            matrix[:, col] = np.floor(matrix[:, col]) + 0.5
        return mats


class TestRandomReplayFallback:
    """A cell whose beam holds an off-grid categorical state makes the
    shared random draws unsafe to replay for it: the engine must rewind
    that cell's generator and let it draw for itself, and every cell —
    the one rewound and those replayed — still equals its per-cell
    search."""

    def test_off_grid_cell_falls_back_and_matches_per_cell(
        self, schema, lending_ds, monkeypatch
    ):
        from repro.ml import RandomForestClassifier

        model = RandomForestClassifier(
            n_estimators=6, max_depth=4, random_state=0
        ).fit(lending_ds.X, lending_ds.y)
        base = schema.vector(john_profile())
        profiles = [base, schema.clip(base * 1.1), schema.clip(base * 0.9)]

        def generator(off_grid):
            first = _OffGridThresholds() if off_grid else ThresholdMoveProposer()
            return CandidateGenerator(
                model,
                0.5,
                schema,
                k=3,
                beam_width=4,
                max_iter=6,
                patience=3,
                proposers=[first, RandomMoveProposer()],
                random_state=5,
            )

        layout = [(0, False), (1, True), (2, False)]
        # the engine's only model-less propose_batch call is the replay
        # fallback's redraw through the cell's own generator
        fallbacks = []
        real_propose_batch = RandomMoveProposer.propose_batch

        def spy(self, states, model, schema, rng):
            if model is None:
                fallbacks.append(len(states))
            return real_propose_batch(self, states, model, schema, rng)

        monkeypatch.setattr(RandomMoveProposer, "propose_batch", spy)
        results, report = generate_fused(
            [
                FusedCell(
                    cell_id=i,
                    t=0,
                    x_base=profiles[p],
                    generator=generator(off_grid),
                    model_fp="fp-fallback",
                    constraints_key="[]",
                )
                for i, (p, off_grid) in enumerate(layout)
            ]
        )
        monkeypatch.undo()
        assert fallbacks, "no cell fell back: the test is vacuous"
        assert report.unique_cells == len(layout)
        for i, (p, off_grid) in enumerate(layout):
            reference = generator(off_grid)
            expected = reference.generate(profiles[p], time=0)
            found, stats = results[i]
            assert len(found) == len(expected)
            for got, want in zip(found, expected):
                assert got.x.tobytes() == want.x.tobytes()
                assert got.metrics == want.metrics
            ref_stats = reference.last_stats_
            assert stats.iterations == ref_stats.iterations
            assert stats.proposals_evaluated == ref_stats.proposals_evaluated
            assert stats.best_key_history == ref_stats.best_key_history


def test_choice_over_a_population_draws_integers():
    """The shared random draws take ``rng.integers(n)`` where the
    per-cell proposer calls ``rng.choice`` on an n-element population;
    the two must return the same element and leave the stream at the
    same position."""
    population = np.arange(4) * 3
    for seed in range(50):
        by_choice = np.random.default_rng(seed)
        by_integers = np.random.default_rng(seed)
        for n in (1, 2, 3, 4):
            assert by_choice.choice(population[:n]) == population[
                by_integers.integers(n)
            ]
            options = [c for c in (0, 1, 2) if c != n % 3]
            drawn = by_choice.choice(options)
            assert options.index(drawn) == by_integers.integers(len(options))
            assert by_choice.normal(0.0, 4.0) == by_integers.normal(0.0, 4.0)
        assert by_choice.bit_generator.state == by_integers.bit_generator.state


class TestClaimRenewals:
    """A claim's leases are renewed in one call before the compute and
    one after it, with at most one heartbeat call per lock-stepped round
    in between — not once per cell on each side of the compute."""

    def _drain(self, schema, history, drift_data, db, monkeypatch, before=None):
        system = build_system(schema, db, "sharded")
        system.fit(history)
        system.create_sessions(make_users(schema))
        system.refit(drift_data)
        stale = system.store.stale_cells(system.model_fingerprints)
        assert len(stale) > 2
        store = system.store
        calls = []
        real_renew = store.renew_leases

        def renew_leases(worker_id, cells, **kwargs):
            cells = list(cells)
            if before is not None and not calls:
                before(store, worker_id, cells)
            calls.append(len(cells))
            return real_renew(worker_id, cells, **kwargs)

        monkeypatch.setattr(store, "renew_leases", renew_leases)
        rounds = []
        real_fused = generate_fused

        def counting_fused(cells, **kwargs):
            outcome, report = real_fused(cells, **kwargs)
            rounds.append(report.rounds)
            return outcome, report

        monkeypatch.setattr("repro.core.worker.generate_fused", counting_fused)
        report = drain_stale_cells(
            system, worker_id="w", claim_batch=len(stale), warm_start=False
        )
        monkeypatch.undo()
        return system, stale, report, calls, rounds

    def test_one_claim_renews_in_rounds_plus_two_calls(
        self, schema, history, drift_data, tmp_path, monkeypatch
    ):
        system, stale, report, calls, rounds = self._drain(
            schema, history, drift_data, tmp_path / "renew.db", monkeypatch
        )
        assert len(rounds) == 1  # the whole ledger in one claim
        assert len(calls) <= rounds[0] + 2
        assert calls[0] == calls[-1] == len(stale)
        assert report.lost_leases == 0
        assert sorted(report.cells) == sorted(stale)
        assert system.store.stale_cells(system.model_fingerprints) == []
        system.store.close()

    def test_a_lost_lease_is_dropped_and_reclaimed(
        self, schema, history, drift_data, tmp_path, monkeypatch
    ):
        """One cell's lease is gone before the bulk renewal: the call
        renews one cell fewer, the cells are probed one at a time, only
        the lost one is dropped, and a later claim recomputes it."""
        lost = []

        def drop_one_lease(store, worker_id, cells):
            lost.append(cells[0])
            store.release_cells(worker_id, cells[:1])

        system, stale, report, calls, rounds = self._drain(
            schema, history, drift_data, tmp_path / "lost.db", monkeypatch,
            before=drop_one_lease,
        )
        assert report.lost_leases == 1
        # bulk call, one probe per cell, then the survivors' compute
        assert calls[: 1 + len(stale)] == [len(stale)] + [1] * len(stale)
        assert len(rounds) == 2  # the lost cell came back in a new claim
        assert sorted(report.cells) == sorted(stale)
        assert system.store.stale_cells(system.model_fingerprints) == []
        system.store.close()
