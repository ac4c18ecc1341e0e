"""Incremental session-refresh subsystem tests.

Covers the refresh pipeline end to end: model content fingerprints,
staleness diffing, stale-cell-only recomputation (bit-identical to a
cold recompute with warm start disabled; untouched rows byte-identical),
the session registry, warm-started beams, session rehydration and the
CLI verb.
"""

import numpy as np
import pytest

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime, load_system, save_system
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    make_lending_dataset,
)
from repro.exceptions import ForecastError
from repro.ml import RandomForestClassifier
from repro.ml.base import as_rng
from repro.temporal import (
    ModelsGenerator,
    PerPeriodStrategy,
    content_fingerprint,
    fingerprint,
    lending_update_function,
    model_fingerprint,
)


USERS = [
    ("u1", john_profile()),
    ("u2", {**john_profile(), "annual_income": 61_000.0}),
]
DRIFT_T = 1


def build_system(schema, **overrides):
    config = dict(
        T=2, strategy=PerPeriodStrategy(), k=4, max_iter=8, random_state=0
    )
    config.update(overrides)
    return JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(**config),
        domain_constraints=lending_domain_constraints(schema),
    )


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=60, random_state=1)


@pytest.fixture(scope="module")
def drift_data(history):
    """New labeled samples inside the year backing time DRIFT_T."""
    start = float(np.floor(history.span[0]))
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(50)
    years = np.full(50, start + DRIFT_T + 0.5)
    return TemporalDataset(X, generator.label(X, years), years, history.schema)


def assert_same_candidates(a, b):
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert ca.time == cb.time
        assert np.array_equal(ca.x, cb.x)
        assert ca.metrics == cb.metrics


class TestFingerprints:
    def test_deterministic_across_fits(self, schema, history):
        fps1 = build_system(schema).fit(history).model_fingerprints
        fps2 = build_system(schema).fit(history).model_fingerprints
        assert fps1 == fps2
        assert all(fp for fp in fps1.values())

    def test_data_change_changes_only_touched_model(
        self, schema, history, drift_data
    ):
        system = build_system(schema).fit(history)
        before = system.model_fingerprints
        merged = TemporalDataset(
            np.vstack([history.X, drift_data.X]),
            np.concatenate([history.y, drift_data.y]),
            np.concatenate([history.timestamps, drift_data.timestamps]),
            schema,
        )
        after = (
            build_system(schema)
            .fit(merged, now=history.span[1])
            .model_fingerprints
        )
        changed = [t for t in before if before[t] != after[t]]
        assert changed == [DRIFT_T]

    def test_seed_changes_fingerprint(self, schema, history):
        fps1 = build_system(schema).fit(history).model_fingerprints
        fps2 = build_system(schema, random_state=1).fit(history).model_fingerprints
        assert fps1[0] != fps2[0]

    def test_stale_against(self, schema, history, drift_data):
        system = build_system(schema).fit(history)
        old = system.future_models
        system.refresh(drift_data)
        assert system.future_models.stale_against(old) == [DRIFT_T]
        assert system.future_models.stale_against(system.future_models) == []

    def test_model_fingerprint_distinguishes_threshold(self, fitted_forest):
        strategy = PerPeriodStrategy()
        a = model_fingerprint(fitted_forest, 0.5, strategy, 0)
        b = model_fingerprint(fitted_forest, 0.6, strategy, 0)
        assert a != b

    def test_generate_walks_a_reused_model_once(self, history, monkeypatch):
        """Strategy ``last`` reuses one forest for all T + 1 time points;
        ``generate`` serialises it for fingerprinting once, not per t."""
        walked = []
        real = fingerprint.canonical_bytes

        def counting(obj):
            if isinstance(obj, RandomForestClassifier):
                walked.append(obj)
            return real(obj)

        monkeypatch.setattr(fingerprint, "canonical_bytes", counting)
        future = ModelsGenerator(T=5, strategy="last", random_state=0).generate(
            history
        )
        assert len({id(fm.model) for fm in future}) == 1
        assert walked == [future[0].model]

    def test_generate_fingerprints_the_model_as_fitted(self, history):
        """``rate`` calibration scores each model before its fingerprint
        is stored; the fingerprint must still be that of the model as
        fitted, not of the prediction caches the scoring built."""
        generator = ModelsGenerator(
            T=2,
            strategy="last",
            threshold_method="rate",
            target_rate=0.3,
            random_state=0,
        )
        future = generator.generate(history)
        times = [fm.time_value for fm in future]
        unscored = generator.strategy.build(
            history, times, generator.model_factory, as_rng(0)
        )
        for fm, model in zip(future, unscored):
            assert fm.fingerprint == model_fingerprint(
                model, fm.threshold, generator.strategy, 0
            )

    def test_scoring_moves_no_fingerprint(self):
        """Prediction caches hash as ``fit`` leaves them: a forest reads
        the same fingerprint as fitted, after one ``decision_score``
        and after ``split_thresholds()``, and so does a lone tree after
        its own scoring."""
        data = make_lending_dataset(n_per_year=40, random_state=1)
        forest = RandomForestClassifier(n_estimators=5, random_state=0)
        forest.fit(data.X, data.y)
        tree = forest.trees_[0]
        strategy = PerPeriodStrategy()

        def fingerprints():
            return [model_fingerprint(m, 0.5, strategy, 0) for m in (forest, tree)]

        fitted = fingerprints()
        forest.decision_score(data.X[:3])
        assert fingerprints() == fitted
        forest.split_thresholds()
        assert fingerprints() == fitted
        tree.decision_score(data.X[:3])
        assert "_flat" in vars(tree) and tree._flat is not None
        assert fingerprints() == fitted

    def test_content_fingerprint_canonical(self):
        assert content_fingerprint({"a": 1, "b": 2}) == content_fingerprint(
            {"b": 2, "a": 1}
        )
        assert content_fingerprint(np.array([1.0, 2.0])) != content_fingerprint(
            np.array([1.0, 3.0])
        )
        assert content_fingerprint(1) != content_fingerprint(1.0)
        # key types matter too (keys are serialised, not str()-coerced)
        assert content_fingerprint({1: "v"}) != content_fingerprint({"1": "v"})

    def test_deep_models_hash_without_recursion_limit(self):
        """Depth-unbounded trees must fingerprint (the walk is iterative)."""
        import sys

        from repro.ml import DecisionTreeClassifier

        rng = np.random.default_rng(0)
        # near-degenerate data grows a deep, skinny tree (each level
        # used to cost 2 hashing recursion levels against a cap of 50)
        n = 300
        Xd = np.cumsum(rng.uniform(0.1, 1.0, size=(n, 1)), axis=0)
        yd = (np.arange(n) % 2).astype(int)
        deep = DecisionTreeClassifier(max_depth=None, min_samples_leaf=1).fit(
            Xd, yd
        )
        assert sys.getrecursionlimit() <= 3000  # the point of the test
        fp = model_fingerprint(deep, 0.5, PerPeriodStrategy(), 0)
        assert fp == model_fingerprint(deep, 0.5, PerPeriodStrategy(), 0)


class TestAdminConfigValidation:
    def test_unknown_strategy_lists_allowed(self):
        with pytest.raises(ValueError, match=r"edd.*last"):
            AdminConfig(strategy="lsat")

    def test_unknown_objective_lists_allowed(self):
        with pytest.raises(ValueError, match=r"balanced.*diff"):
            AdminConfig(objective="fastest")

    def test_instances_accepted(self):
        AdminConfig(strategy=PerPeriodStrategy())  # no raise


class TestRefreshCorrectness:
    @pytest.fixture(scope="class")
    def refreshed(self, schema, history, drift_data):
        """Incrementally refreshed system + pre-refresh row snapshot."""
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        snapshot = {}
        for uid, _ in USERS:
            for t in (0, 2):
                snapshot[(uid, t)] = [
                    tuple(r)
                    for r in system.store.sql(
                        "SELECT * FROM candidates WHERE user_id = ? AND"
                        " time = ? ORDER BY id",
                        (uid, t),
                    )
                ]
        report = system.refresh(drift_data, warm_start=False)
        return system, report, snapshot

    @pytest.fixture(scope="class")
    def cold(self, schema, history, drift_data):
        """Cold recompute: refit on the same merged data, all cells."""
        system = build_system(schema).fit(history)
        system.refresh(drift_data)  # empty registry: refit + diff only
        return system.create_sessions(USERS)

    def test_report(self, refreshed):
        _, report, _ = refreshed
        assert report.stale_times == (DRIFT_T,)
        assert report.fresh_times == (0, 2)
        assert report.n_users == len(USERS)
        assert report.cells_recomputed == len(USERS)
        assert not report.warm_start

    def test_recomputed_cells_bit_identical_to_cold(self, refreshed, cold):
        system, _, _ = refreshed
        for (uid, _), cold_session in zip(USERS, cold):
            assert_same_candidates(
                system.get_session(uid).candidates, cold_session.candidates
            )

    def test_untouched_rows_byte_identical(self, refreshed):
        system, _, snapshot = refreshed
        for (uid, t), before in snapshot.items():
            after = [
                tuple(r)
                for r in system.store.sql(
                    "SELECT * FROM candidates WHERE user_id = ? AND"
                    " time = ? ORDER BY id",
                    (uid, t),
                )
            ]
            assert after == before, (uid, t)

    def test_store_ledger_tracks_new_fingerprints(self, refreshed):
        system, _, _ = refreshed
        current = system.model_fingerprints
        for uid, _ in USERS:
            assert system.store.cell_fingerprints(uid) == current
        assert system.store.stale_cells(current) == []

    def test_sessions_survive_refresh(self, schema, history, drift_data):
        system = build_system(schema).fit(history)
        sessions = system.create_sessions(USERS)
        report = system.refresh(drift_data, warm_start=False)
        assert report.stale_times == (DRIFT_T,)
        for session, (uid, _) in zip(sessions, USERS):
            assert system.get_session(uid) is session  # same live object
            # in-memory candidates match the store after refresh
            assert_same_candidates(
                session.candidates, system.store.load_candidates(uid)
            )

    def test_noop_refresh(self, schema, history):
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        report = system.refresh()  # same data, same seeds -> nothing stale
        assert report.stale_times == ()
        assert report.cells_recomputed == 0

    def test_refresh_restores_fully_cleared_user(self, schema, history, drift_data):
        """clear_user (full) while the session stays live: the next
        refresh must rebuild the *whole* horizon for that user — ledger
        rows carry the staleness record, so missing rows are stale by
        definition — even when only one time point is model-stale."""
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        system.store.clear_user("u1")
        report = system.refresh(drift_data, warm_start=False)
        assert report.stale_times == (DRIFT_T,)
        # u1: all 3 cells (ledger missing); u2: just the drifted one
        assert report.cells_recomputed == 4
        assert system.store.times_for("u1") == [0, 1, 2]  # horizon restored
        assert system.store.cell_fingerprints("u1") == system.model_fingerprints
        for uid in ("u1", "u2"):
            assert_same_candidates(
                system.get_session(uid).candidates,
                system.store.load_candidates(uid),
            )

    def test_refresh_recomputes_ledger_stale_cells(self, schema, history):
        """A cell invalidated via clear_user(uid, time=t) must be
        recomputed by the next refresh even when no model changed."""
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        before = [
            c for c in system.get_session("u1").candidates if c.time == DRIFT_T
        ]
        assert before
        system.store.clear_user("u1", time=DRIFT_T)
        assert system.store.stale_cells(system.model_fingerprints) == [
            ("u1", DRIFT_T)
        ]
        report = system.refresh()  # models unchanged, ledger cell stale
        assert report.stale_times == ()
        assert report.cells_recomputed == 1
        # deterministic per-t seeds: the recomputed cell matches the original
        after = [
            c for c in system.get_session("u1").candidates if c.time == DRIFT_T
        ]
        assert_same_candidates(after, before)
        assert system.store.stale_cells(system.model_fingerprints) == []
        # untouched user untouched
        assert_same_candidates(
            system.get_session("u2").candidates,
            system.store.load_candidates("u2"),
        )

    def test_budgeted_refresh_drains_highest_priority_first(
        self, schema, history, drift_data
    ):
        """``budget`` is spent in the claim queue's order (priority, then
        user); the rest stays stale as ``deferred_cells`` until the next
        refresh, which ends where one unbudgeted refresh does."""
        users = [
            (f"u{i}", {**john_profile(), "annual_income": 55_000.0 + 2_000.0 * i})
            for i in range(4)
        ]
        one_shot = build_system(schema).fit(history)
        one_shot.create_sessions(users)
        one_shot.refresh(drift_data, warm_start=False)

        system = build_system(schema).fit(history)
        system.create_sessions(users)
        system.store.set_user_priorities({"u2": 5.0, "u0": 3.0, "u3": 1.0})
        report = system.refresh(drift_data, warm_start=False, budget=2)
        assert report.cells_recomputed == 2
        assert report.deferred_cells == 2
        assert report.freshness is not None
        assert system.store.stale_cells(system.model_fingerprints) == [
            ("u1", DRIFT_T),
            ("u3", DRIFT_T),
        ]
        rest = system.refresh(warm_start=False)
        assert rest.stale_times == ()
        assert (rest.cells_recomputed, rest.deferred_cells) == (2, 0)
        assert (
            system.store.contents_digest() == one_shot.store.contents_digest()
        )

    def test_refresh_recomputes_a_live_opaque_session(
        self, schema, history, drift_data
    ):
        """A live session with opaque constraints has no resumable spec;
        refresh recomputes its cell from the live session, under its
        own constraints."""
        from repro.constraints.evaluate import ConstraintsFunction

        system = build_system(schema).fit(history)
        opaque = ConstraintsFunction(schema)
        opaque.add("gap <= 2")
        session = system.create_session(
            "u1", john_profile(), user_constraints=opaque
        )
        report = system.refresh(drift_data, warm_start=False)
        assert report.stale_times == (DRIFT_T,)
        assert report.cells_recomputed == 1
        assert report.skipped_stale_cells == 0
        drifted = [c for c in session.candidates if c.time == DRIFT_T]
        assert drifted
        for c in drifted:
            assert c.gap <= 2
            assert session.constraints.is_valid(
                c.x,
                session.trajectory[c.time],
                confidence=c.confidence,
                time=c.time,
            )

    def test_refresh_recomputes_resumable_users_without_live_sessions(
        self, schema, history, drift_data
    ):
        """Every computable stale cell is recomputed: a stored user with
        a resumable DSL spec needs no live session."""
        live = build_system(schema).fit(history)
        live.create_sessions(USERS)
        live.refresh(drift_data, warm_start=False)

        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        system.sessions.clear()
        report = system.refresh(drift_data, warm_start=False)
        assert report.n_users == 0
        assert report.cells_recomputed == len(USERS)
        assert report.skipped_stale_cells == 0
        assert system.store.contents_digest() == live.store.contents_digest()

    def test_refresh_requires_history(self, schema, history):
        system = build_system(schema).fit(history)
        system._history = None  # simulate a pre-v2 load
        with pytest.raises(ForecastError, match="history"):
            system.refresh()
        report = system.refresh(history=history)
        assert report.stale_times == ()


class TestWarmStart:
    def test_warm_candidates_valid_and_stored(self, schema, history, drift_data):
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        report = system.refresh(drift_data)  # AdminConfig.warm_start default on
        assert report.warm_start
        for uid, _ in USERS:
            session = system.get_session(uid)
            stale_candidates = [
                c for c in session.candidates if c.time == DRIFT_T
            ]
            assert stale_candidates
            for c in stale_candidates:
                fm = system.future_models[c.time]
                assert fm.decides_positive(c.x.reshape(1, -1))[0]
                assert session.constraints.is_valid(
                    c.x,
                    session.trajectory[c.time],
                    confidence=c.confidence,
                    time=c.time,
                )
            assert_same_candidates(
                session.candidates, system.store.load_candidates(uid)
            )

    def test_generator_warm_start_seeds_pool(self, fitted_system, john):
        from repro.core import CandidateGenerator

        fm = fitted_system.future_models[0]
        generator = CandidateGenerator(
            fm.model,
            fm.threshold,
            fitted_system.schema,
            fitted_system.domain_constraints,
            k=4,
            max_iter=8,
            diff_scale=fitted_system.diff_scale,
            random_state=3,
        )
        cold = generator.generate(john, time=0)
        assert cold
        warm = generator.generate(
            john, time=0, warm_start=np.vstack([c.x for c in cold])
        )
        # every previously found candidate is still decision-altering
        # under the same model, so the warm pool can only be as good
        best_cold = min(generator.objective.key(c.metrics) for c in cold)
        best_warm = min(generator.objective.key(c.metrics) for c in warm)
        assert best_warm <= best_cold + 1e-12


class TestResumeSessions:
    def test_roundtrip_through_store(self, schema, history, tmp_path):
        db = tmp_path / "cands.db"
        pkl = tmp_path / "system.pkl"
        system = build_system(schema)
        system.store = type(system.store)(schema, db)
        system.fit(history)
        session = system.create_session(
            "john", john_profile(), user_constraints=["gap <= 3"]
        )
        save_system(system, pkl)

        loaded = load_system(pkl, store_path=db)
        assert loaded._history is not None
        restored = loaded.resume_sessions()
        assert [s.user_id for s in restored] == ["john"]
        resumed = loaded.get_session("john")
        assert_same_candidates(resumed.candidates, session.candidates)
        assert np.allclose(resumed.trajectory, session.trajectory)
        # constraints were rehydrated from DSL texts: same validity verdicts
        for c in session.candidates:
            assert resumed.constraints.is_valid(
                c.x,
                resumed.trajectory[c.time],
                confidence=c.confidence,
                time=c.time,
            )

    def test_drop_session_forgets_user(self, schema, history, drift_data):
        """drop_session removes registry + store rows, and the next
        refresh must NOT resurrect the user."""
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        system.drop_session("u1")
        report = system.refresh(drift_data, warm_start=False)
        assert report.n_users == 1
        assert system.store.times_for("u1") == []
        assert system.store.candidate_count("u1") == 0
        with pytest.raises(Exception, match="no registered session"):
            system.get_session("u1")
        # the surviving user refreshed normally
        assert system.store.candidate_count("u2") > 0

    def test_resume_skips_registered(self, schema, history):
        system = build_system(schema).fit(history)
        session = system.create_session("u1", john_profile())
        assert system.resume_sessions() == []
        assert system.get_session("u1") is session

    def test_scoped_constraints_roundtrip(self, schema, history):
        """ScopedConstraint / AST items (documented create_session inputs)
        must persist and rehydrate, not silently become opaque."""
        from repro.constraints.evaluate import ScopedConstraint
        from repro.constraints.parser import parse_constraint

        system = build_system(schema).fit(history)
        scoped = ScopedConstraint(
            parse_constraint("gap <= 2"), times=frozenset({1}), label="late"
        )
        ast_item = parse_constraint("annual_income <= base_annual_income * 1.3")
        session = system.create_session(
            "u1", john_profile(), user_constraints=[scoped, ast_item, "gap <= 4"]
        )
        system.sessions.clear()
        restored = system.resume_sessions()  # not opaque -> resumable
        assert [s.user_id for s in restored] == ["u1"]
        resumed = system.get_session("u1")
        for c in session.candidates:
            assert resumed.constraints.is_valid(
                c.x,
                resumed.trajectory[c.time],
                confidence=c.confidence,
                time=c.time,
            )

    def test_skipped_stale_cells_surfaced(self, schema, history, drift_data):
        """Ledger-stale cells of users with no live session must be
        counted in the report, never silently dropped."""
        from repro.constraints.evaluate import ConstraintsFunction

        system = build_system(schema).fit(history)
        opaque = ConstraintsFunction(schema)
        opaque.add("gap <= 3")
        system.create_session("ghost", john_profile(), user_constraints=opaque)
        system.create_session("live", john_profile())
        system.sessions.clear()
        system.resume_sessions()  # resumes 'live' only (ghost is opaque)
        report = system.refresh(drift_data, warm_start=False)
        assert report.stale_times == (DRIFT_T,)
        assert report.n_users == 1
        assert report.skipped_stale_cells == 1  # ghost's drifted cell

    def test_resume_skips_opaque_constraints_by_default(self, schema, history):
        """Non-serialisable constraints must not silently resume (a later
        refresh would overwrite preference-respecting candidates with
        unconstrained ones)."""
        from repro.constraints.evaluate import ConstraintsFunction

        system = build_system(schema).fit(history)
        opaque = ConstraintsFunction(schema)
        opaque.add("gap <= 3")
        system.create_session("u1", john_profile(), user_constraints=opaque)
        system.sessions.clear()  # simulate a restart
        assert system.resume_sessions() == []
        restored = system.resume_sessions(include_opaque=True)
        assert [s.user_id for s in restored] == ["u1"]


class TestRefreshCli:
    def test_admin_sessions_refresh_flow(self, tmp_path, capsys):
        from repro.app.cli import main

        pkl = tmp_path / "sys.pkl"
        db = tmp_path / "cands.db"
        assert (
            main(
                ["--n-per-year", "60", "--horizon", "1", "--db", str(db),
                 "admin", "--save", str(pkl)]
            )
            == 0
        )
        assert (
            main(["--load", str(pkl), "--db", str(db), "quickstart"]) == 0
        )
        capsys.readouterr()
        assert (
            main(
                ["--load", str(pkl), "--db", str(db), "refresh",
                 "--new-n", "40"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "resumed 1 stored sessions" in out
        assert "stale time points" in out

    def test_refresh_persists_refit_system(self, tmp_path, capsys):
        """Each CLI refresh must save the refit models + merged history
        back to --load so consecutive refreshes compound."""
        from repro.app.cli import main

        pkl = tmp_path / "sys.pkl"
        db = tmp_path / "cands.db"
        main(["--n-per-year", "60", "--horizon", "1", "--db", str(db),
              "admin", "--save", str(pkl)])
        main(["--load", str(pkl), "--db", str(db), "quickstart"])
        n_before = len(load_system(pkl)._history)
        capsys.readouterr()
        assert main(["--load", str(pkl), "--db", str(db), "refresh",
                     "--new-n", "40"]) == 0
        assert "saved refreshed system" in capsys.readouterr().out
        first = load_system(pkl)._history
        assert len(first) == n_before + 40
        # a second refresh starts from the refreshed state, not the original
        assert main(["--load", str(pkl), "--db", str(db), "refresh",
                     "--new-n", "40"]) == 0
        second = load_system(pkl)._history
        assert len(second) == n_before + 80
        # and ingests *distinct* samples, not a byte-copy of the first batch
        batch1 = first.X[n_before:]
        batch2 = second.X[n_before + 40 :]
        assert not np.array_equal(batch1, batch2)

    def test_refresh_verb_honours_a_saved_cold_config(
        self, schema, history, tmp_path, capsys
    ):
        """Without ``--cold`` both verbs take warm start from the saved
        ``AdminConfig``: on replicas of one saved state, ``refresh`` and
        ``refresh-workers`` draw the same stream and end on the same
        store digest."""
        import shutil

        from repro.app.cli import main

        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        system = JustInTime(
            schema,
            lending_update_function(schema),
            AdminConfig(
                T=2, strategy="last", k=4, max_iter=8, warm_start=False
            ),
            domain_constraints=lending_domain_constraints(schema),
            store_path=a / "cands.db",
        )
        system.fit(history)
        system.create_sessions(USERS)
        save_system(system, a / "sys.pkl")
        system.store.close()
        for name in ("sys.pkl", "cands.db"):
            shutil.copy(a / name, b / name)
        assert main(["--load", str(a / "sys.pkl"), "--db",
                     str(a / "cands.db"), "refresh", "--new-n", "20"]) == 0
        assert main(["--load", str(b / "sys.pkl"), "--db",
                     str(b / "cands.db"), "refresh-workers", "--new-n", "20",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        workers_digest = out.split("store digest: ")[1].split()[0]
        refreshed = load_system(a / "sys.pkl", store_path=a / "cands.db")
        assert refreshed.store.contents_digest() == workers_digest
        refreshed.store.close()

    def test_refresh_requires_load_and_db(self, capsys):
        from repro.app.cli import main

        assert main(["refresh"]) == 2
        assert "--load" in capsys.readouterr().out
