"""Diverse top-k plan sets as a first-class object, end to end.

Covers the whole thread: candidate metadata round-trips through every
backend, ``contents_digest`` folds plan-set metadata in deterministically
(and leaves metadata-free rows byte-identical to the pre-plan-set
formula), the fused engine's batched selection produces the same digest
as per-cell generation, the insight layer's ``plans=k``
alternatives view, the serving tier's ``?plans=k`` (including the
default's byte-identity and cache revalidation), and ``query --plans``.
"""

import hashlib
import http.client
import io
import json

import numpy as np
import pytest

from repro.constraints import lending_domain_constraints
from repro.core import (
    AdminConfig,
    Candidate,
    CandidateMetrics,
    JustInTime,
)
from repro.core.insights import InsightEngine
from repro.data import john_profile, make_lending_dataset
from repro.db import CandidateStore
from repro.exceptions import QueryError
from repro.serve import InsightServer, bundle_payload, dumps
from repro.temporal import PerPeriodStrategy, lending_update_function

from cell_reference import reference_create_sessions


def cand(x, time, diff, gap, p, **plan_meta):
    return Candidate(
        np.asarray(x, dtype=float),
        time,
        CandidateMetrics(diff=diff, gap=gap, confidence=p),
        **plan_meta,
    )


def make_users(schema, n=3):
    base = schema.vector(john_profile())
    users = []
    for i in range(n):
        profile = base.copy()
        profile[1] += float(i * 1500)
        users.append((f"pu{i}", profile))
    return users


def fitted_system(schema, history, db, backend, n_shards=2):
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=2,
            strategy=PerPeriodStrategy(),
            k=4,
            beam_width=6,
            max_iter=8,
            patience=3,
            random_state=11,
        ),
        domain_constraints=lending_domain_constraints(schema),
        store_path=":memory:" if backend == "memory" else db,
        store_backend=backend,
        n_shards=n_shards,
    )
    return system.fit(history)


def build_system(schema, history, db, backend, n_shards=2):
    system = fitted_system(schema, history, db, backend, n_shards)
    system.create_sessions(make_users(schema))
    return system


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=80, random_state=5)


@pytest.fixture(scope="module")
def populated(schema, history, tmp_path_factory):
    """A generated sqlite system — the workhorse for the e2e tests."""
    tmp = tmp_path_factory.mktemp("plansets")
    system = build_system(schema, history, tmp / "plans.db", "sqlite")
    yield system
    system.store.close()


def legacy_digest(store):
    """The pre-plan-set ``contents_digest`` formula, byte for byte."""
    digest = hashlib.sha256()
    feature_cols = ", ".join(store.schema.names)
    for row in store.read(
        f"SELECT user_id, time, {feature_cols}, model_fp"
        " FROM temporal_inputs ORDER BY user_id, time"
    ):
        digest.update(repr(tuple(row)).encode())
    for row in store.read(
        f"SELECT user_id, time, {feature_cols}, diff, gap, p, model_fp"
        " FROM candidates ORDER BY user_id, time, id"
    ):
        digest.update(repr(tuple(row)).encode())
    for row in store.read(
        "SELECT user_id, profile, constraints FROM user_sessions"
        " ORDER BY user_id"
    ):
        digest.update(repr(tuple(row)).encode())
    return digest.hexdigest()


class TestCandidateMetadata:
    def test_round_trip(self, schema, john):
        with CandidateStore(schema, backend="memory") as store:
            store.store_temporal_inputs("u", np.vstack([john] * 2))
            store.store_candidates(
                "u",
                [
                    cand(john, 0, 1.0, 1, 0.7, plan_rank=0, plan_quality=0.5),
                    cand(
                        john, 0, 2.0, 2, 0.6,
                        plan_rank=1, plan_quality=0.9, plan_min_dist=3.25,
                    ),
                ],
            )
            loaded = store.load_candidates("u")
        assert [c.plan_rank for c in loaded] == [0, 1]
        assert loaded[0].plan_quality == 0.5
        assert loaded[0].plan_min_dist is None  # the seed has no earlier pick
        assert loaded[1].plan_min_dist == 3.25

    def test_legacy_candidates_read_back_unranked(self, schema, john):
        with CandidateStore(schema, backend="memory") as store:
            store.store_temporal_inputs("u", np.vstack([john] * 2))
            store.store_candidates("u", [cand(john, 0, 1.0, 1, 0.7)])
            loaded = store.load_candidates("u")
        assert loaded[0].plan_rank == -1
        assert loaded[0].plan_quality is None
        assert loaded[0].plan_min_dist is None

    def test_pre_plan_set_database_migrates(self, schema, john, tmp_path):
        """Opening a database created before the plan columns existed
        adds them (rank -1 = no stored set) without touching the data."""
        db = tmp_path / "old.db"
        with CandidateStore(schema, db) as store:
            store.store_temporal_inputs("u", np.vstack([john] * 2))
            store.store_candidates("u", [cand(john, 0, 1.0, 1, 0.7)])
            before = store.contents_digest()
        import sqlite3

        conn = sqlite3.connect(db)
        for column in ("plan_rank", "plan_quality", "plan_min_dist"):
            conn.execute(f"ALTER TABLE candidates DROP COLUMN {column}")
        conn.commit()
        conn.close()
        with CandidateStore(schema, db) as store:
            assert store.contents_digest() == before
            assert store.load_candidates("u")[0].plan_rank == -1


class TestDigestContract:
    def test_metadata_free_rows_match_pre_plan_formula(self, schema, john):
        """Rows without plan-set metadata serialise exactly as they did
        before the columns existed — historical digests stay comparable."""
        with CandidateStore(schema, backend="memory") as store:
            store.store_temporal_inputs(
                "u", np.vstack([john] * 3), fingerprints={0: "a", 1: "b"}
            )
            store.store_candidates(
                "u", [cand(john, 0, 1.0, 1, 0.7), cand(john, 1, 0.5, 0, 0.9)]
            )
            assert store.contents_digest() == legacy_digest(store)

    def test_ranked_rows_fold_metadata_into_digest(self, schema, john):
        def digest_with(meta):
            with CandidateStore(schema, backend="memory") as store:
                store.store_temporal_inputs("u", np.vstack([john] * 2))
                store.store_candidates("u", [cand(john, 0, 1.0, 1, 0.7, **meta)])
                return store.contents_digest()

        unranked = digest_with({})
        ranked = digest_with({"plan_rank": 0, "plan_quality": 1.0})
        assert unranked != ranked
        # metadata differences are digest differences
        assert ranked != digest_with({"plan_rank": 0, "plan_quality": 2.0})

    def test_generated_digest_identical_across_backends(
        self, schema, history, tmp_path
    ):
        digests = {}
        for backend in ("sqlite", "memory", "sharded"):
            system = build_system(
                schema, history, tmp_path / f"{backend}.db", backend
            )
            digests[backend] = system.store.contents_digest()
            system.store.close()
        assert len(set(digests.values())) == 1, digests

    def test_generated_digest_identical_batch_vs_fused(
        self, schema, history, tmp_path
    ):
        """The fused engine's batched cross-cell plan-set selection is
        bit-identical to per-cell generation — digest-proved."""
        fused = build_system(schema, history, tmp_path / "fused.db", "sqlite")
        reference = fitted_system(
            schema, history, tmp_path / "reference.db", "sqlite"
        )
        reference_create_sessions(reference, make_users(schema))
        assert (
            fused.store.contents_digest() == reference.store.contents_digest()
        )
        fused.store.close()
        reference.store.close()


class TestGeneratedPlanSets:
    def test_ranks_contiguous_and_metadata_consistent(self, populated):
        store = populated.store
        for user, _profile in make_users(store.schema):
            by_cell = {}
            for c in store.load_candidates(user):
                by_cell.setdefault(c.time, []).append(c)
            assert by_cell, user
            for cell in by_cell.values():
                ranks = sorted(c.plan_rank for c in cell)
                assert ranks == list(range(len(cell)))
                seed = next(c for c in cell if c.plan_rank == 0)
                assert seed.plan_min_dist is None
                assert seed.plan_quality == min(c.plan_quality for c in cell)
                for c in cell:
                    if c.plan_rank > 0:
                        assert c.plan_min_dist is not None
                        assert c.plan_min_dist >= 0.0

    def test_storage_order_is_quality_sorted(self, populated):
        """Within a cell rows are persisted quality-sorted (the classic
        single-plan queries depend on it); plan_rank carries the greedy
        selection order separately."""
        store = populated.store
        rows = store.read(
            "SELECT user_id, time, plan_quality FROM candidates"
            " ORDER BY user_id, time, id"
        )
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row["user_id"], row["time"]), []).append(
                row["plan_quality"]
            )
        for qualities in by_cell.values():
            assert qualities == sorted(qualities)


class TestInsightAlternatives:
    def test_default_has_no_alternatives(self, populated):
        engine = InsightEngine(populated.store, "pu0", populated.time_values)
        insight = engine.ask("q4")
        assert insight.alternatives == ()

    def test_plans_k_attaches_ranked_alternatives(self, populated):
        engine = InsightEngine(populated.store, "pu0", populated.time_values)
        insight = engine.ask("q4", plans=3)
        alts = insight.alternatives
        assert 1 <= len(alts) <= 3
        assert [a.rank for a in alts] == list(range(len(alts)))
        assert alts[0].min_dist is None
        assert all(a.min_dist is not None for a in alts[1:])
        anchor = int(insight.answer["time"])
        assert all(a.plan.time == anchor for a in alts)
        # rank 0 is the best plan under the objective
        assert alts[0].quality == min(a.quality for a in alts)

    def test_plans_must_be_positive(self, populated):
        engine = InsightEngine(populated.store, "pu0", populated.time_values)
        with pytest.raises(QueryError):
            engine.ask("q4", plans=0)

    def test_scalar_answers_carry_alternatives_too(self, populated):
        engine = InsightEngine(populated.store, "pu0", populated.time_values)
        insight = engine.ask("q6", alpha=0.0, plans=2)
        if insight.answer is not None:
            assert len(insight.alternatives) >= 1

    def test_bundle_reads_each_temporal_input_once(self, populated, monkeypatch):
        """A ``plans=3`` bundle builds several plans per time point from
        one engine; each time point's input is read from the store once
        (the engine reads all of them in one statement)."""
        store = populated.store
        real = store.read
        reads = []

        def counting(query, params=()):
            rows = real(query, params)
            if query.startswith("SELECT * FROM temporal_inputs"):
                reads.extend(int(row["time"]) for row in rows)
            return rows

        monkeypatch.setattr(store, "read", counting)
        engine = InsightEngine(store, "pu0", populated.time_values)
        feature = populated.schema.names[int(populated.schema.mutable_indices()[0])]
        for qid, params in (
            ("q1", {}), ("q2", {}), ("q3", {"feature": feature}),
            ("q4", {}), ("q5", {}), ("q6", {"alpha": 0.8}),
        ):
            engine.ask(qid, plans=3, **params)
        assert reads
        assert len(reads) == len(set(reads))

    def test_legacy_rows_yield_no_alternatives(self, schema, john):
        with CandidateStore(schema, backend="memory") as store:
            store.store_temporal_inputs(
                "u", np.vstack([john] * 2), fingerprints={0: "a"}
            )
            store.store_candidates("u", [cand(john, 0, 1.0, 1, 0.7)])
            engine = InsightEngine(store, "u", [2024.0, 2025.0])
            insight = engine.ask("q4", plans=5)
            assert insight.answer is not None
            assert insight.alternatives == ()


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def served(populated):
    server = InsightServer(populated.store, populated.time_values)
    server.start_background()
    yield server
    server.stop_background()


class TestServingPlans:
    def test_default_and_plans_1_byte_identical(self, served, populated):
        status, default_body = http_get(served.port, "/v1/insights?user=pu0")
        assert status == 200
        status, plans1_body = http_get(
            served.port, "/v1/insights?user=pu0&plans=1"
        )
        assert status == 200
        assert default_body == plans1_body
        assert "alternatives" not in default_body
        # and byte-identical to the direct render path
        store = populated.store
        feature = store.schema.names[int(store.schema.mutable_indices()[0])]
        engine = InsightEngine(store, "pu0", populated.time_values)
        params = {"q3": {"feature": feature}, "q6": {"alpha": 0.8}}
        insights = {
            qid: engine.ask(qid, **params.get(qid, {}))
            for qid in ("q1", "q2", "q3", "q4", "q5", "q6")
        }
        assert default_body == dumps(
            bundle_payload("pu0", insights, store.cell_fingerprints("pu0"))
        )

    def test_plans_k_bundle_has_alternatives(self, served):
        status, body = http_get(served.port, "/v1/insights?user=pu0&plans=3")
        assert status == 200
        payload = json.loads(body)
        q4 = payload["insights"]["q4"]
        assert "alternatives" in q4
        alts = q4["alternatives"]
        assert [a["rank"] for a in alts] == list(range(len(alts)))
        assert alts[0]["min_dist"] is None
        assert set(alts[0]) == {"rank", "quality", "min_dist", "plan"}
        # plan-set metadata never leaks into the row answer itself
        assert not set(q4["answer"]) & {
            "id", "plan_rank", "plan_quality", "plan_min_dist"
        }

    def test_plans_k_question_endpoint(self, served):
        status, body = http_get(served.port, "/v1/q/q4?user=pu0&plans=2")
        assert status == 200
        insight = json.loads(body)
        assert len(insight.get("alternatives", [])) >= 1

    def test_invalid_plans_is_400(self, served):
        for bad in ("0", "-2", "x"):
            status, body = http_get(
                served.port, f"/v1/insights?user=pu0&plans={bad}"
            )
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad_request"

    def test_plans_responses_cached_and_revalidated(self, served, populated):
        """``?plans=k`` rides the fingerprint-validated cache: repeat
        requests hit, and a fingerprint flip forces a re-render whose
        insight content (same candidates) is unchanged — only the
        served ledger moves."""
        path = "/v1/q/q4?user=pu2&plans=3"
        status, first = http_get(served.port, path)
        assert status == 200
        hits_before = served.cache.stats.hits
        status, second = http_get(served.port, path)
        assert status == 200
        assert second == first
        assert served.cache.stats.hits == hits_before + 1
        # rewrite a NON-anchor cell with its own candidates under a new
        # fingerprint: answer content identical (the anchor cell — whose
        # model_fp is part of the answer row — is untouched), but the
        # ledger and the cache's fingerprint vector move
        store = populated.store
        anchor = int(json.loads(first)["answer"]["time"])
        ledger = store.cell_fingerprints("pu2")
        other = next(
            t for t in sorted(ledger)
            if t != anchor and store.load_candidates("pu2", time=t)
        )
        cells = store.load_candidates("pu2", time=other)
        store.upsert_cells(
            [("pu2", other, cells)], fingerprints={other: "flip"}
        )
        stale_before = served.cache.stats.stale
        status, third = http_get(served.port, path)
        assert status == 200
        assert served.cache.stats.stale >= stale_before + 1
        was, now = json.loads(first), json.loads(third)
        assert now["ledger"] != was["ledger"]
        was.pop("ledger"), now.pop("ledger")
        assert now == was  # candidates unchanged → same answer bytes


class TestQueryPlansCLI:
    def _args(self, populated, extra):
        from repro.app.cli import make_parser

        db = str(populated.store.backend.path)
        return make_parser().parse_args(
            ["--db", db, "query", "--user", "pu0", *extra]
        )

    def test_plans_default_byte_identical(self, populated):
        from repro.app.cli import run_query

        plain, explicit = io.StringIO(), io.StringIO()
        assert run_query(self._args(populated, ["--json"]), plain) == 0
        assert (
            run_query(
                self._args(populated, ["--json", "--plans", "1"]), explicit
            )
            == 0
        )
        assert plain.getvalue() == explicit.getvalue()
        assert "alternatives" not in plain.getvalue()

    def test_plans_k_json_has_alternatives(self, populated):
        from repro.app.cli import run_query

        out = io.StringIO()
        assert (
            run_query(self._args(populated, ["--json", "--plans", "3"]), out)
            == 0
        )
        payload = json.loads(out.getvalue())
        assert "alternatives" in payload["insights"]["q4"]

    def test_plans_k_text_lists_alternatives(self, populated):
        from repro.app.cli import run_query

        out = io.StringIO()
        assert run_query(self._args(populated, ["--plans", "2"]), out) == 0
        assert "Alternative plans" in out.getvalue()

    def test_plans_zero_rejected(self, populated):
        from repro.app.cli import run_query

        out = io.StringIO()
        assert run_query(self._args(populated, ["--plans", "0"]), out) == 2
        assert "--plans" in out.getvalue()
