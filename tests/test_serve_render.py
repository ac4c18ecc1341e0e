"""One pass per render: the work a read miss does, pinned.

A render reads the user's ledger twice (before and after, the snapshot
check), every temporal input in one statement, and each question's
answer in one statement — Q3 included, whose covered times and best
row per covered time come from one statement over all time points.  A
plan set is read once per answering cell, a candidate row becomes one
:class:`~repro.core.plans.Plan` however many questions return it, and
a plan's text is rendered once.  The statement counts below are what
the serving tier runs per request kind; a per-time-point query loop
coming back shows up here first.
"""

import http.client
import json

import numpy as np
import pytest

from repro.app.cli import build_system
from repro.core import Candidate, CandidateMetrics
from repro.core.insights import InsightEngine
from repro.data import john_profile
from repro.db import CandidateStore, prepared_for
from repro.serve import InsightServer, ReplicaStoreView
from repro.serve.cache import InsightCache

#: the Q3 plan-row query of one time point that one Q3 statement
#: replaced: the row it returns is the one Q3 must still plan with
PER_TIME_Q3_ROW = """
    SELECT c.* FROM candidates c
    INNER JOIN temporal_inputs ti
        ON ti.user_id = c.user_id AND ti.time = c.time
    WHERE c.user_id = ? AND c.time = ?
      AND (c.gap = 0 OR (c.gap = 1 AND c.{feature} != ti.{feature}))
    ORDER BY c.diff LIMIT 1
"""

INPUTS_READ = "SELECT * FROM temporal_inputs"


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def cand(x, time, diff, gap, p):
    return Candidate(
        np.asarray(x, dtype=float),
        time,
        CandidateMetrics(diff=diff, gap=gap, confidence=p),
    )


@pytest.fixture(scope="module")
def john_server(tmp_path_factory):
    """John's quickstart on a file-backed sharded store, served with
    the cache off so that every request renders."""
    db = tmp_path_factory.mktemp("render") / "john.db"
    system = build_system(n_per_year=60, db=str(db), db_backend="sharded")
    system.create_session(
        "john",
        john_profile(),
        user_constraints=["annual_income <= base_annual_income * 1.2"],
    )
    server = InsightServer(
        system.store, system.time_values, cache_enabled=False, access_log=False
    )
    server.start_background()
    yield system, server
    server.stop_background()
    system.store.close()


@pytest.fixture()
def statements(monkeypatch):
    """Every SQL statement a replica view runs, in order."""
    seen = []
    real = ReplicaStoreView.read

    def read(self, query, params=()):
        seen.append(query)
        return real(self, query, params)

    monkeypatch.setattr(ReplicaStoreView, "read", read)
    return seen


class TestStatementsPerRender:
    # two ledger reads, the inputs, Q1–Q6: nine statements; a budget
    # adds Q7; plans=3 adds one plan-set read per distinct answering
    # cell (John's Q2, Q4 and Q6 answer at t = 4 and Q5 at t = 1, while
    # Q1 and Q3 on the default feature answer nowhere: two cells, where
    # a read per question would make four); /q/q6 is the two ledger
    # reads and Q6
    @pytest.mark.parametrize(
        "target, count",
        [
            ("/v1/insights?user=john", 9),
            ("/v1/insights?user=john&budget=2.0", 10),
            ("/v1/insights?user=john&plans=3", 11),
            ("/v1/q/q6?user=john&alpha=0.4321", 3),
        ],
    )
    def test_statement_count(self, john_server, statements, target, count):
        _, server = john_server
        status, body = http_get(server.port, target)
        assert status == 200, body
        assert len(statements) == count, statements

    def test_plan_set_cells_are_the_distinct_answering_times(
        self, john_server, statements
    ):
        _, server = john_server
        _, body = http_get(server.port, "/v1/insights?user=john&plans=3")
        insights = json.loads(body)["insights"]
        cells = {
            alt["plan"]["time"]
            for insight in insights.values()
            for alt in insight.get("alternatives", ())[:1]
        }
        plan_sets = [q for q in statements if "plan_rank >= 0" in q]
        assert len(plan_sets) == len(cells) == 2

    def test_plan_set_bundle_reads_temporal_inputs_once(
        self, john_server, statements
    ):
        _, server = john_server
        status, _ = http_get(server.port, "/v1/insights?user=john&plans=3")
        assert status == 200
        inputs = [q for q in statements if q.startswith(INPUTS_READ)]
        assert len(inputs) == 1
        assert not any("AND time = ?" in q for q in inputs)

    def test_ledger_read_is_the_fingerprint_vector(self, john_server):
        system, server = john_server
        with server.pool.view("john") as view:
            ledger = view.cell_fingerprints("john")
        assert ledger == system.store.cell_fingerprints("john")
        assert tuple(ledger.items()) == InsightCache.fingerprint_vector(ledger)


class TestOnePlanPerRow:
    def test_a_row_several_answers_return_is_one_plan(self, john_session):
        engine = john_session.engine
        q2, q4, q5 = (engine.ask(qid, plans=5) for qid in ("q2", "q4", "q5"))
        # John's fewest-features and least-effort answers are one row,
        # and each answer's row is also a member of its cell's plan set
        assert q2.answer["id"] == q4.answer["id"]
        assert q4.plans[0] is q2.plans[0]
        for insight in (q2, q4, q5):
            assert any(alt.plan is insight.plans[0] for alt in insight.alternatives)

    def test_plan_sets_read_once_per_cell(self, john_session):
        engine = john_session.engine
        first = engine.ask("q4", plans=3).alternatives
        again = engine.ask("q4", plans=3).alternatives
        assert first and first is again
        assert engine.ask("q4", plans=2).alternatives != first

    def test_plan_text_is_rendered_once(self, john_session):
        plan = john_session.engine.ask("q4").plans[0]
        assert plan.describe() is plan.describe()

    def test_each_session_engine_is_fresh(self, john_session):
        assert john_session.engine is not john_session.engine


def ties_store(schema, john, path=":memory:", backend="memory"):
    """User ``u`` over t = 0..3: Q3 on ``monthly_debt`` covers t = 0, 2
    and 3 (t = 1 holds only a two-feature change), and t = 2 holds two
    qualifying rows of equal diff written in turn."""
    store = CandidateStore(schema, path, backend=backend)
    debt = schema.index_of("monthly_debt")
    income = schema.index_of("annual_income")
    trajectory = np.vstack([john + t for t in range(4)])
    fps = {t: f"fp-{t}" for t in range(4)}
    store.store_temporal_inputs("u", trajectory, fingerprints=fps)

    def debt_cut(t, amount):
        x = trajectory[t].copy()
        x[debt] -= amount
        return x

    two = trajectory[1].copy()
    two[debt] -= 400
    two[income] += 4_000
    store.store_candidates(
        "u",
        [
            cand(debt_cut(3, 300), 3, diff=0.7, gap=1, p=0.81),
            cand(debt_cut(0, 900), 0, diff=1.5, gap=1, p=0.70),
            cand(debt_cut(0, 200), 0, diff=0.4, gap=1, p=0.62),
            cand(two, 1, diff=0.3, gap=2, p=0.90),
            cand(debt_cut(2, 600), 2, diff=0.9, gap=1, p=0.88),
            cand(debt_cut(2, 650), 2, diff=0.9, gap=1, p=0.89),
            cand(trajectory[3], 3, diff=0.0, gap=0, p=0.55),
        ],
        fingerprints=fps,
    )
    return store


@pytest.fixture(params=["memory", "sharded"])
def ties(request, schema, john, tmp_path):
    path = ":memory:" if request.param == "memory" else tmp_path / "ties.db"
    store = ties_store(schema, john, path, backend=request.param)
    yield store
    store.close()


class TestQ3OneStatement:
    def per_time_row(self, store, t):
        rows = store.read(PER_TIME_Q3_ROW.format(feature="monthly_debt"), ("u", t))
        return rows[0] if rows else None

    def test_covered_times_and_rows_match_the_per_time_query(self, ties):
        rows = prepared_for(ties.schema.names).q3(ties.read, "u", "monthly_debt")
        assert [row["time"] for row in rows] == [0, 2, 3]
        for row in rows:
            assert row["id"] == self.per_time_row(ties, row["time"])["id"]
        assert self.per_time_row(ties, 1) is None

    def test_equal_diff_goes_to_the_row_the_per_time_query_returns(self, ties):
        """Two single-feature rows of equal diff at t = 2: the parent's
        ``ORDER BY c.diff LIMIT 1`` returns the earlier-written one,
        and so does ``ORDER BY c.diff, c.id``."""
        tied = ties.read(
            "SELECT id, monthly_debt FROM candidates"
            " WHERE user_id = 'u' AND time = 2 ORDER BY id"
        )
        assert len(tied) == 2
        oracle = self.per_time_row(ties, 2)
        assert oracle["id"] == tied[0]["id"]
        plans = InsightEngine(ties, "u", [2024.0 + t for t in range(4)]).ask(
            "q3", feature="monthly_debt"
        ).plans
        at_two = [plan for plan in plans if plan.time == 2]
        assert len(at_two) == 1
        assert at_two[0].changes[0].to_value == tied[0]["monthly_debt"]

    def test_one_plan_per_covered_time_in_time_order(self, ties):
        engine = InsightEngine(ties, "u", [2024.0 + t for t in range(4)])
        insight = engine.ask("q3", feature="monthly_debt")
        assert insight.answer == {
            "times": [0, 2, 3],
            "all_times": [0, 1, 2, 3],
            "dominant": False,
        }
        assert [plan.time for plan in insight.plans] == [0, 2, 3]
        # the cheapest qualifying row per time point: t=0's 0.4 over
        # 1.5, t=3's unchanged input (diff 0) over a debt cut
        assert [plan.diff for plan in insight.plans] == [0.4, 0.9, 0.0]
        assert insight.plans[2].changes == ()


def test_served_q3_plans_the_same_rows(schema, john, tmp_path):
    store = ties_store(schema, john, tmp_path / "ties.db", backend="sharded")
    time_values = [2024.0 + t for t in range(4)]
    direct = InsightEngine(store, "u", time_values).ask(
        "q3", feature="monthly_debt"
    )
    server = InsightServer(store, time_values, access_log=False)
    server.start_background()
    try:
        status, body = http_get(server.port, "/v1/q/q3?user=u&feature=monthly_debt")
    finally:
        server.stop_background()
        store.close()
    assert status == 200
    served = json.loads(body)
    assert served["text"] == direct.text
    assert [plan["time"] for plan in served["plans"]] == [0, 2, 3]
