"""HTTP serving tier: endpoints, byte-identity, errors, lifecycle.

The load-bearing assertion is *identity*: the HTTP bundle must be
byte-for-byte what the direct InsightEngine-over-the-store path
serializes to, cache on or off, cold or warm — the serving tier is an
optimisation, never a different answer.  Also covers the orchestrator's
``on_cells_refreshed`` hook feeding the cache's eager invalidation.
"""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.core import Candidate, CandidateMetrics
from repro.core.insights import InsightEngine
from repro.db import CandidateStore
from repro.serve import (
    InsightServer,
    ServeError,
    bundle_payload,
    dumps,
    insight_payload,
)

TIME_VALUES = [2024.0, 2025.0, 2026.0, 2027.0]
USERS = ["u1", "u2"]


def cand(x, time, diff, gap, p):
    return Candidate(
        np.asarray(x, dtype=float),
        time,
        CandidateMetrics(diff=diff, gap=gap, confidence=p),
    )


def fill_user(store, user, base):
    debt = store.schema.index_of("monthly_debt")
    income = store.schema.index_of("annual_income")
    trajectory = np.vstack([base] * 4)
    fps = {t: f"fp-{user}-{t}" for t in range(4)}
    store.store_temporal_inputs(user, trajectory, fingerprints=fps)
    two = trajectory[0].copy()
    two[debt] -= 500
    two[income] += 5_000
    one = trajectory[2].copy()
    one[debt] -= 800
    store.store_candidates(
        user,
        [
            cand(two, 0, diff=2.0, gap=2, p=0.60),
            cand(trajectory[1], 1, diff=0.0, gap=0, p=0.55),
            cand(one, 2, diff=1.0, gap=1, p=0.90),
        ],
        fingerprints=fps,
    )


def default_feature(schema):
    return schema.names[int(schema.mutable_indices()[0])]


def direct_bundle(store, user, *, alpha=0.8, budget=None, time_values=TIME_VALUES):
    feature = default_feature(store.schema)
    engine = InsightEngine(store, user, time_values)
    params = {"q3": {"feature": feature}, "q6": {"alpha": alpha}}
    qids = ["q1", "q2", "q3", "q4", "q5", "q6"]
    if budget is not None:
        params["q7"] = {"budget": budget}
        qids.append("q7")
    insights = {qid: engine.ask(qid, **params.get(qid, {})) for qid in qids}
    return dumps(bundle_payload(user, insights, store.cell_fingerprints(user)))


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def http_get_full(port, path):
    """(status, body, headers) — for the Deprecation-header assertions."""
    conn = http.client.HTTPConnection("127.0.0.1", port)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode(), dict(resp.getheaders())
    finally:
        conn.close()


@pytest.fixture()
def served(schema, john, tmp_path):
    store = CandidateStore(
        schema, tmp_path / "serve.db", backend="sharded", n_shards=2
    )
    for user in USERS:
        fill_user(store, user, john)
    server = InsightServer(
        store, TIME_VALUES, replicas_per_schema=2, executor_threads=4
    )
    server.start_background()
    yield server, store
    server.stop_background()
    store.close()


class TestEndpoints:
    def test_healthz(self, served):
        server, _ = served
        assert http_get(server.port, "/healthz") == (200, '{"status":"ok"}')

    def test_stats_shape(self, served):
        server, _ = served
        status, body = http_get(server.port, "/stats")
        assert status == 200
        stats = json.loads(body)
        assert set(stats) >= {
            "requests", "cache", "cache_enabled", "cache_entries", "pool"
        }
        assert stats["cache_enabled"] is True

    def test_bundle_is_byte_identical_to_direct(self, served):
        server, store = served
        for user in USERS:
            expected = direct_bundle(store, user)
            for _ in range(2):  # cold (render) and warm (cache hit)
                assert http_get(server.port, f"/insights?user={user}") == (
                    200, expected
                )
        assert server.cache.stats.hits >= len(USERS)

    def test_bundle_with_budget_includes_q7(self, served):
        server, store = served
        expected = direct_bundle(store, "u1", budget=2.5)
        status, body = http_get(server.port, "/insights?user=u1&budget=2.5")
        assert (status, body) == (200, expected)
        assert "q7" in json.loads(body)["insights"]

    def test_single_question_endpoints(self, served):
        server, store = served
        engine = InsightEngine(store, "u1", TIME_VALUES)
        feature = default_feature(store.schema)
        params = {"q3": {"feature": feature}, "q6": {"alpha": 0.8},
                  "q7": {"budget": 1.0}}
        for qid in ("q1", "q2", "q3", "q4", "q5", "q6", "q7"):
            status, body = http_get(server.port, f"/q/{qid}?user=u1")
            assert status == 200, body
            payload = json.loads(body)
            expected = insight_payload(engine.ask(qid, **params.get(qid, {})))
            assert payload["question"] == qid
            assert payload["answer"] == json.loads(dumps(expected))["answer"]
            assert payload["user"] == "u1"
            assert payload["ledger"] == {
                str(t): fp
                for t, fp in store.cell_fingerprints("u1").items()
            }

    def test_keep_alive_connection_reuse(self, served):
        server, store = served
        expected = direct_bundle(store, "u1")
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            for _ in range(3):
                conn.request("GET", "/insights?user=u1")
                resp = conn.getresponse()
                assert (resp.status, resp.read().decode()) == (200, expected)
        finally:
            conn.close()


class TestErrors:
    """Errors use the JSON envelope ``{"error": {"code", "message"}}``
    on both the versioned and the deprecated bare surfaces."""

    def test_missing_user_param(self, served):
        server, _ = served
        for path in ("/insights", "/v1/insights"):
            status, body = http_get(server.port, path)
            assert status == 400
            envelope = json.loads(body)["error"]
            assert envelope["code"] == "bad_request"
            assert "user" in envelope["message"]

    def test_unknown_user_404(self, served):
        server, _ = served
        for path in ("/insights?user=ghost", "/q/q1?user=ghost",
                     "/v1/insights?user=ghost", "/v1/q/q1?user=ghost"):
            status, body = http_get(server.port, path)
            assert status == 404, body
            envelope = json.loads(body)["error"]
            assert envelope["code"] == "not_found"
            assert "ghost" in envelope["message"]

    def test_unknown_question_404(self, served):
        server, _ = served
        status, body = http_get(server.port, "/v1/q/q9?user=u1")
        assert status == 404
        envelope = json.loads(body)["error"]
        assert envelope["code"] == "not_found"
        assert "q9" in envelope["message"]

    def test_bad_numeric_param_400(self, served):
        server, _ = served
        status, body = http_get(server.port, "/insights?user=u1&alpha=high")
        assert status == 400
        envelope = json.loads(body)["error"]
        assert envelope["code"] == "bad_request"
        assert "alpha" in envelope["message"]

    def test_unknown_path_404(self, served):
        server, _ = served
        for path in ("/nope", "/v1/nope"):
            status, body = http_get(server.port, path)
            assert status == 404
            assert json.loads(body)["error"]["code"] == "not_found"

    def test_non_get_405(self, served):
        server, _ = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request("POST", "/v1/insights?user=u1", body="{}")
            resp = conn.getresponse()
            assert resp.status == 405
            envelope = json.loads(resp.read().decode())["error"]
            assert envelope["code"] == "method_not_allowed"
        finally:
            conn.close()

    def test_serve_error_carries_status(self):
        error = ServeError(404, "nope")
        assert error.status == 404
        assert error.code == "not_found"
        assert str(error) == "nope"

    def test_serve_error_explicit_code(self):
        assert ServeError(400, "x", code="custom").code == "custom"


class TestVersionedAPI:
    """``/v1/`` is the canonical surface; bare paths are deprecated
    aliases serving byte-identical bodies plus a ``Deprecation`` header."""

    def test_v1_bundle_byte_identical_to_bare(self, served):
        server, store = served
        for user in USERS:
            expected = direct_bundle(store, user)
            bare = http_get(server.port, f"/insights?user={user}")
            v1 = http_get(server.port, f"/v1/insights?user={user}")
            assert bare == (200, expected)
            assert v1 == (200, expected)

    def test_v1_questions_byte_identical_to_bare(self, served):
        server, _ = served
        for qid in ("q1", "q3", "q6"):
            bare = http_get(server.port, f"/q/{qid}?user=u1")
            v1 = http_get(server.port, f"/v1/q/{qid}?user=u1")
            assert bare == v1
            assert bare[0] == 200

    def test_v1_healthz_and_stats(self, served):
        server, _ = served
        assert http_get(server.port, "/v1/healthz") == (200, '{"status":"ok"}')
        status, body = http_get(server.port, "/v1/stats")
        assert status == 200
        assert set(json.loads(body)) >= {"requests", "cache", "access"}

    def test_bare_paths_emit_deprecation_header(self, served):
        server, _ = served
        for path in ("/healthz", "/insights?user=u1", "/q/q1?user=u1",
                     "/insights?user=ghost"):
            _, _, headers = http_get_full(server.port, path)
            assert headers.get("Deprecation") == "true", path

    def test_v1_paths_do_not_emit_deprecation_header(self, served):
        server, _ = served
        for path in ("/v1/healthz", "/v1/insights?user=u1",
                     "/v1/insights?user=ghost"):
            _, _, headers = http_get_full(server.port, path)
            assert "Deprecation" not in headers, path


class TestFreshnessMeta:
    def test_freshness_off_by_default_and_opt_in(self, served):
        server, store = served
        plain = http_get(server.port, "/v1/insights?user=u1")
        assert plain == (200, direct_bundle(store, "u1"))
        assert "meta" not in json.loads(plain[1])
        status, body = http_get(server.port, "/v1/insights?user=u1&freshness=1")
        assert status == 200
        payload = json.loads(body)
        # the fixture stores rows without a refresh pass, so cells carry
        # no refreshed_at stamp yet → no meta block even when asked
        if "meta" in payload:
            assert payload["meta"]["freshness"] >= 0.0
        without_meta = dict(payload)
        without_meta.pop("meta", None)
        assert dumps(without_meta) == plain[1]

    def test_freshness_reports_age_after_stamp(self, served):
        import time as _time

        server, store = served
        stamp = _time.time() - 30.0
        for conn, prefix in {(store.backend.conn, db)
                             for db in store.backend.schemas()}:
            conn.execute(f"UPDATE {prefix}.temporal_inputs SET refreshed_at = ?",
                         (stamp,))
            conn.commit()
        status, body = http_get(server.port, "/v1/insights?user=u1&freshness=1")
        assert status == 200
        meta = json.loads(body)["meta"]
        assert 25.0 <= meta["freshness"] <= 300.0

    def test_freshness_responses_bypass_cache(self, served):
        server, _ = served
        before = len(server.cache)
        for _ in range(2):
            status, _ = http_get(
                server.port, "/v1/insights?user=u2&freshness=1"
            )
            assert status == 200
        assert len(server.cache) == before


class TestAccessLog:
    def test_served_requests_land_in_access_log(self, served):
        server, store = served
        n = 40  # crosses the flush batch size (32)
        for _ in range(n):
            assert http_get(server.port, "/v1/insights?user=u1")[0] == 200
        deadline = __import__("time").time() + 10
        while __import__("time").time() < deadline:
            if server.accesses_recorded >= 32:
                break
            __import__("time").sleep(0.05)
        assert server.accesses_recorded >= 32
        assert server.accesses_dropped == 0
        rows = store._read("SELECT user_id, question FROM access_log")
        assert len(rows) >= 32
        assert {(r["user_id"], r["question"]) for r in rows} == {("u1", "bundle")}

    def test_access_log_disabled(self, schema, john):
        store = CandidateStore(schema)  # :memory:
        fill_user(store, "u1", john)
        server = InsightServer(store, TIME_VALUES, access_log=False)
        server.start_background()
        try:
            for _ in range(40):
                assert http_get(server.port, "/v1/q/q1?user=u1")[0] == 200
            assert server.accesses_recorded == 0
            assert store._read("SELECT COUNT(*) AS n FROM access_log")[0]["n"] == 0
        finally:
            server.stop_background()
            store.close()

    def test_stop_flushes_partial_batch(self, schema, john):
        store = CandidateStore(schema)  # :memory:
        fill_user(store, "u1", john)
        server = InsightServer(store, TIME_VALUES)
        server.start_background()
        try:
            for _ in range(5):  # below the batch size: buffered only
                assert http_get(server.port, "/v1/q/q2?user=u1")[0] == 200
        finally:
            server.stop_background()
        assert server.accesses_recorded == 5
        assert store._read("SELECT COUNT(*) AS n FROM access_log")[0]["n"] == 5
        store.close()


class TestCacheModes:
    def test_disabled_cache_still_identical(self, schema, john, tmp_path):
        store = CandidateStore(schema, tmp_path / "nc.db", backend="sqlite")
        fill_user(store, "u1", john)
        server = InsightServer(store, TIME_VALUES, cache_enabled=False)
        server.start_background()
        try:
            expected = direct_bundle(store, "u1")
            for _ in range(2):
                assert http_get(server.port, "/insights?user=u1") == (
                    200, expected
                )
            assert server.cache.stats.hits == 0
            assert len(server.cache) == 0
        finally:
            server.stop_background()
            store.close()

    def test_memory_backend_serves_without_replicas(self, schema, john):
        store = CandidateStore(schema)  # :memory:
        fill_user(store, "u1", john)
        server = InsightServer(store, TIME_VALUES)
        server.start_background()
        try:
            expected = direct_bundle(store, "u1")
            for _ in range(2):
                assert http_get(server.port, "/insights?user=u1") == (
                    200, expected
                )
        finally:
            server.stop_background()
            store.close()


class TestOrchestratorCacheHook:
    def test_epoch_reports_recomputed_cells_to_the_hook(
        self, schema, tmp_path
    ):
        """A drained epoch fires ``on_cells_refreshed`` with exactly the
        rewritten cells, and wiring it to the cache's eager invalidation
        drops the touched users' entries."""
        from repro.constraints import lending_domain_constraints
        from repro.core import (
            AdminConfig,
            JustInTime,
            RefreshOrchestrator,
            save_system,
        )
        from repro.data import (
            IteratorFeed,
            LendingGenerator,
            TemporalDataset,
            john_profile,
            make_lending_dataset,
        )
        from repro.serve import InsightCache
        from repro.temporal import PerPeriodStrategy, lending_update_function

        history = make_lending_dataset(n_per_year=60, random_state=1)
        system = JustInTime(
            schema,
            lending_update_function(schema),
            AdminConfig(
                T=2, strategy=PerPeriodStrategy(), k=4, max_iter=8,
                random_state=0,
            ),
            domain_constraints=lending_domain_constraints(schema),
            store_path=tmp_path / "cands.db",
            store_backend="sqlite",
        )
        system.fit(history)
        base = schema.vector(john_profile())
        users = [("h1", base), ("h2", schema.clip(base * 1.1))]
        system.create_sessions(users)
        save_system(system, tmp_path / "sys.pkl")

        cache = InsightCache(16)
        fps = ((0, "x"),)
        for user, _ in users:
            cache.put((user, "bundle", ()), fps, "cached")
        cache.put(("bystander", "bundle", ()), fps, "cached")
        seen = []

        def hook(cells):
            seen.append(tuple(cells))
            cache.invalidate_cells(cells)

        start = float(np.floor(history.span[0]))
        generator = LendingGenerator(random_state=99)
        X = generator.sample_profiles(40) * 3.0
        years = np.full(40, start + 1 + 0.5)
        batch = TemporalDataset(X, generator.label(X, years), years, schema)
        orchestrator = RefreshOrchestrator(
            system,
            IteratorFeed([batch]),
            system_path=tmp_path / "sys.pkl",
            db_path=tmp_path / "cands.db",
            n_workers=1,
            cadence=0.0,
            warm_start=False,
            checkpoint_digest=False,
            on_cells_refreshed=hook,
        )
        epochs = orchestrator.run(max_polls=2, poll_interval=0.0)
        assert len(epochs) == 1
        assert len(seen) == 1
        touched_users = {user for user, _time in seen[0]}
        assert touched_users == {"h1", "h2"}
        assert len(seen[0]) == epochs[0].report.cells_recomputed
        # the hook's invalidation dropped exactly the touched users —
        # and really dropped them (invalidated counts the evictions, so
        # a type-mismatch no-op would read 0 here)
        assert cache.stats.invalidated == 2
        assert cache.get(("h1", "bundle", ()), fps) is None
        assert cache.get(("h2", "bundle", ()), fps) is None
        assert cache.get(("bystander", "bundle", ()), fps) == "cached"
        system.store.close()


def _read_one_response(sock):
    """Read exactly one HTTP response (head + Content-Length body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        if not chunk:
            raise AssertionError("connection closed before a full response")
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    while len(body) < length:
        chunk = sock.recv(4096)
        if not chunk:
            raise AssertionError("connection closed mid-body")
        body += chunk
    return head, body[:length]


class TestKeepAliveSemantics:
    """Connection persistence is decided by the ``Connection`` header's
    token list and the HTTP version's default — never by a substring
    scan of the whole head (which matches inside unrelated headers and
    misses ``keep-alive, close`` lists)."""

    # ---- unit: the parser itself
    def test_http11_defaults_to_keep_alive(self):
        from repro.serve.server import _keep_alive

        assert _keep_alive("HTTP/1.1", "Host: x") is True

    def test_http10_defaults_to_close(self):
        from repro.serve.server import _keep_alive

        assert _keep_alive("HTTP/1.0", "Host: x") is False

    def test_http10_keep_alive_token_persists(self):
        from repro.serve.server import _keep_alive

        assert _keep_alive("HTTP/1.0", "Connection: keep-alive") is True

    def test_close_token_wins_in_a_token_list(self):
        from repro.serve.server import _keep_alive

        assert _keep_alive("HTTP/1.1", "Connection: keep-alive, close") is False

    def test_tokens_are_case_insensitive(self):
        from repro.serve.server import _keep_alive

        assert _keep_alive("HTTP/1.1", "connection: CLOSE") is False

    def test_substrings_in_other_headers_do_not_close(self):
        from repro.serve.server import _keep_alive

        # the regression: "close" appearing outside the Connection
        # header (or as part of a longer token) must not end the session
        assert _keep_alive("HTTP/1.1", "X-Note: please-close-the-loop") is True
        assert _keep_alive("HTTP/1.1", "Connection: closed-captioning") is True

    # ---- wire: the server actually honors the decision
    def test_http10_request_gets_connection_closed(self, served):
        server, _ = served
        with socket.create_connection(("127.0.0.1", server.port), 5) as s:
            s.settimeout(5)
            s.sendall(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
            head, body = _read_one_response(s)
            assert head.startswith(b"HTTP/1.1 200")
            assert body == b'{"status":"ok"}'
            assert s.recv(4096) == b""  # server closed, per HTTP/1.0

    def test_http10_with_keep_alive_token_persists(self, served):
        server, _ = served
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), 5) as s:
            s.settimeout(5)
            for _ in range(2):  # a second request proves persistence
                s.sendall(request)
                head, body = _read_one_response(s)
                assert head.startswith(b"HTTP/1.1 200")
                assert body == b'{"status":"ok"}'

    def test_http11_close_in_token_list_closes(self, served):
        server, _ = served
        with socket.create_connection(("127.0.0.1", server.port), 5) as s:
            s.settimeout(5)
            s.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: keep-alive, close\r\n\r\n"
            )
            _read_one_response(s)
            assert s.recv(4096) == b""


class TestAccessCounterConsistency:
    def test_concurrent_requests_count_exactly_once_each(self, schema, john):
        """8 client threads hammer the access-logged endpoint; the
        recorded/dropped counters (bumped from executor threads) must
        account for every request exactly once — no lost updates."""
        store = CandidateStore(schema)  # :memory:
        fill_user(store, "u1", john)
        server = InsightServer(store, TIME_VALUES, executor_threads=8)
        server.start_background()
        per_thread, n_threads = 15, 8
        failures = []

        def client():
            for _ in range(per_thread):
                status, _ = http_get(server.port, "/v1/q/q1?user=u1")
                if status != 200:
                    failures.append(status)

        threads = [threading.Thread(target=client) for _ in range(n_threads)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            server.stop_background()  # flushes the partial batch
        assert failures == []
        total = per_thread * n_threads
        assert server.accesses_recorded + server.accesses_dropped == total
        logged = store._read("SELECT COUNT(*) AS n FROM access_log")[0]["n"]
        assert logged == server.accesses_recorded
        store.close()


class TestOrchestratorEndpoint:
    def test_no_leader_yet(self, served):
        server, _ = served
        status, body = http_get(server.port, "/v1/orchestrator")
        assert status == 200
        payload = json.loads(body)
        assert payload["leader"] is None
        assert payload["metrics"] is None
        assert payload["metrics_updated_at"] is None
        assert payload["budget_remaining"] is None
        assert payload["now"] > 0
        assert "freshness" in payload

    def test_reflects_lease_and_published_metrics(self, served):
        server, store = served
        store.acquire_leader_lease("orch-1", ttl_seconds=60.0)
        store.set_orchestrator_metrics(
            {"node_id": "orch-1", "phase": "drain", "epochs_completed": 3}
        )
        status, body = http_get(server.port, "/v1/orchestrator")
        assert status == 200
        payload = json.loads(body)
        assert payload["leader"]["leader_id"] == "orch-1"
        assert payload["leader"]["epoch"] == 1
        assert payload["leader"]["expired"] is False
        assert 0.0 <= payload["leader"]["lease_age"] < 60.0
        assert payload["metrics"]["epochs_completed"] == 3
        assert payload["metrics_updated_at"] is not None

    def test_served_on_the_bare_surface_too(self, served):
        server, _ = served
        status, _, headers = http_get_full(server.port, "/orchestrator")
        assert status == 200
        assert "Deprecation" in headers


class TestFreshnessClockSkew:
    def test_server_freshness_immune_to_host_clock_skew(
        self, served, monkeypatch
    ):
        """The regression: ages were ``time.time() - stamp`` on the
        *serving* host; a skewed host clock inflated (or negated) every
        age.  Post-fix the age is one SQL expression against the store's
        own clock, so poisoning the host clock must change nothing."""
        import time as _time

        server, store = served
        stamp = _time.time() - 30.0
        for conn, prefix in {(store.backend.conn, db)
                             for db in store.backend.schemas()}:
            conn.execute(
                f"UPDATE {prefix}.temporal_inputs SET refreshed_at = ?",
                (stamp,),
            )
            conn.commit()
        real = _time.time
        monkeypatch.setattr(_time, "time", lambda: real() + 7200.0)
        status, body = http_get(server.port, "/v1/insights?user=u1&freshness=1")
        assert status == 200
        meta = json.loads(body)["meta"]
        # ~30s, NOT ~7230s: the skewed host clock was never consulted
        assert 25.0 <= meta["freshness"] <= 300.0

    def test_cli_freshness_helper_uses_the_store_clock(
        self, served, monkeypatch
    ):
        """``query --freshness`` shares the fix: same store-clock query,
        same immunity to a skewed CLI host."""
        import time as _time

        from repro.serve import bundle_freshness_seconds

        _, store = served
        stamp = _time.time() - 30.0
        for conn, prefix in {(store.backend.conn, db)
                             for db in store.backend.schemas()}:
            conn.execute(
                f"UPDATE {prefix}.temporal_inputs SET refreshed_at = ?",
                (stamp,),
            )
            conn.commit()
        real = _time.time
        monkeypatch.setattr(_time, "time", lambda: real() - 7200.0)
        age = bundle_freshness_seconds(store, "u1")
        assert age is not None
        # a host clock 2h *behind* would have produced a negative age
        assert 25.0 <= age <= 300.0
