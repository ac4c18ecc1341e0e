"""Tests for the CLI frontend and text rendering."""

import io

import pytest

from repro.app import (
    build_system,
    insight_block,
    profile_table,
    run_demo,
    run_interactive,
    run_quickstart,
    screen_header,
    table,
)
from repro.app.cli import make_parser


class TestRender:
    def test_screen_header_boxed(self):
        out = screen_header("Queries")
        lines = out.splitlines()
        assert len(lines) == 3
        assert "Queries" in lines[1]
        assert lines[0].startswith("+") and lines[0].endswith("+")

    def test_table_alignment(self):
        out = table(("a", "bb"), [(1, 2.5), (30, 4)])
        lines = out.splitlines()
        assert len(lines) == 4
        # all rows same width
        assert len({len(line) for line in lines}) == 1

    def test_table_formats_floats(self):
        out = table(("x",), [(1234.5678,)])
        assert "1,234.568" in out

    def test_table_formats_int_like_floats(self):
        out = table(("x",), [(50_000.0,)])
        assert "50,000" in out

    def test_profile_table_lists_features(self, schema, john):
        out = profile_table(schema, john)
        for name in schema.names:
            assert name in out

    def test_insight_block(self, john_session):
        insight = john_session.ask("q1")
        out = insight_block(insight)
        assert insight.title in out
        assert insight.text in out


class TestParser:
    def test_subcommands(self):
        parser = make_parser()
        args = parser.parse_args(["--horizon", "2", "demo"])
        assert args.command == "demo"
        assert args.horizon == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["--strategy", "magic", "demo"])

    def test_shared_runtime_flags_on_every_refresh_verb(self):
        """The argparse parents land --budget/--cold on each verb of the
        refresh family without per-subparser re-declaration."""
        parser = make_parser()
        refresh = parser.parse_args(["refresh", "--budget", "5", "--cold"])
        assert refresh.budget == 5 and refresh.cold is True
        workers = parser.parse_args(["refresh-workers", "--budget", "7"])
        assert workers.budget == 7
        orch = parser.parse_args(
            ["refresh-orchestrator", "--feed", "f.csv", "--cadence", "1",
             "--budget", "4", "--sla-epochs", "2",
             "--priority-halflife", "60"]
        )
        assert orch.budget == 4
        assert orch.sla_epochs == 2
        assert orch.priority_halflife == 60.0
        assert orch.claim_batch == 2 and orch.lease_seconds == 30.0

    def test_engine_flag_is_gone(self, capsys):
        """One search path: no refresh verb takes ``--engine``."""
        for verb in (
            ["refresh"],
            ["refresh-workers"],
            ["refresh-orchestrator", "--feed", "f.csv"],
        ):
            with pytest.raises(SystemExit) as exc:
                make_parser().parse_args([*verb, "--engine", "fused"])
            assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_refresh_daemon_verb_is_gone(self, capsys):
        """One feed-tailing verb: ``refresh-orchestrator --workers 1``
        runs the loop the ``refresh-daemon`` verb ran."""
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(
                ["refresh-daemon", "--feed", "f.csv", "--cadence", "1"]
            )
        assert exc.value.code == 2
        assert "invalid choice: 'refresh-daemon'" in capsys.readouterr().err

    def test_budget_defaults_to_unlimited(self):
        args = make_parser().parse_args(["refresh"])
        assert args.budget is None

    def test_subparsers_do_not_clobber_root_db_flags(self):
        args = make_parser().parse_args(
            ["--db", "x.db", "--db-backend", "sharded", "refresh",
             "--budget", "2"]
        )
        assert args.db == "x.db" and args.db_backend == "sharded"

    def test_query_keeps_its_own_float_budget(self):
        """The query verb's --budget is the Q7 effort budget (a float),
        distinct from the refresh family's integer cell budget."""
        args = make_parser().parse_args(
            ["query", "--user", "u1", "--budget", "2.5", "--freshness"]
        )
        assert args.budget == 2.5
        assert args.freshness is True

    def test_serve_access_log_flag(self):
        args = make_parser().parse_args(["serve", "--no-access-log"])
        assert args.no_access_log is True
        assert make_parser().parse_args(["serve"]).no_access_log is False


class TestSubcommands:
    @pytest.fixture(scope="class")
    def args(self):
        return make_parser().parse_args(
            ["--n-per-year", "80", "--horizon", "2", "--alpha", "0.55", "quickstart"]
        )

    def test_quickstart_prints_insights(self, args):
        out = io.StringIO()
        assert run_quickstart(args, out) == 0
        text = out.getvalue()
        assert "JustInTime quickstart" in text
        assert "Plans and Insights" in text
        assert "rejected now" in text

    def test_demo_runs_five_applicants(self, args):
        out = io.StringIO()
        assert run_demo(args, out) == 0
        text = out.getvalue()
        for i in range(1, 6):
            assert f"applicant-{i}" in text
        assert "Personal Preferences" in text

    def test_interactive_scripted(self, args):
        # accept every default, add one constraint, run q1 only
        stdin = io.StringIO("\n" * 6 + "gap <= 2\n\nq1\n")
        out = io.StringIO()
        assert run_interactive(args, out, stdin) == 0
        text = out.getvalue()
        assert "Queries" in text
        assert "No modification" in text

    def test_interactive_handles_bad_input(self, args):
        lines = ["abc"] + [""] * 5 + ["", "q9,q1"]
        stdin = io.StringIO("\n".join(lines) + "\n")
        out = io.StringIO()
        assert run_interactive(args, out, stdin) == 0
        assert "unknown question" in out.getvalue()


class TestBuildSystem:
    def test_build_system_fitted(self):
        system = build_system(n_per_year=60, strategy="last", horizon=1, seed=0)
        assert system.future_models is not None
        assert len(system.future_models) == 2


class TestRebalanceVerb:
    def _populated_sharded(self, schema, john, db_path, n_shards=4):
        import numpy as np

        from repro.db import CandidateStore

        with CandidateStore(
            schema, db_path, backend="sharded", n_shards=n_shards
        ) as store:
            store.store_sessions(
                [
                    (f"u{i}", np.vstack([john, john + i]), [])
                    for i in range(10)
                ],
                fingerprints={0: "fp0", 1: "fp1"},
            )
            return store.contents_digest()

    def test_rebalance_verb_migrates_and_keeps_digest(
        self, schema, john, tmp_path
    ):
        from repro.app.cli import main
        from repro.db import CandidateStore, ShardedSQLiteBackend

        db = tmp_path / "cands.db"
        digest = self._populated_sharded(schema, john, db)
        out = io.StringIO()
        from repro.app.cli import run_rebalance

        args = make_parser().parse_args(
            ["--db", str(db), "rebalance", "--to-shards", "6"]
        )
        assert run_rebalance(args, out) == 0
        text = out.getvalue()
        assert "4 -> 6 shards" in text
        assert digest in text  # digest printed unchanged
        with CandidateStore(schema, db) as store:
            assert isinstance(store.backend, ShardedSQLiteBackend)
            assert store.backend.n_shards == 6
            assert store.contents_digest() == digest
        # and it is wired through main()
        assert main(["--db", str(db), "rebalance", "--to-shards", "2"]) == 0

    def test_rebalance_verb_requires_db(self):
        from repro.app.cli import run_rebalance

        args = make_parser().parse_args(["rebalance", "--to-shards", "2"])
        out = io.StringIO()
        assert run_rebalance(args, out) == 2
        assert "--db" in out.getvalue()

    def test_rebalance_verb_rejects_plain_store(self, schema, john, tmp_path):
        from repro.app.cli import run_rebalance
        from repro.db import CandidateStore

        db = tmp_path / "plain.db"
        with CandidateStore(schema, db) as store:
            store.store_temporal_inputs("u1", john.reshape(1, -1))
        args = make_parser().parse_args(
            ["--db", str(db), "rebalance", "--to-shards", "2"]
        )
        out = io.StringIO()
        assert run_rebalance(args, out) == 2
        assert "failed" in out.getvalue()


class TestQueryVerb:
    def _populated_db(self, schema, john, tmp_path):
        import numpy as np

        from repro.core import Candidate, CandidateMetrics
        from repro.db import CandidateStore

        db = tmp_path / "query.db"
        with CandidateStore(schema, db) as store:
            trajectory = np.vstack([john, john])
            store.store_temporal_inputs(
                "u1", trajectory, fingerprints={0: "fpa", 1: "fpb"}
            )
            store.store_candidates(
                "u1",
                [
                    Candidate(
                        trajectory[1], 1,
                        CandidateMetrics(diff=0.0, gap=0, confidence=0.7),
                    )
                ],
                fingerprints={0: "fpa", 1: "fpb"},
            )
        return db

    def test_json_mode_emits_canonical_bundle(self, schema, john, tmp_path):
        import json

        from repro.app.cli import run_query

        db = self._populated_db(schema, john, tmp_path)
        args = make_parser().parse_args(
            ["--db", str(db), "query", "--user", "u1", "--json"]
        )
        out = io.StringIO()
        assert run_query(args, out) == 0
        payload = json.loads(out.getvalue())
        assert payload["user"] == "u1"
        assert payload["ledger"] == {"0": "fpa", "1": "fpb"}
        assert set(payload["insights"]) == {"q1", "q2", "q3", "q4", "q5", "q6"}
        # canonical serialization: re-dumping is byte-identical
        from repro.serve import dumps

        assert out.getvalue().strip() == dumps(payload)

    def test_json_freshness_flag_adds_meta_without_perturbing_rest(
        self, schema, john, tmp_path
    ):
        import json
        import time

        from repro.app.cli import run_query
        from repro.db import CandidateStore

        def _stamp(value):
            with CandidateStore(schema, db) as store:
                conn, prefix = store._write_target("main")
                conn.execute(
                    f"UPDATE {prefix}.temporal_inputs SET refreshed_at = ?",
                    (value,),
                )
                conn.commit()

        db = self._populated_db(schema, john, tmp_path)
        base_args = ["--db", str(db), "query", "--user", "u1", "--json"]
        plain = io.StringIO()
        assert run_query(make_parser().parse_args(base_args), plain) == 0
        # unstamped rows (refreshed_at=0, the legacy migration value):
        # --freshness adds nothing
        _stamp(0.0)
        fresh = io.StringIO()
        assert run_query(
            make_parser().parse_args(base_args + ["--freshness"]), fresh
        ) == 0
        assert fresh.getvalue() == plain.getvalue()
        # stamp the cells; now --freshness adds meta and ONLY meta
        _stamp(time.time() - 10.0)
        stamped = io.StringIO()
        assert run_query(
            make_parser().parse_args(base_args + ["--freshness"]), stamped
        ) == 0
        payload = json.loads(stamped.getvalue())
        assert 5.0 <= payload["meta"]["freshness"] <= 300.0
        payload.pop("meta")
        from repro.serve import dumps

        assert dumps(payload) == plain.getvalue().strip()

    def test_json_matches_the_http_wire_format(self, schema, john, tmp_path):
        """CLI --json and the HTTP bundle are byte-identical for the
        same user and parameters (shared protocol module)."""
        import http.client
        import threading

        from repro.app.cli import run_query, run_serve

        db = self._populated_db(schema, john, tmp_path)
        args = make_parser().parse_args(
            ["--db", str(db), "query", "--user", "u1", "--json"]
        )
        out = io.StringIO()
        assert run_query(args, out) == 0
        cli_body = out.getvalue().strip()

        serve_args = make_parser().parse_args(
            ["--db", str(db), "serve", "--port", "0", "--max-requests", "1"]
        )
        serve_out = io.StringIO()
        thread = threading.Thread(
            target=run_serve, args=(serve_args, serve_out), daemon=True
        )
        thread.start()
        import re
        import time as _time

        port = None
        for _ in range(300):
            match = re.search(r"http://127\.0\.0\.1:(\d+)", serve_out.getvalue())
            if match:
                port = int(match.group(1))
                break
            _time.sleep(0.02)
        assert port, "serve verb never printed its URL"
        conn = http.client.HTTPConnection("127.0.0.1", port)
        # q6 via CLI uses the global --alpha default (0.55): match it
        conn.request("GET", "/insights?user=u1&alpha=0.55")
        resp = conn.getresponse()
        http_body = resp.read().decode()
        conn.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert resp.status == 200
        assert http_body == cli_body
        assert "served 1 requests" in serve_out.getvalue()

    def test_unknown_user_exit_2(self, schema, john, tmp_path):
        from repro.app.cli import run_query

        db = self._populated_db(schema, john, tmp_path)
        args = make_parser().parse_args(
            ["--db", str(db), "query", "--user", "ghost"]
        )
        out = io.StringIO()
        assert run_query(args, out) == 2
        assert "ghost" in out.getvalue()

    def test_unknown_question_exit_2(self, schema, john, tmp_path):
        from repro.app.cli import run_query

        db = self._populated_db(schema, john, tmp_path)
        args = make_parser().parse_args(
            ["--db", str(db), "query", "--user", "u1", "--questions", "q1,q9"]
        )
        out = io.StringIO()
        assert run_query(args, out) == 2
        assert "q9" in out.getvalue()

    def test_requires_db_or_load(self):
        from repro.app.cli import run_query

        args = make_parser().parse_args(["query", "--user", "u1"])
        out = io.StringIO()
        assert run_query(args, out) == 2
        assert "--db" in out.getvalue()

    def test_verbal_mode_renders_insight_blocks(self, schema, john, tmp_path):
        from repro.app.cli import run_query

        db = self._populated_db(schema, john, tmp_path)
        args = make_parser().parse_args(
            ["--db", str(db), "query", "--user", "u1", "--questions", "q1"]
        )
        out = io.StringIO()
        assert run_query(args, out) == 0
        text = out.getvalue()
        assert "Plans and Insights" in text
        assert "No modification" in text
