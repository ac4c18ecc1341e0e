"""Priority- and budget-aware refresh: the store-level contract.

The claim scan gained three coordinates — per-user priority scores
(folded from the serving tier's ``access_log``), SLA escalations, and a
durable per-epoch compute budget — and this suite pins their semantics
on every backend:

* with **no** priority state, claims come back in *exactly* the
  pre-priority ``(user, time)`` ledger order (the digest-identity
  suites depend on it);
* priority reorders users, escalation outranks priority, and the
  deterministic ``(user, time)`` tie-break survives both;
* the budget is enforced inside the claim transaction (concurrent
  workers can never jointly overspend it) and is durable across store
  instances;
* a mid-drain priority update reorders *later* claim rounds without
  starving or double-claiming any cell;
* the priority joins stay index-backed (``claim_query_plan``).

Backend-parametrised over sqlite / memory / sharded at 1, 2 and 4
shards, because priority ordering must hold across shard boundaries
(each shard's scan is merged in Python).
"""

import threading

import numpy as np
import pytest

from repro.db import CandidateStore
from repro.exceptions import StorageError

BACKENDS = ["sqlite", "memory", "sharded-1", "sharded-2", "sharded-4"]

USERS = ["u1", "u2", "u3", "u4"]
TIMES = [0, 1, 2]
FRESH = {t: f"new-{t}" for t in TIMES}


def open_store(spec, schema, tmp_path):
    if spec == "memory":
        return CandidateStore(schema, ":memory:")
    if spec == "sqlite":
        return CandidateStore(schema, tmp_path / "prio.db", backend="sqlite")
    n_shards = int(spec.rsplit("-", 1)[1])
    return CandidateStore(
        schema, tmp_path / "prio.db", backend="sharded", n_shards=n_shards
    )


def fill_stale(store, users=USERS, times=TIMES):
    """Every (user, time) cell stale vs FRESH (stored under old-*)."""
    width = len(store.schema.names)
    trajectory = np.arange(len(times) * width, dtype=float).reshape(
        len(times), width
    )
    for user in users:
        store.store_temporal_inputs(
            user, trajectory, fingerprints={t: f"old-{t}" for t in times}
        )


def ledger_order(users=USERS, times=TIMES):
    return [(u, t) for u in sorted(users) for t in times]


def mark_refreshed(store, worker, cells):
    """What a drain does to a claimed cell: stamp the fresh fingerprint
    (so it leaves the stale set) and release the lease."""
    for user, t in cells:
        conn, prefix = store.backend.conn, store._db_for(user)
        with conn:
            conn.execute(
                f"UPDATE {prefix}.temporal_inputs SET model_fp = ?"
                " WHERE user_id = ? AND time = ?",
                (FRESH[t], user, t),
            )
    store.release_cells(worker, cells)


@pytest.fixture(params=BACKENDS)
def store(request, schema, tmp_path):
    with open_store(request.param, schema, tmp_path) as s:
        yield s


class TestClaimOrdering:
    def test_no_priority_state_claims_in_ledger_order(self, store):
        """The zero-state claim order IS the pre-priority order — the
        invariant the digest-identity suites pin."""
        fill_stale(store)
        claimed = store.claim_stale_cells(FRESH, "w", limit=100)
        assert claimed == ledger_order()

    def test_equal_priority_scores_keep_ledger_order(self, store):
        """Explicit but *equal* scores must tie-break exactly like no
        scores at all."""
        fill_stale(store)
        store.set_user_priorities({u: 2.5 for u in USERS})
        claimed = store.claim_stale_cells(FRESH, "w", limit=100)
        assert claimed == ledger_order()

    def test_higher_priority_users_claim_first(self, store):
        fill_stale(store)
        store.set_user_priorities({"u3": 9.0, "u1": 5.0})
        claimed = store.claim_stale_cells(FRESH, "w", limit=100)
        expected = (
            [("u3", t) for t in TIMES]
            + [("u1", t) for t in TIMES]
            + [("u2", t) for t in TIMES]
            + [("u4", t) for t in TIMES]
        )
        assert claimed == expected

    def test_escalation_outranks_priority(self, store):
        fill_stale(store)
        store.set_user_priorities({"u1": 100.0})
        store.escalate_cells([("u4", 2), ("u4", 0)])
        claimed = store.claim_stale_cells(FRESH, "w", limit=100)
        assert claimed[:2] == [("u4", 0), ("u4", 2)]
        assert claimed[2:5] == [("u1", t) for t in TIMES]

    def test_clear_escalations(self, store):
        fill_stale(store)
        store.escalate_cells([("u4", 0), ("u2", 1)])
        assert store.clear_escalations([("u4", 0)]) == 1
        assert store.clear_escalations() == 1
        assert store.claim_stale_cells(FRESH, "w", limit=100) == ledger_order()

    def test_priority_only_reorders_users_not_times(self, store):
        """Within one user, cells still drain in time order."""
        fill_stale(store)
        store.set_user_priorities({"u2": 3.0})
        claimed = store.claim_stale_cells(FRESH, "w", limit=100)
        for user in USERS:
            times = [t for u, t in claimed if u == user]
            assert times == TIMES


class TestBudget:
    def test_budget_caps_claims_and_decrements(self, store):
        fill_stale(store)
        store.set_refresh_budget(4)
        first = store.claim_stale_cells(FRESH, "w", limit=100)
        assert len(first) == 4
        assert first == ledger_order()[:4]
        assert store.refresh_budget_remaining() == 0
        assert store.claim_stale_cells(FRESH, "w2", limit=100) == []

    def test_budget_spends_across_claim_rounds(self, store):
        fill_stale(store)
        store.set_refresh_budget(5)
        assert len(store.claim_stale_cells(FRESH, "w", limit=2)) == 2
        assert store.refresh_budget_remaining() == 3
        assert len(store.claim_stale_cells(FRESH, "w", limit=2)) == 2
        assert len(store.claim_stale_cells(FRESH, "w", limit=2)) == 1
        assert store.refresh_budget_remaining() == 0

    def test_no_budget_row_is_unlimited(self, store):
        fill_stale(store)
        assert store.refresh_budget_remaining() is None
        assert len(store.claim_stale_cells(FRESH, "w", limit=100)) == len(
            ledger_order()
        )

    def test_clearing_budget_restores_unlimited(self, store):
        fill_stale(store)
        store.set_refresh_budget(0)
        assert store.claim_stale_cells(FRESH, "w", limit=10) == []
        store.set_refresh_budget(None)
        assert store.refresh_budget_remaining() is None
        assert len(store.claim_stale_cells(FRESH, "w", limit=100)) == 12

    def test_budget_spends_highest_priority_first(self, store):
        """Under a constrained budget the spent cells are the
        highest-priority users' — the point of the whole subsystem."""
        fill_stale(store)
        store.set_user_priorities({"u4": 7.0, "u2": 3.0})
        store.set_refresh_budget(6)
        claimed = store.claim_stale_cells(FRESH, "w", limit=100)
        assert claimed == [("u4", t) for t in TIMES] + [
            ("u2", t) for t in TIMES
        ]

    def test_budget_is_durable_across_instances(self, schema, tmp_path):
        with open_store("sharded-2", schema, tmp_path) as store:
            fill_stale(store)
            store.set_refresh_budget(3)
            assert len(store.claim_stale_cells(FRESH, "a", limit=2)) == 2
        with open_store("sharded-2", schema, tmp_path) as store:
            assert store.refresh_budget_remaining() == 1
            assert len(store.claim_stale_cells(FRESH, "b", limit=5)) == 1
            assert store.refresh_budget_remaining() == 0

    def test_concurrent_workers_never_jointly_overspend(
        self, schema, tmp_path
    ):
        """N workers hammering one file-backed store spend exactly the
        budget between them — the decrement rides the claim's BEGIN
        IMMEDIATE."""
        with open_store("sqlite", schema, tmp_path) as setup:
            fill_stale(setup, users=[f"c{i}" for i in range(8)])
            setup.set_refresh_budget(10)
        results: dict[str, list] = {}
        errors: list[Exception] = []

        def worker(name):
            try:
                store = open_store("sqlite", schema, tmp_path)
                try:
                    mine = []
                    while True:
                        got = store.claim_stale_cells(FRESH, name, limit=3)
                        if not got:
                            break
                        mark_refreshed(store, name, got)
                        mine.extend(got)
                    results[name] = mine
                finally:
                    store.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        all_claimed = [cell for cells in results.values() for cell in cells]
        assert len(all_claimed) == 10
        assert len(set(all_claimed)) == 10  # no double-claims either
        with open_store("sqlite", schema, tmp_path) as store:
            assert store.refresh_budget_remaining() == 0


class TestMidDrainPriorityUpdate:
    def test_update_reorders_later_rounds_without_starving(self, store):
        """Fault-injection style: priorities flip between claim rounds;
        every cell is still claimed exactly once and the drain ends."""
        fill_stale(store)
        store.set_user_priorities({"u1": 5.0})
        seen: list[tuple[str, int]] = []
        rounds = 0
        while True:
            got = store.claim_stale_cells(FRESH, "w", limit=2)
            if not got:
                break
            mark_refreshed(store, "w", got)
            seen.extend(got)
            rounds += 1
            if rounds == 2:
                # mid-drain: demote u1, promote u4
                store.set_user_priorities({"u1": 0.0, "u4": 50.0})
            assert rounds < 50, "drain did not terminate"
        assert sorted(seen) == ledger_order()
        assert len(set(seen)) == len(seen)  # no double-claims
        # rounds 1-2 drained u1 (pre-update priority), the round right
        # after the flip drains u4 — the update took effect mid-drain
        assert seen[:4] == [("u1", t) for t in TIMES] + [("u2", 0)]
        assert seen[4:6] == [("u4", 0), ("u4", 1)]

    def test_released_cells_reclaim_under_new_priority(self, store):
        fill_stale(store, users=["u1", "u2"])
        first = store.claim_stale_cells(FRESH, "w", limit=6)
        assert [u for u, _ in first] == ["u1"] * 3 + ["u2"] * 3
        store.release_cells("w", first)
        store.set_user_priorities({"u2": 4.0})
        again = store.claim_stale_cells(FRESH, "w", limit=6)
        assert [u for u, _ in again] == ["u2"] * 3 + ["u1"] * 3


class TestAccessFeedback:
    def test_record_and_materialize_roundtrip(self, store):
        fill_stale(store)
        now = store.clock_now()
        n = store.record_accesses(
            [("u1", "bundle", now), ("u1", "q1", now), ("u2", "bundle", now)]
        )
        assert n == 3
        merged = store.materialize_priorities(now=now, halflife_seconds=60.0)
        assert merged["u1"] == pytest.approx(2.0)
        assert merged["u2"] == pytest.approx(1.0)
        scores = store.user_priorities()
        assert scores["u1"] == pytest.approx(2.0)
        assert scores["u2"] == pytest.approx(1.0)
        # the log is consumed by the fold; the scores persist
        rows = store.read("SELECT COUNT(*) AS n FROM access_log")
        assert rows[0]["n"] == 0
        again = store.materialize_priorities(now=now, halflife_seconds=60.0)
        assert again == pytest.approx(merged)

    def test_decay_halves_at_halflife(self, store):
        fill_stale(store)
        now = store.clock_now()
        store.record_accesses([("u1", "bundle", now)])
        store.materialize_priorities(now=now, halflife_seconds=100.0)
        store.materialize_priorities(now=now + 100.0, halflife_seconds=100.0)
        assert store.user_priorities()["u1"] == pytest.approx(0.5)

    def test_old_accesses_decay_at_fold_time(self, store):
        fill_stale(store)
        now = store.clock_now()
        store.record_accesses(
            [("u1", "bundle", now - 100.0), ("u2", "bundle", now)]
        )
        store.materialize_priorities(now=now, halflife_seconds=100.0)
        scores = store.user_priorities()
        assert scores["u1"] == pytest.approx(0.5)
        assert scores["u2"] == pytest.approx(1.0)

    def test_bad_halflife_rejected(self, store):
        with pytest.raises(StorageError):
            store.materialize_priorities(halflife_seconds=0.0)


class TestQueryPlan:
    def test_priority_joins_stay_index_backed(self, store):
        """The ledger probe keeps its covering index and the new
        priority/escalation joins are satisfied by their (auto)indexes —
        no full scan of any joined table."""
        fill_stale(store)
        plan = "\n".join(store.claim_query_plan(FRESH))
        assert "idx_temporal_inputs_ledger" in plan
        for line in plan.splitlines():
            if "SCAN" in line:
                assert "temporal_inputs" not in line
                assert "user_priority" not in line
                assert "refresh_escalations" not in line


class TestFreshnessReports:
    def test_traffic_weighted_freshness_weights_by_score(self, store):
        fill_stale(store, users=["u1", "u2"])
        store.set_user_priorities({"u1": 3.0, "u2": 1.0})
        # refresh u1's cells only: stamp its ledger to the new fps
        width = len(store.schema.names)
        trajectory = np.arange(len(TIMES) * width, dtype=float).reshape(
            len(TIMES), width
        )
        store.store_temporal_inputs("u1", trajectory, fingerprints=FRESH)
        report = store.traffic_weighted_freshness(FRESH)
        assert report["users"] == 2
        assert report["stale_cells"] == len(TIMES)
        assert report["fresh_fraction"] == pytest.approx(0.5)
        # u1 (fresh) carries 3x u2's weight: (3*1 + 1*0) / 4
        assert report["weighted_fresh_fraction"] == pytest.approx(0.75)

    def test_freshness_report_ages(self, store):
        fill_stale(store, users=["u1"])
        now = store.clock_now()
        for db in store.backend.schemas():
            conn, prefix = store.backend.conn, db
            conn.execute(
                f"UPDATE {prefix}.temporal_inputs SET refreshed_at = ?",
                (now - 40.0,),
            )
            conn.commit()
        report = store.freshness_report(now=now)
        assert report["users"] == 1
        assert report["unstamped_users"] == 0
        assert report["max_age"] == pytest.approx(40.0)
        assert report["mean_age"] == pytest.approx(40.0)
