"""Fault-injection suite: workers dying at arbitrary points must not
corrupt the store.

A worker's drain loop touches the store through a small set of
operations (claim → renew → per-round lease heartbeats → renew →
grouped upsert → release, plus the drained-queue probes).
:class:`CrashingStore` wraps a real store and raises
:class:`WorkerCrashed` when a scheduled operation count is reached —
simulating the process dying *between* store operations, which is the
only granularity that exists: each operation is itself a transaction,
so a kill lands either before or after it, never inside.

The invariant under test, across seeded random crash points and both
file-backed backends: after the dead worker's leases expire, a survivor
drains the remainder and the final store contents are **byte-identical**
to the per-cell reference (``CandidateStore.contents_digest``), with a
clean ledger and no lingering leases.  Crash points that target one
operation are located by tracing an uninterrupted drain, since the
heartbeat count depends on how many rounds the search runs.
"""

import numpy as np
import pytest

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime, drain_stale_cells
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    make_lending_dataset,
)
from repro.temporal import PerPeriodStrategy, lending_update_function

from cell_reference import reference_create_sessions, reference_recompute

DRIFT_T = 1
N_USERS = 4
LEASE_SECONDS = 30.0

#: store operations the drain loop issues, in loop order — a crash is
#: scheduled as "die before the k-th operation of any of these kinds"
DRAIN_OPS = (
    "claim_stale_cells",
    "has_stale_cells",
    "renew_leases",
    "upsert_cells",
    "release_cells",
    "prune_expired_leases",
)


class WorkerCrashed(RuntimeError):
    """The simulated kill -9."""


class CrashingStore:
    """Store proxy that dies before its ``crash_at``-th drain operation.

    Only the operations in :data:`DRAIN_OPS` count (reads like
    ``load_session_specs`` are harmless to interrupt — nothing was
    mutated yet).  Everything else delegates untouched, so the wrapped
    store keeps behaving like the real one up to the crash.
    """

    def __init__(self, inner, crash_at: int):
        self._inner = inner
        self._crash_at = int(crash_at)
        self.ops = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name in DRAIN_OPS:
            def guarded(*args, _attr=attr, **kwargs):
                if self.ops >= self._crash_at:
                    raise WorkerCrashed(
                        f"killed before {name} (op {self.ops})"
                    )
                self.ops += 1
                return _attr(*args, **kwargs)

            return guarded
        return attr


class OpRecordingStore:
    """Store proxy that records the drain-op sequence without crashing —
    used to *find* an op index (e.g. "right after the grouped upsert"),
    since the sequence is workload-dependent through the drain's
    per-round lease heartbeats."""

    def __init__(self, inner):
        self._inner = inner
        self.trace: list[str] = []

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name in DRAIN_OPS:
            def recorded(*args, _attr=attr, _name=name, **kwargs):
                self.trace.append(_name)
                return _attr(*args, **kwargs)

            return recorded
        return attr


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = float(now)

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=60, random_state=1)


@pytest.fixture(scope="module")
def drift_data(history):
    start = float(np.floor(history.span[0]))
    generator = LendingGenerator(random_state=99)
    X = generator.sample_profiles(40) * 3.0
    years = np.full(40, start + DRIFT_T + 0.5)
    return TemporalDataset(X, generator.label(X, years), years, history.schema)


def make_users(schema, n=N_USERS):
    rng = np.random.default_rng(7)
    base = schema.vector(john_profile())
    return [
        (
            f"user-{i:02d}",
            schema.clip(base * rng.uniform(0.8, 1.2, size=base.size)),
            ["annual_income <= base_annual_income * 1.3"],
        )
        for i in range(n)
    ]


def build_fitted_system(schema, history, db, backend):
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(
            T=2, strategy=PerPeriodStrategy(), k=4, max_iter=8, random_state=0
        ),
        domain_constraints=lending_domain_constraints(schema),
        store_path=db,
        store_backend=backend,
        n_shards=4,
    )
    return system.fit(history)


def build_refit_system(schema, history, drift_data, db, backend):
    """A populated system whose models were refit (ledger fully stale)."""
    system = build_fitted_system(schema, history, db, backend)
    system.create_sessions(make_users(schema))
    system.refit(drift_data)
    return system


def drain_op_trace(schema, history, drift_data, workdir, backend, **kwargs):
    """The drain-op sequence of an uninterrupted drain of the workload
    (``kwargs`` go to :func:`drain_stale_cells`)."""
    workdir.mkdir()
    system = build_refit_system(
        schema, history, drift_data, workdir / "cands.db", backend
    )
    real_store = system.store
    recorder = OpRecordingStore(real_store)
    system.store = recorder
    try:
        drain_stale_cells(
            system,
            worker_id="tracer",
            warm_start=False,
            clock=FakeClock(1000.0),
            lease_seconds=LEASE_SECONDS,
            **kwargs,
        )
    finally:
        system.store = real_store
        real_store.close()
    return recorder.trace


@pytest.fixture(scope="module")
def reference_digests(schema, history, drift_data, tmp_path_factory):
    """Per-cell reference digest and stale-cell count per backend — the
    identity target."""
    digests = {}
    for backend in ("sqlite", "sharded"):
        db = tmp_path_factory.mktemp("ref") / f"{backend}.db"
        system = build_fitted_system(schema, history, db, backend)
        reference_create_sessions(system, make_users(schema))
        system.refit(drift_data)
        cells, _, _ = reference_recompute(system)
        assert len(cells) >= N_USERS
        digests[backend] = (system.store.contents_digest(), len(cells))
        system.store.close()
    return digests


@pytest.mark.parametrize("backend", ["sqlite", "sharded"])
class TestCrashRecoveryDigestIdentity:
    def drain_with_crash(
        self, schema, history, drift_data, tmp_path, backend, crash_at
    ):
        """Crash one worker at operation ``crash_at``, recover with a
        survivor after lease expiry, return (digest, survivor report)."""
        db = tmp_path / "cands.db"
        system = build_refit_system(schema, history, drift_data, db, backend)
        clock = FakeClock(1000.0)
        real_store = system.store
        crashing = CrashingStore(real_store, crash_at)
        system.store = crashing
        crashed = False
        try:
            drain_stale_cells(
                system,
                worker_id="doomed",
                warm_start=False,
                clock=clock,
                lease_seconds=LEASE_SECONDS,
            )
        except WorkerCrashed:
            crashed = True
        finally:
            system.store = real_store
        # before expiry, the dead worker's claims are still protected:
        # a survivor can finish every *unleased* cell but not steal live
        # leases; afterwards everything is reclaimable
        clock.now += LEASE_SECONDS + 1.0
        survivor = drain_stale_cells(
            system,
            worker_id="survivor",
            warm_start=False,
            clock=clock,
            lease_seconds=LEASE_SECONDS,
        )
        digest = system.store.contents_digest()
        stale = system.store.stale_cells(system.model_fingerprints)
        leases = system.store.lease_rows()
        system.store.close()
        assert stale == []
        assert leases == []  # released or pruned, even after the crash
        return crashed, digest, survivor

    def test_seeded_random_crash_points(
        self, schema, history, drift_data, tmp_path, backend, reference_digests
    ):
        """Randomised (seeded) crash schedule over the whole drain loop:
        every crash point must recover to the reference digest."""
        expected, _ = reference_digests[backend]
        rng = np.random.default_rng(0xFA171)
        # sample crash points across an uninterrupted drain's whole op
        # sequence, always including the edges (``upper`` is one past
        # the last op: a clean run)
        upper = len(
            drain_op_trace(
                schema, history, drift_data, tmp_path / "trace", backend
            )
        )
        points = sorted(
            {0, 1, upper, *(int(p) for p in rng.integers(2, upper, size=6))}
        )
        for crash_at in points:
            workdir = tmp_path / f"crash-{crash_at}"
            workdir.mkdir()
            crashed, digest, survivor = self.drain_with_crash(
                schema, history, drift_data, workdir, backend, crash_at
            )
            assert digest == expected, (
                f"store diverged after crash at op {crash_at}"
            )
            if not crashed:
                # schedule beyond the drain's op count: clean run
                assert survivor.cells == []

    def test_crash_mid_cell_does_not_double_write(
        self, schema, history, drift_data, tmp_path, backend, reference_digests
    ):
        """Die immediately after an upsert (before release): the claim
        batch's cells are fresh, the survivor never recomputes them, and
        their orphaned leases are pruned — not inherited."""
        expected, total_cells = reference_digests[backend]
        # die at the first release_cells, right after the grouped upsert
        trace = drain_op_trace(
            schema, history, drift_data, tmp_path / "trace", backend
        )
        crash_at = trace.index("release_cells")
        assert trace[crash_at - 1] == "upsert_cells"
        crashed, digest, survivor = self.drain_with_crash(
            schema, history, drift_data, tmp_path, backend, crash_at
        )
        assert crashed
        assert digest == expected
        # exactly one claim batch (the default claim_batch=2) was
        # completed by the dead worker
        assert len(survivor.cells) == total_cells - 2


class TestLostLeaseIsNotWritten:
    def test_slow_compute_past_expiry_discards_then_recovers(
        self, schema, history, drift_data, tmp_path, reference_digests
    ):
        """A worker whose compute outlives its lease must not write
        under it: the post-compute renewal fails, the result is
        discarded (``lost_leases``), and the cell is recomputed under a
        fresh lease — the final store still matches the reference."""
        expected, _ = reference_digests["sqlite"]
        db = tmp_path / "cands.db"
        system = build_refit_system(
            schema, history, drift_data, db, "sqlite"
        )
        clock = FakeClock(1000.0)
        real_store = system.store
        jumped = []

        class SlowFirstComputeStore:
            """Delegates everything; after the *first* pre-compute
            renewal, jumps the clock past the lease — as if that one
            beam search took longer than lease_seconds."""

            def __getattr__(self, name):
                attr = getattr(real_store, name)
                if name == "renew_leases" and not jumped:
                    def slow(*args, _attr=attr, **kwargs):
                        renewed = _attr(*args, **kwargs)
                        if not jumped:
                            jumped.append(True)
                            clock.now += LEASE_SECONDS + 1.0
                        return renewed

                    return slow
                return attr

        system.store = SlowFirstComputeStore()
        try:
            report = drain_stale_cells(
                system,
                worker_id="sluggish",
                warm_start=False,
                clock=clock,
                lease_seconds=LEASE_SECONDS,
            )
        finally:
            system.store = real_store
        # the slow cell's post-compute renewal failed → discarded once,
        # then legitimately recomputed under a later claim
        assert report.lost_leases >= 1
        assert real_store.stale_cells(system.model_fingerprints) == []
        assert real_store.contents_digest() == expected
        real_store.close()


class TestAffinityDrainIdentity:
    """Shard-pinned drains (the parallel per-shard write path) are
    byte-identical to the reference drain — including when a pinned
    worker crashes and a differently-pinned survivor takes over."""

    def test_affinity_drains_match_reference(
        self, schema, history, drift_data, tmp_path, reference_digests
    ):
        expected, total_cells = reference_digests["sharded"]
        db = tmp_path / "cands.db"
        system = build_refit_system(schema, history, drift_data, db, "sharded")
        clock = FakeClock(1000.0)
        backend = system.store.backend
        # pin w0 to a shard that actually owns stale cells (4 users over
        # 4 crc32 buckets can leave a shard empty)
        stale = system.store.stale_cells(system.model_fingerprints)
        home_schema = backend.schema_for(stale[0][0])
        other = next(
            s for s in reversed(backend.schemas()) if s != home_schema
        )
        first = drain_stale_cells(
            system,
            worker_id="w0",
            warm_start=False,
            clock=clock,
            claim_schema=home_schema,
            max_cells=total_cells // 2,
        )
        second = drain_stale_cells(
            system,
            worker_id="w1",
            warm_start=False,
            clock=clock,
            claim_schema=other,
        )
        assert len(first.cells) + len(second.cells) == total_cells
        # w0's very first claim came from its home shard
        assert backend.schema_for(first.cells[0][0]) == home_schema
        assert system.store.contents_digest() == expected
        system.store.close()

    def test_crashed_affinity_worker_recovered_by_other_shard(
        self, schema, history, drift_data, tmp_path, reference_digests
    ):
        """A pinned worker dies mid-drain; a survivor pinned to a
        *different* shard falls through once its own shard is clean and
        finishes the dead worker's cells after lease expiry."""
        expected, _ = reference_digests["sharded"]
        db = tmp_path / "cands.db"
        system = build_refit_system(schema, history, drift_data, db, "sharded")
        clock = FakeClock(1000.0)
        schemas = system.store.backend.schemas()
        # die at the first release_cells, right after the grouped upsert
        trace = drain_op_trace(
            schema, history, drift_data, tmp_path / "trace", "sharded",
            claim_schema=schemas[0],
        )
        real_store = system.store
        system.store = CrashingStore(real_store, trace.index("release_cells"))
        try:
            drain_stale_cells(
                system,
                worker_id="doomed",
                warm_start=False,
                clock=clock,
                lease_seconds=LEASE_SECONDS,
                claim_schema=schemas[0],
            )
        except WorkerCrashed:
            pass
        finally:
            system.store = real_store
        clock.now += LEASE_SECONDS + 1.0
        drain_stale_cells(
            system,
            worker_id="survivor",
            warm_start=False,
            clock=clock,
            lease_seconds=LEASE_SECONDS,
            claim_schema=schemas[-1],
        )
        assert real_store.stale_cells(system.model_fingerprints) == []
        assert real_store.lease_rows() == []
        assert real_store.contents_digest() == expected
        real_store.close()


@pytest.mark.parametrize("backend", ["sqlite", "sharded"])
class TestFusedDrainCrashRecovery:
    """The drain batches a whole claim under one lock-stepped fused
    compute and one grouped upsert, so a crash loses (at most) a claim
    batch of work — but the recovery contract is unchanged: after lease
    expiry a survivor, whatever its claim batch, drains the remainder to
    the **per-cell reference digest**."""

    def drain_fused_with_crash(
        self, schema, history, drift_data, tmp_path, backend, crash_at,
        survivor_claim_batch,
    ):
        db = tmp_path / "cands.db"
        system = build_refit_system(schema, history, drift_data, db, backend)
        clock = FakeClock(1000.0)
        real_store = system.store
        system.store = CrashingStore(real_store, crash_at)
        crashed = False
        try:
            drain_stale_cells(
                system,
                worker_id="doomed",
                warm_start=False,
                clock=clock,
                lease_seconds=LEASE_SECONDS,
                claim_batch=3,
            )
        except WorkerCrashed:
            crashed = True
        finally:
            system.store = real_store
        clock.now += LEASE_SECONDS + 1.0
        survivor = drain_stale_cells(
            system,
            worker_id="survivor",
            warm_start=False,
            clock=clock,
            lease_seconds=LEASE_SECONDS,
            claim_batch=survivor_claim_batch,
        )
        digest = system.store.contents_digest()
        stale = system.store.stale_cells(system.model_fingerprints)
        leases = system.store.lease_rows()
        system.store.close()
        assert stale == []
        assert leases == []
        return crashed, digest, survivor

    def test_seeded_random_crash_points(
        self, schema, history, drift_data, tmp_path, backend, reference_digests
    ):
        """Seeded crash schedule over the fused drain loop — every kill
        point (mid-claim, mid-renew, mid-heartbeat, before the grouped
        upsert, before release) must recover to the reference digest."""
        expected, _ = reference_digests[backend]
        rng = np.random.default_rng(0xF05ED)
        upper = len(
            drain_op_trace(
                schema, history, drift_data, tmp_path / "trace", backend,
                claim_batch=3,
            )
        )
        points = sorted(
            {0, 1, upper, *(int(p) for p in rng.integers(2, upper, size=5))}
        )
        for i, crash_at in enumerate(points):
            workdir = tmp_path / f"crash-{crash_at}"
            workdir.mkdir()
            # alternate how the survivor finishes the job: cell by cell
            # or in claim batches as large as the dead worker's
            survivor_claim_batch = 3 if i % 2 else 1
            crashed, digest, _ = self.drain_fused_with_crash(
                schema, history, drift_data, workdir, backend, crash_at,
                survivor_claim_batch,
            )
            assert digest == expected, (
                f"store diverged after fused crash at op {crash_at}"
                f" (survivor claim_batch={survivor_claim_batch})"
            )

    def test_crash_before_grouped_release(
        self, schema, history, drift_data, tmp_path, backend, reference_digests
    ):
        """Die right after the grouped upsert, before the batch release:
        the whole claim batch is fresh, its orphaned leases are pruned,
        and the survivor completes only the remaining cells."""
        expected, total_cells = reference_digests[backend]
        # the lease heartbeat renews once per lock-stepped round, so the
        # grouped upsert's op index depends on how many rounds the
        # search runs — trace an identical uninterrupted drain and die
        # before the op that follows the first upsert (the release)
        trace = drain_op_trace(
            schema, history, drift_data, tmp_path / "trace", backend,
            claim_batch=3,
        )
        crash_at = trace.index("upsert_cells") + 1
        assert trace[crash_at] == "release_cells"
        crashed, digest, survivor = self.drain_fused_with_crash(
            schema, history, drift_data, tmp_path, backend, crash_at, 3
        )
        assert crashed
        assert digest == expected
        assert len(survivor.cells) == total_cells - 3


class LeaderKilled(RuntimeError):
    """The simulated kill -9 of the active HA leader."""


class TestLeaderFailover:
    """Kill -9 of the active leader mid-epoch: the hot standby must win
    the seat, take over the dead leader's feed cursor via the
    two-checkpoint recovery path, and drain the remainder to a store
    byte-identical to a run that never failed.  The deposed leader's
    fencing token must be rejected on its next leadership-scoped write.
    """

    def build_service_state(self, schema, history, workdir, backend):
        from repro.core import save_system

        system = JustInTime(
            schema,
            lending_update_function(schema),
            AdminConfig(
                T=2,
                strategy=PerPeriodStrategy(),
                k=4,
                max_iter=8,
                random_state=0,
            ),
            domain_constraints=lending_domain_constraints(schema),
            store_path=workdir / "cands.db",
            store_backend=backend,
            n_shards=4,
        )
        system.fit(history)
        system.create_sessions(make_users(schema))
        save_system(system, workdir / "sys.pkl")
        system.store.close()
        return workdir / "sys.pkl", workdir / "cands.db"

    @pytest.mark.parametrize("backend", ["sqlite", "sharded"])
    def test_standby_finishes_the_dead_leaders_epoch_byte_identical(
        self, schema, history, drift_data, tmp_path, backend
    ):
        from repro.core import DriftGate, RefreshOrchestrator, load_system
        from repro.data import CsvFeed, save_csv
        from repro.exceptions import LeadershipLost

        work = tmp_path / "ha"
        work.mkdir()
        pkl, db = self.build_service_state(schema, history, work, backend)
        feed_csv = work / "feed.csv"
        save_csv(drift_data, feed_csv)
        # the reference must see the CSV-round-tripped values the
        # orchestrator ingests (save_csv writes 6 significant digits)
        parsed = CsvFeed(feed_csv, schema).poll()

        # ---- reference: the same service, never failed
        ref = tmp_path / "ref"
        ref.mkdir()
        ref_pkl, ref_db = self.build_service_state(schema, history, ref, backend)
        ref_system = load_system(ref_pkl, store_path=ref_db)
        ref_system.resume_sessions()
        ref_system.refresh(parsed, warm_start=False)
        expected = ref_system.store.contents_digest()
        ref_system.store.close()

        # ---- the leader: wins epoch 1, dies right after the pre-drain
        # checkpoint (models refit, cursor advanced, ledger fully stale)
        def kill(stage):
            if stage == "epoch-saved":
                raise LeaderKilled(stage)

        leader_system = load_system(pkl, store_path=db)
        leader = RefreshOrchestrator(
            leader_system,
            CsvFeed(feed_csv, schema),
            system_path=pkl,
            db_path=db,
            n_workers=2,
            gate=DriftGate(mmd_threshold=0.25),
            warm_start=False,
            fault_hook=kill,
            ha=True,
            node_id="leader",
            leader_ttl=30.0,
        )
        assert leader.campaign(max_wait=5.0) == 1
        with pytest.raises(LeaderKilled):
            leader.poll_once()
        assert leader.epochs_completed == 0
        # nobody knows it is dead yet: the lease is still live
        assert leader_system.store.verify_leader("leader", 1) is True

        # ---- the standby: campaigns on a bare handle, wins the seat.
        # Fast-forward the TTL deterministically by expiring the dead
        # leader's lease (expiry-vs-clock semantics are proven in the
        # backend contract suite; sleeping a real TTL here would be
        # either slow or flaky).
        standby_system = load_system(pkl, store_path=db)
        assert standby_system.store.resign_leader_lease("leader", 1) is True
        saved_offset = int(standby_system.saved_extra["feed_offset"])
        assert saved_offset == feed_csv.stat().st_size  # cursor advanced
        assert standby_system.saved_extra["orchestrator"]["phase"] == "draining"
        stale = standby_system.store.stale_cells(
            standby_system.model_fingerprints
        )
        assert len(stale) >= N_USERS
        standby = RefreshOrchestrator(
            standby_system,
            CsvFeed(feed_csv, schema, start_offset=saved_offset),
            system_path=pkl,
            db_path=db,
            n_workers=2,
            gate=DriftGate(mmd_threshold=0.25),
            warm_start=False,
            ha=True,
            node_id="standby",
            leader_ttl=30.0,
        )
        assert standby.campaign(max_wait=5.0) == 2
        assert standby.lease_takeovers == 1  # it displaced a dead leader

        # the deposed leader's next leadership-scoped write is fenced —
        # rejected before it can merge over the new leader's state
        with pytest.raises(LeadershipLost):
            leader._fence()
        assert leader.lease_epoch is None  # the seat is gone for good
        leader_system.store.close()

        # ---- takeover: recovery finishes the interrupted drain from the
        # dead leader's cursor; no feed row is re-ingested
        epochs = standby.run(max_polls=1, poll_interval=0.0)
        assert epochs == []  # no new feed rows — recovery only
        assert standby.last_recovery is not None
        assert standby.last_recovery.cells_recomputed == len(stale)
        assert standby.epochs_completed == 1
        assert (
            standby_system.store.stale_cells(
                standby_system.model_fingerprints
            )
            == []
        )
        assert standby_system.store.lease_rows() == []
        assert standby_system.store.contents_digest() == expected

        # the published metrics reflect the takeover for observability
        snap = standby_system.store.orchestrator_metrics()
        assert snap is not None
        assert snap["metrics"]["node_id"] == "standby"
        assert snap["metrics"]["lease_epoch"] == 2
        assert snap["metrics"]["lease_takeovers"] == 1
        standby.resign()
        status = standby_system.store.leader_status()
        assert status["expired"] is True and status["epoch"] == 2
        standby_system.store.close()
