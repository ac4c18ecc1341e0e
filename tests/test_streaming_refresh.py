"""Streaming refresh subsystem tests: feeds, drift gate, scheduler.

The core equivalence property: a stream consumed over several scheduler
epochs leaves the store byte-identical to one refresh over the whole
stream at once (every epoch's refit is deterministic, and the final
epoch leaves every cell stamped under the final models).
"""

import numpy as np
import pytest

from repro.constraints import lending_domain_constraints
from repro.core import (
    AdminConfig,
    DriftGate,
    JustInTime,
    RefreshScheduler,
)
from repro.data import (
    CsvFeed,
    IteratorFeed,
    LendingGenerator,
    TemporalDataset,
    john_profile,
    make_lending_dataset,
    save_csv,
)
from repro.exceptions import ForecastError, ValidationError
from repro.temporal import PerPeriodStrategy, lending_update_function

USERS = [
    ("u1", john_profile(), ["annual_income <= base_annual_income * 1.3"]),
    ("u2", {**john_profile(), "annual_income": 61_000.0}),
]


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


def make_batch(schema, history, n, *, year_offset=1.5, seed=99, scale=1.0):
    """``n`` labeled rows inside the history span (drifted when scaled)."""
    start = float(np.floor(history.span[0]))
    generator = LendingGenerator(random_state=seed)
    X = generator.sample_profiles(n) * scale
    years = np.full(n, start + year_offset)
    return TemporalDataset(X, generator.label(X, years), years, schema)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestConcat:
    def test_concat_merges_and_sorts(self, schema, history):
        a = make_batch(schema, history, 10, year_offset=2.5)
        b = make_batch(schema, history, 10, year_offset=0.5)
        merged = TemporalDataset.concat([a, b])
        assert len(merged) == 20
        assert list(merged.timestamps) == sorted(merged.timestamps)

    def test_concat_rejects_schema_mismatch(self, schema, history):
        from repro.data.schema import DatasetSchema

        other = DatasetSchema(list(history.schema)[:3])
        a = make_batch(schema, history, 5)
        b = TemporalDataset(
            a.X[:, :3], a.y, a.timestamps, other
        )
        with pytest.raises(ValidationError, match="schema"):
            TemporalDataset.concat([a, b])

    def test_concat_rejects_empty_list(self):
        with pytest.raises(ValidationError, match="at least one"):
            TemporalDataset.concat([])


class TestIteratorFeed:
    def test_yields_batches_then_exhausts(self, schema, history):
        batches = [make_batch(schema, history, 5), None,
                   make_batch(schema, history, 3)]
        feed = IteratorFeed(batches)
        assert len(feed.poll()) == 5
        assert feed.poll() is None  # a quiet poll interval
        assert not feed.exhausted
        assert len(feed.poll()) == 3
        assert feed.poll() is None
        assert feed.exhausted
        assert feed.poll() is None  # stays exhausted


class TestCsvFeed:
    def test_polls_only_appended_rows(self, schema, history, tmp_path):
        path = tmp_path / "feed.csv"
        first = make_batch(schema, history, 8)
        save_csv(first, path)
        feed = CsvFeed(path, schema)
        got = feed.poll()
        assert len(got) == 8
        assert np.allclose(np.sort(got.timestamps), np.sort(first.timestamps))
        assert feed.poll() is None  # nothing new
        # producer appends more rows (no header this time)
        second = make_batch(schema, history, 4, seed=5)
        with path.open("a", newline="") as handle:
            lines = (tmp_path / "tmp.csv")
            save_csv(second, lines)
            handle.write(lines.read_text().split("\n", 1)[1])
        assert len(feed.poll()) == 4
        assert not feed.exhausted  # files may always grow

    def test_partial_line_held_for_next_poll(self, schema, history, tmp_path):
        path = tmp_path / "feed.csv"
        save_csv(make_batch(schema, history, 3), path)
        feed = CsvFeed(path, schema)
        assert len(feed.poll()) == 3
        full_row = ",".join(["1.0"] * len(schema) + ["1", "2018.5"])
        with path.open("a") as handle:
            handle.write(full_row[: len(full_row) // 2])  # producer mid-write
        assert feed.poll() is None
        with path.open("a") as handle:
            handle.write(full_row[len(full_row) // 2 :] + "\n")
        assert len(feed.poll()) == 1

    def test_missing_file_means_no_data_yet(self, schema, tmp_path):
        feed = CsvFeed(tmp_path / "nope.csv", schema)
        assert feed.poll() is None

    def test_resume_from_checkpointed_offset(self, schema, history, tmp_path):
        """A restarted consumer must not re-read (and double-ingest)
        rows before its checkpoint."""
        path = tmp_path / "feed.csv"
        save_csv(make_batch(schema, history, 6), path)
        first = CsvFeed(path, schema)
        assert len(first.poll()) == 6
        checkpoint = first.offset
        second = make_batch(schema, history, 3, seed=5)
        tmp = tmp_path / "tmp.csv"
        save_csv(second, tmp)
        with path.open("a", newline="") as handle:
            handle.write(tmp.read_text().split("\n", 1)[1])
        resumed = CsvFeed(path, schema, start_offset=checkpoint)
        got = resumed.poll()
        assert len(got) == 3  # only the rows after the checkpoint
        assert np.allclose(
            np.sort(got.timestamps), np.sort(second.timestamps)
        )

    def test_resume_rejects_truncated_feed(self, schema, history, tmp_path):
        path = tmp_path / "feed.csv"
        save_csv(make_batch(schema, history, 6), path)
        with pytest.raises(ValidationError, match="truncated"):
            CsvFeed(path, schema, start_offset=path.stat().st_size + 100)

    def test_missing_columns_rejected(self, schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("only,two\n1,2\n")
        with pytest.raises(ValidationError, match="missing columns"):
            CsvFeed(path, schema).poll()

    def test_malformed_row_rejected(self, schema, history, tmp_path):
        path = tmp_path / "feed.csv"
        save_csv(make_batch(schema, history, 2), path)
        feed = CsvFeed(path, schema)
        feed.poll()
        with path.open("a") as handle:
            handle.write("not,a,number\n")
        with pytest.raises(ValidationError, match="malformed"):
            feed.poll()


class TestDriftGate:
    def test_requires_some_threshold(self):
        with pytest.raises(ForecastError, match="threshold"):
            DriftGate()

    def test_small_batch_not_assessed(self, schema, history):
        gate = DriftGate(mmd_threshold=0.1, min_samples=20)
        decision = gate.assess(history, make_batch(schema, history, 5))
        assert not decision.assessed
        assert not decision.drifted

    def test_covariate_drift_detected(self, schema, history):
        gate = DriftGate(mmd_threshold=0.25)
        stationary = make_batch(schema, history, 40, year_offset=9.5)
        drifted = make_batch(schema, history, 40, year_offset=9.5, scale=1.6)
        calm = gate.assess(history, stationary)
        loud = gate.assess(history, drifted)
        assert loud.mmd > calm.mmd
        assert loud.drifted
        assert loud.mmd > 0.25

    def test_label_shift_detected(self, schema, history):
        gate = DriftGate(label_shift_threshold=0.3)
        batch = make_batch(schema, history, 40)
        flipped = TemporalDataset(
            batch.X, np.ones(len(batch), dtype=int), batch.timestamps, schema
        )
        decision = gate.assess(history, flipped)
        assert decision.label_shift is not None
        assert decision.mmd is None  # no MMD threshold configured
        # all-positive labels vs the historical approval rate
        assert decision.drifted


class TestScheduler:
    def test_requires_gate_or_cadence(self, schema, history):
        system = build_system(schema).fit(history)
        with pytest.raises(ForecastError, match="DriftGate and/or"):
            RefreshScheduler(system, IteratorFeed([]))

    def test_cadence_trigger_and_buffering(self, schema, history):
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        clock = FakeClock()
        batches = [make_batch(schema, history, 10, seed=s) for s in (1, 2, 3)]
        scheduler = RefreshScheduler(
            system,
            IteratorFeed(batches),
            cadence=100.0,
            warm_start=False,
            clock=clock,
        )
        clock.now = 50.0
        assert scheduler.poll_once() is None  # cadence not elapsed: buffer
        assert scheduler.pending_rows == 10
        clock.now = 120.0
        epoch = scheduler.poll_once()  # second batch arrives, cadence due
        assert epoch is not None
        assert epoch.trigger == "cadence"
        assert epoch.rows == 20  # both buffered batches in one epoch
        assert scheduler.pending_rows == 0
        clock.now = 130.0
        assert scheduler.poll_once() is None  # batch 3 buffered, not due
        assert scheduler.pending_rows == 10

    def test_min_batch_defers_refresh(self, schema, history):
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        clock = FakeClock()
        batches = [make_batch(schema, history, 10, seed=s) for s in (1, 2)]
        scheduler = RefreshScheduler(
            system,
            IteratorFeed(batches),
            cadence=0.0,
            min_batch=15,
            warm_start=False,
            clock=clock,
        )
        assert scheduler.poll_once() is None  # 10 rows < min_batch
        epoch = scheduler.poll_once()
        assert epoch is not None and epoch.rows == 20

    def test_pending_cap_forces_refresh(self, schema, history):
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        clock = FakeClock()
        scheduler = RefreshScheduler(
            system,
            IteratorFeed([make_batch(schema, history, 30)]),
            cadence=1e9,  # never due
            max_pending_rows=25,
            warm_start=False,
            clock=clock,
        )
        epoch = scheduler.poll_once()
        assert epoch is not None
        assert epoch.trigger == "pending-cap"

    def test_drift_gate_triggers_only_on_drift(self, schema, history):
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        clock = FakeClock()
        stationary = make_batch(schema, history, 40, year_offset=9.5, seed=1)
        # loud enough that the 40 buffered stationary rows riding along
        # cannot dilute the merged batch below the gate threshold
        drifted = make_batch(
            schema, history, 40, year_offset=1.5, seed=2, scale=3.0
        )
        scheduler = RefreshScheduler(
            system,
            IteratorFeed([stationary, drifted]),
            gate=DriftGate(mmd_threshold=0.25),
            warm_start=False,
            clock=clock,
        )
        assert scheduler.poll_once() is None  # stationary rows buffer
        epoch = scheduler.poll_once()
        assert epoch is not None
        assert epoch.trigger == "drift"
        assert epoch.drift.mmd > 0.25
        assert epoch.rows == 80  # buffered stationary rows ride along

    def test_run_drains_feed_and_matches_one_shot_refresh(
        self, schema, history
    ):
        """Multi-epoch streaming == one refresh over the whole stream."""
        batches = [
            make_batch(schema, history, 20, year_offset=0.5, seed=1),
            make_batch(schema, history, 20, year_offset=1.5, seed=2),
            make_batch(schema, history, 11, year_offset=2.5, seed=3),
        ]
        streamed = build_system(schema).fit(history)
        streamed.create_sessions(USERS)
        clock = FakeClock()
        scheduler = RefreshScheduler(
            streamed,
            IteratorFeed(batches),
            cadence=0.0,  # refresh whenever rows are pending
            warm_start=False,
            clock=clock,
        )
        seen = []
        epochs = scheduler.run(on_epoch=lambda e: seen.append(e))
        assert epochs == seen == scheduler.epochs
        assert len(epochs) == 3
        assert scheduler.pending_rows == 0
        assert sum(e.rows for e in epochs) == 51

        oneshot = build_system(schema).fit(history)
        oneshot.create_sessions(USERS)
        oneshot.refresh(TemporalDataset.concat(batches), warm_start=False)
        assert (
            streamed.store.contents_digest()
            == oneshot.store.contents_digest()
        )

    def test_run_flushes_subthreshold_tail(self, schema, history):
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        clock = FakeClock()
        scheduler = RefreshScheduler(
            system,
            IteratorFeed([make_batch(schema, history, 10)]),
            cadence=1e9,
            min_batch=50,  # never reached by the stream
            warm_start=False,
            clock=clock,
        )
        epochs = scheduler.run()
        assert [e.trigger for e in epochs] == ["flush"]
        assert scheduler.pending_rows == 0


class TestGateModes:
    """The merged-buffer dilution fix: a drifted batch buried in quiet
    rows must still trigger under the flag-gated 'batch' / 'ewma' modes
    (the default 'merged' mode keeps the original diluted behaviour)."""

    THRESHOLD = 0.25  # drifted batch alone ~0.80, diluted merge ~0.18

    def quiet_then_drifted(self, schema, history):
        return [
            make_batch(schema, history, 60, year_offset=9.5, seed=1),
            make_batch(schema, history, 60, year_offset=9.5, seed=2),
            make_batch(schema, history, 30, year_offset=1.5, seed=3, scale=3.0),
        ]

    def scheduler_for(self, schema, history, batches, **kwargs):
        system = build_system(schema).fit(history)
        system.create_sessions(USERS)
        return RefreshScheduler(
            system,
            IteratorFeed(batches),
            gate=DriftGate(mmd_threshold=self.THRESHOLD),
            warm_start=False,
            clock=FakeClock(),
            **kwargs,
        )

    def test_merged_mode_dilutes_buried_drift(self, schema, history):
        """Regression anchor for the default: 120 quiet buffered rows
        dilute the 30-row drifted batch below the threshold."""
        scheduler = self.scheduler_for(
            schema, history, self.quiet_then_drifted(schema, history)
        )
        assert scheduler.poll_once() is None
        assert scheduler.poll_once() is None
        assert scheduler.poll_once() is None  # drifted batch buried
        assert scheduler.pending_rows == 150
        assert scheduler._assessed[1].mmd < self.THRESHOLD

    def test_batch_mode_fires_on_buried_drifted_batch(self, schema, history):
        scheduler = self.scheduler_for(
            schema,
            history,
            self.quiet_then_drifted(schema, history),
            gate_mode="batch",
        )
        assert scheduler.poll_once() is None
        assert scheduler.poll_once() is None
        epoch = scheduler.poll_once()  # same stream, arrival-wise gating
        assert epoch is not None
        assert epoch.trigger == "drift"
        assert epoch.drift.mmd > self.THRESHOLD
        assert epoch.rows == 150  # buffered quiet rows ride along

    def test_batch_mode_verdict_sticks_until_epoch(self, schema, history):
        """Drifted rows arriving *first* and then buried under quiet
        arrivals (while min_batch blocks the epoch) still fire once the
        epoch can open — the verdict is sticky, not re-diluted."""
        batches = list(reversed(self.quiet_then_drifted(schema, history)))
        scheduler = self.scheduler_for(
            schema, history, batches, gate_mode="batch", min_batch=100
        )
        assert scheduler.poll_once() is None  # drifted 30 < min_batch
        assert scheduler._sticky is not None
        assert scheduler.poll_once() is None  # 90 rows < min_batch
        epoch = scheduler.poll_once()
        assert epoch is not None and epoch.trigger == "drift"
        assert epoch.drift.mmd > self.THRESHOLD
        # epoch reset the sticky verdict
        assert scheduler._sticky is None

    def test_batch_mode_accumulates_small_arrivals(self, schema, history):
        """Polls smaller than the gate's min_samples accumulate until
        one assessment covers them instead of being skipped forever."""
        drifted = make_batch(schema, history, 30, seed=3, scale=3.0)
        X, y, t = drifted.X, drifted.y, drifted.timestamps
        halves = [
            TemporalDataset(X[:12], y[:12], t[:12], schema),
            TemporalDataset(X[12:], y[12:], t[12:], schema),
        ]
        scheduler = self.scheduler_for(
            schema, history, halves, gate_mode="batch"
        )
        assert scheduler.poll_once() is None  # 12 rows < min_samples=20
        assert scheduler._unassessed and scheduler._sticky is None
        epoch = scheduler.poll_once()  # 30 accumulated rows assessed
        assert epoch is not None and epoch.trigger == "drift"

    def test_ewma_mode_ages_out_quiet_rows(self, schema, history):
        scheduler = self.scheduler_for(
            schema,
            history,
            self.quiet_then_drifted(schema, history),
            gate_mode="ewma",
            ewma_halflife=1.0,
        )
        assert scheduler.poll_once() is None
        assert scheduler.poll_once() is None
        epoch = scheduler.poll_once()
        assert epoch is not None and epoch.trigger == "drift"
        # weighted statistic sits between the pure batch and the dilution
        assert self.THRESHOLD < epoch.drift.mmd < 0.8

    def test_gate_mode_validated(self, schema, history):
        system = build_system(schema).fit(history)
        with pytest.raises(ForecastError, match="gate_mode"):
            RefreshScheduler(
                system,
                IteratorFeed([]),
                gate=DriftGate(mmd_threshold=0.2),
                gate_mode="bogus",
            )
        with pytest.raises(ForecastError, match="needs a DriftGate"):
            RefreshScheduler(
                system, IteratorFeed([]), cadence=0.0, gate_mode="batch"
            )

    def test_weighted_assess_validates_weights(self, schema, history):
        gate = DriftGate(mmd_threshold=0.2)
        batch = make_batch(schema, history, 25)
        with pytest.raises(ForecastError, match="weights"):
            gate.assess(history, batch, weights=np.ones(3))
        with pytest.raises(ForecastError, match="non-negative"):
            gate.assess(history, batch, weights=np.full(25, -1.0))

