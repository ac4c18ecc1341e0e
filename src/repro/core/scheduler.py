"""Drift-triggered streaming refresh scheduling.

:meth:`~repro.core.system.JustInTime.refresh` recomputes only the stale
cells; this module decides *when* to refresh.  A
:class:`RefreshScheduler` polls an append-only
:class:`~repro.data.feed.DataFeed`, buffers arriving rows, and opens a
**refresh epoch** — one executor call over everything buffered
(``system.refresh`` by default; the
:class:`~repro.core.orchestrator.RefreshOrchestrator`, which the
``refresh-orchestrator`` verb runs, substitutes refit + worker-pool
dispatch) — when either

* a :class:`DriftGate` decides the pending rows have drifted away from
  the training history (MMD on standardised features, or label-shift
  against the most recent history window — the same RKHS machinery as
  :mod:`repro.temporal.drift`), or
* a fixed **cadence** has elapsed since the last refresh, or
* the pending buffer hits a row cap (back-pressure so a quiet gate can
  never let the buffer grow without bound).

Drift gating is the cheap path: assessing a batch costs two mean
embeddings, while a refresh refits every future model and recomputes
every stale (user × time-point) cell.  On a stationary stream the gate
never fires and the system does no work beyond buffering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import TemporalDataset
from repro.data.feed import DataFeed
from repro.exceptions import ForecastError
from repro.ml.preprocessing import StandardScaler
from repro.temporal.embedding import (
    RBFKernel,
    WeightedSample,
    median_heuristic_gamma,
    mmd,
)

__all__ = ["DriftDecision", "DriftGate", "RefreshEpoch", "RefreshScheduler"]


@dataclass(frozen=True)
class DriftDecision:
    """One :meth:`DriftGate.assess` verdict over a pending batch."""

    #: MMD between the pending batch and the reference window (``None``
    #: when no MMD threshold is configured)
    mmd: float | None
    mmd_threshold: float | None
    #: absolute difference in positive-label rate vs the reference
    label_shift: float | None
    label_shift_threshold: float | None
    #: whether the batch was large enough to assess at all
    assessed: bool
    #: final verdict: any configured threshold exceeded
    drifted: bool


class DriftGate:
    """Decides whether pending rows drifted from the training history.

    Parameters
    ----------
    mmd_threshold:
        Fire when the MMD between the (standardised) pending batch and
        the reference window exceeds this.  Calibrate against
        :func:`repro.temporal.drift.mmd_drift_profile` of the history —
        a threshold around the profile's ceiling means "as different as
        the strongest year-over-year drift seen in training".
    label_shift_threshold:
        Fire when the positive-rate difference vs the reference window
        exceeds this (prior drift can move while covariates stay put).
    min_samples:
        Batches smaller than this are never assessed (``assessed=False``
        and ``drifted=False``): tiny-batch MMD is sampling noise, so the
        scheduler keeps buffering instead.
    reference_width:
        Width (in timestamp units) of the trailing history window used
        as the "present" reference distribution.
    """

    def __init__(
        self,
        mmd_threshold: float | None = None,
        label_shift_threshold: float | None = None,
        *,
        min_samples: int = 20,
        reference_width: float = 1.0,
    ):
        if mmd_threshold is None and label_shift_threshold is None:
            raise ForecastError(
                "DriftGate needs mmd_threshold and/or label_shift_threshold"
            )
        if reference_width <= 0:
            raise ForecastError("reference_width must be positive")
        self.mmd_threshold = mmd_threshold
        self.label_shift_threshold = label_shift_threshold
        self.min_samples = int(min_samples)
        self.reference_width = float(reference_width)
        # per-history RKHS setup (scaler + kernel + reference embedding):
        # rebuilt only when the history object changes, i.e. once per
        # refresh epoch, not once per poll.  The key is a strong
        # reference compared by identity — an id() key would collide
        # when CPython reuses a freed history's address, silently
        # assessing drift against a stale reference
        self._cache_history: TemporalDataset | None = None
        self._cache: tuple | None = None

    def _reference_setup(self, history: TemporalDataset):
        if self._cache_history is not history:
            lo, hi = history.span
            start = max(lo, hi - self.reference_width)
            reference = history.window(start, np.nextafter(hi, np.inf))
            scaler = StandardScaler().fit(history.X)
            kernel = RBFKernel(median_heuristic_gamma(scaler.transform(history.X)))
            embedding = WeightedSample.mean_embedding(
                scaler.transform(reference.X)
            )
            self._cache_history = history
            self._cache = (scaler, kernel, embedding, float(reference.y.mean()))
        return self._cache

    def assess(
        self,
        history: TemporalDataset,
        pending: TemporalDataset,
        weights: np.ndarray | None = None,
    ) -> DriftDecision:
        """Compare ``pending`` against the trailing window of ``history``.

        ``weights`` (optional, one non-negative value per pending row)
        turns both statistics into their weighted forms: the batch
        embedding becomes ``Σ w_i φ(x_i) / Σ w_i`` and the positive rate
        a weighted mean — the scheduler's exponentially-weighted pending
        window assesses recent arrivals more than stale buffered rows.
        """
        if len(pending) < self.min_samples:
            return DriftDecision(
                mmd=None,
                mmd_threshold=self.mmd_threshold,
                label_shift=None,
                label_shift_threshold=self.label_shift_threshold,
                assessed=False,
                drifted=False,
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=float).ravel()
            if weights.shape[0] != len(pending):
                raise ForecastError(
                    f"{weights.shape[0]} weights for {len(pending)} pending rows"
                )
            total = float(weights.sum())
            if np.any(weights < 0) or total <= 0:
                raise ForecastError(
                    "weights must be non-negative with a positive sum"
                )
            weights = weights / total
        scaler, kernel, reference, reference_rate = self._reference_setup(history)
        observed_mmd = None
        if self.mmd_threshold is not None:
            standardised = scaler.transform(pending.X)
            batch = (
                WeightedSample.mean_embedding(standardised)
                if weights is None
                else WeightedSample(standardised, weights)
            )
            observed_mmd = float(mmd(kernel, reference, batch))
        shift = None
        if self.label_shift_threshold is not None:
            rate = (
                pending.y.mean()
                if weights is None
                else float(weights @ pending.y)
            )
            shift = float(abs(rate - reference_rate))
        drifted = (
            self.mmd_threshold is not None
            and observed_mmd is not None
            and observed_mmd > self.mmd_threshold
        ) or (
            self.label_shift_threshold is not None
            and shift is not None
            and shift > self.label_shift_threshold
        )
        return DriftDecision(
            mmd=observed_mmd,
            mmd_threshold=self.mmd_threshold,
            label_shift=shift,
            label_shift_threshold=self.label_shift_threshold,
            assessed=True,
            drifted=drifted,
        )


@dataclass(frozen=True)
class RefreshEpoch:
    """One scheduler-triggered refresh over the buffered rows."""

    index: int
    #: rows ingested by this epoch's refresh
    rows: int
    #: what opened the epoch: ``'drift'``, ``'cadence'``, ``'pending-cap'``
    #: or ``'flush'`` (explicit/final flush)
    trigger: str
    #: the gate verdict that (did or did not) fire, ``None`` without a gate
    drift: DriftDecision | None
    #: the underlying refresh outcome
    report: object


class RefreshScheduler:
    """Streaming refresh driver over one system and one feed.

    Parameters
    ----------
    system:
        A fitted :class:`~repro.core.system.JustInTime` with registered
        (or resumed) sessions and a training history.
    feed:
        Source of newly arrived labeled rows.
    gate:
        Optional :class:`DriftGate`; when given, drift fires a refresh
        regardless of cadence.
    cadence:
        Optional seconds (of ``clock``) between refreshes; elapsed
        cadence with pending rows fires a refresh even without drift.
        At least one of ``gate`` / ``cadence`` is required.
    min_batch:
        Buffer at least this many rows before any trigger may fire.
    max_pending_rows:
        Hard cap on the buffer; reaching it forces a refresh
        (back-pressure for quiet gates).
    warm_start:
        Forwarded to :meth:`JustInTime.refresh` (``None`` = the config
        default).
    clock:
        Monotonic-seconds source, injectable in tests.
    gate_mode:
        How the gate sees the pending rows.  ``'merged'`` (default, the
        original behaviour) assesses the whole concatenated buffer —
        which lets quiet buffered rows dilute a drifted batch below the
        threshold.  ``'batch'`` assesses each polled batch on arrival
        (small polls accumulate until ``gate.min_samples`` rows) and a
        drifted verdict **sticks** until the next epoch, so a drifted
        batch buried under later quiet arrivals still fires.  ``'ewma'``
        assesses the merged buffer under exponentially decaying weights
        (recent batches count more; see ``ewma_halflife``) — a softer
        compromise that still ages quiet rows out of the statistic.
    ewma_halflife:
        Half-life, in *batches*, of the ``'ewma'`` weights: a row's
        weight halves every this many batches that arrive after it.
    refresh:
        The epoch executor, ``callable(data, warm_start) -> report``;
        defaults to ``system.refresh``.  The orchestrator substitutes
        refit + worker-pool dispatch here, reusing all the
        buffering/gating machinery above it, and runs its own durable
        per-epoch budget through the store.
    """

    GATE_MODES = ("merged", "batch", "ewma")

    def __init__(
        self,
        system,
        feed: DataFeed,
        *,
        gate: DriftGate | None = None,
        cadence: float | None = None,
        min_batch: int = 1,
        max_pending_rows: int | None = None,
        warm_start: bool | None = None,
        clock=time.monotonic,
        gate_mode: str = "merged",
        ewma_halflife: float = 2.0,
        refresh=None,
    ):
        if gate is None and cadence is None:
            raise ForecastError(
                "RefreshScheduler needs a DriftGate and/or a cadence"
            )
        if cadence is not None and cadence < 0:
            raise ForecastError("cadence must be >= 0")
        if min_batch < 1:
            raise ForecastError("min_batch must be >= 1")
        if gate_mode not in self.GATE_MODES:
            raise ForecastError(
                f"gate_mode must be one of {self.GATE_MODES}, got {gate_mode!r}"
            )
        if gate_mode != "merged" and gate is None:
            raise ForecastError(
                f"gate_mode {gate_mode!r} needs a DriftGate"
            )
        if ewma_halflife <= 0:
            raise ForecastError("ewma_halflife must be positive")
        self.system = system
        self.feed = feed
        self.gate = gate
        self.cadence = cadence
        self.min_batch = int(min_batch)
        self.max_pending_rows = max_pending_rows
        self.warm_start = warm_start
        self.clock = clock
        self.gate_mode = gate_mode
        self.ewma_halflife = float(ewma_halflife)
        self._refresh = refresh
        self.epochs: list[RefreshEpoch] = []
        self._pending: list[TemporalDataset] = []
        self._pending_rows = 0
        self._last_refresh = float(clock())
        # last gate verdict, keyed on the buffer size it was computed
        # for: idle polls (feed returned nothing) re-use it instead of
        # re-embedding the whole unchanged pending buffer every poll
        self._assessed: tuple[int, DriftDecision] | None = None
        # 'batch' mode state: polled rows not yet assessed (arrivals
        # smaller than the gate's min_samples accumulate until one
        # assessment covers them) and the sticky drifted verdict
        self._unassessed: list[TemporalDataset] = []
        self._sticky: DriftDecision | None = None
        self._last_batch_decision: DriftDecision | None = None

    # ---------------------------------------------------------------- state

    @property
    def pending_rows(self) -> int:
        """Rows buffered but not yet refreshed into the system."""
        return self._pending_rows

    # ---------------------------------------------------------------- steps

    def poll_once(self) -> RefreshEpoch | None:
        """One scheduler step: poll the feed, maybe open an epoch.

        Returns the epoch if a refresh ran, else ``None`` (no new data,
        or data buffered below every trigger).
        """
        batch = self.feed.poll()
        if batch is not None and len(batch):
            self._pending.append(batch)
            self._pending_rows += len(batch)
            if self.gate is not None and self.gate_mode == "batch":
                self._assess_arrival(batch)
        if self._pending_rows < self.min_batch:
            return None
        decision = None
        trigger = None
        if self.gate is not None:
            decision = self._gate_decision()
            if decision is not None and decision.drifted:
                trigger = "drift"
        if trigger is None and self.cadence is not None:
            if float(self.clock()) - self._last_refresh >= self.cadence:
                trigger = "cadence"
        if trigger is None and self.max_pending_rows is not None:
            if self._pending_rows >= self.max_pending_rows:
                trigger = "pending-cap"
        if trigger is None:
            return None
        return self._open_epoch(trigger, decision)

    def _assess_arrival(self, batch: TemporalDataset) -> None:
        """'batch' mode: assess newly polled rows on arrival.

        Arrivals smaller than the gate's ``min_samples`` accumulate in
        an unassessed tail until one assessment can cover them; a
        drifted verdict sticks (``self._sticky``) until the next epoch,
        so quiet rows arriving later can never bury it.
        """
        self._unassessed.append(batch)
        tail = (
            self._unassessed[0]
            if len(self._unassessed) == 1
            else TemporalDataset.concat(self._unassessed)
        )
        if len(tail) < self.gate.min_samples:
            return
        decision = self.gate.assess(self.system.history, tail)
        self._unassessed = []
        self._last_batch_decision = decision
        if decision.drifted and self._sticky is None:
            self._sticky = decision

    def _gate_decision(self) -> DriftDecision | None:
        """The gate verdict for the current pending buffer, per mode."""
        if self.gate_mode == "batch":
            return (
                self._sticky
                if self._sticky is not None
                else self._last_batch_decision
            )
        if self._assessed is not None and self._assessed[0] == self._pending_rows:
            return self._assessed[1]  # buffer unchanged since last poll
        pending = TemporalDataset.concat(self._pending)
        weights = self._ewma_weights() if self.gate_mode == "ewma" else None
        decision = self.gate.assess(self.system.history, pending, weights=weights)
        self._assessed = (self._pending_rows, decision)
        return decision

    def _ewma_weights(self) -> np.ndarray:
        """Per-row weights decaying with batch age: the newest batch has
        weight 1, a batch ``a`` arrivals older ``0.5 ** (a / halflife)``.
        Ages are measured in buffered batches, so idle polls change
        nothing and the pending-size cache stays valid.

        ``TemporalDataset`` re-sorts rows by timestamp on construction,
        so the arrival-order weights are permuted by the same stable
        argsort :meth:`TemporalDataset.concat` applies — weight ``i``
        lands on the row it was computed for.
        """
        newest = len(self._pending) - 1
        raw = np.concatenate(
            [
                np.full(
                    len(batch),
                    0.5 ** ((newest - i) / self.ewma_halflife),
                )
                for i, batch in enumerate(self._pending)
            ]
        )
        timestamps = np.concatenate(
            [batch.timestamps for batch in self._pending]
        )
        return raw[np.argsort(timestamps, kind="stable")]

    def flush(self) -> RefreshEpoch | None:
        """Refresh whatever is pending right now, bypassing the gates
        (end of a finite stream, or operator-forced)."""
        if not self._pending_rows:
            return None
        return self._open_epoch("flush", None)

    def _open_epoch(self, trigger: str, decision) -> RefreshEpoch:
        data = TemporalDataset.concat(self._pending)
        if self._refresh is None:
            report = self.system.refresh(data, warm_start=self.warm_start)
        else:
            report = self._refresh(data, self.warm_start)
        epoch = RefreshEpoch(
            index=len(self.epochs),
            rows=len(data),
            trigger=trigger,
            drift=decision,
            report=report,
        )
        self.epochs.append(epoch)
        self._pending = []
        self._pending_rows = 0
        self._assessed = None
        self._unassessed = []
        self._sticky = None
        self._last_batch_decision = None
        self._last_refresh = float(self.clock())
        return epoch

    def run(
        self,
        *,
        max_polls: int | None = None,
        max_epochs: int | None = None,
        poll_interval: float = 0.0,
        sleep=time.sleep,
        on_epoch=None,
    ) -> list[RefreshEpoch]:
        """Poll until the feed is exhausted or a budget is reached.

        ``on_epoch(epoch)`` is called after every refresh (the
        ``refresh-orchestrator`` verb reports each epoch there).  A
        finite feed's sub-threshold tail is flushed into one last
        refresh before the loop ends.  Returns the epochs run during
        *this* call.
        """
        first_epoch = len(self.epochs)
        polls = 0
        while True:
            if max_polls is not None and polls >= max_polls:
                break
            if max_epochs is not None and (
                len(self.epochs) - first_epoch >= max_epochs
            ):
                break
            epoch = self.poll_once()
            polls += 1
            if epoch is not None and on_epoch is not None:
                on_epoch(epoch)
            if self.feed.exhausted:
                final = self.flush()
                if final is not None and on_epoch is not None:
                    on_epoch(final)
                break
            if epoch is None and poll_interval > 0:
                sleep(poll_interval)
        return self.epochs[first_epoch:]
