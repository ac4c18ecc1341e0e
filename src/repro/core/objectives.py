"""Candidate objectives: diff, gap and confidence (§II.A).

The adapted search of [5] "incorporat[es] diverse objectives (confidence,
gap and diff) ... as opposed to a single distance measure".  This module
defines the measurement of those three quantities for a candidate (one
shared definition with the constraints layer) and scalarisations used to
rank beam states and final candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constraints.evaluate import diff_gap_batch, l0_gap, l2_diff
from repro.exceptions import CandidateSearchError

__all__ = [
    "CandidateMetrics",
    "BatchCandidateMetrics",
    "measure",
    "measure_batch",
    "Objective",
    "OBJECTIVE_PRESETS",
]


@dataclass(frozen=True)
class CandidateMetrics:
    """The three special properties of one candidate.

    ``diff`` is measured in the (optionally scaled) l2 sense against the
    temporal input; ``gap`` is the modified-coordinate count;
    ``confidence`` is the model score ``M_t(x')``.
    """

    diff: float
    gap: int
    confidence: float


def measure(x_prime, x_base, confidence: float, diff_scale=None) -> CandidateMetrics:
    """Compute the metrics triple for candidate ``x_prime``."""
    return CandidateMetrics(
        diff=l2_diff(x_prime, x_base, diff_scale),
        gap=l0_gap(x_prime, x_base),
        confidence=float(confidence),
    )


@dataclass(frozen=True)
class BatchCandidateMetrics:
    """Metrics of ``n`` candidates as three aligned ``(n,)`` arrays.

    ``row(i)`` recovers the scalar :class:`CandidateMetrics` of one row,
    bit-identical to calling :func:`measure` on that row alone.
    """

    diff: np.ndarray
    gap: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return self.diff.shape[0]

    def row(self, i: int) -> CandidateMetrics:
        return CandidateMetrics(
            diff=float(self.diff[i]),
            gap=int(self.gap[i]),
            confidence=float(self.confidence[i]),
        )


def measure_batch(
    X_prime, x_base, confidence, diff_scale=None
) -> BatchCandidateMetrics:
    """Vectorized :func:`measure` over an ``(n, d)`` candidate matrix,
    against one base row or an ``(n, d)`` matrix of per-row base rows."""
    diff, gap = diff_gap_batch(X_prime, x_base, diff_scale)
    return BatchCandidateMetrics(
        diff=diff, gap=gap, confidence=np.asarray(confidence, dtype=float).ravel()
    )


@dataclass(frozen=True)
class Objective:
    """Weighted scalarisation over (diff, gap, 1 - confidence).

    Lower is better.  ``key(metrics)`` is usable directly as a sort key.
    The weights express the trade-off a user cares about; presets cover
    the paper's three pure objectives plus a balanced default.
    """

    w_diff: float = 1.0
    w_gap: float = 0.0
    w_confidence: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if self.w_diff < 0 or self.w_gap < 0 or self.w_confidence < 0:
            raise CandidateSearchError("objective weights must be non-negative")
        if self.w_diff + self.w_gap + self.w_confidence == 0:
            raise CandidateSearchError("objective needs at least one positive weight")

    def key(self, metrics: CandidateMetrics) -> float:
        return (
            self.w_diff * metrics.diff
            + self.w_gap * metrics.gap
            + self.w_confidence * (1.0 - metrics.confidence)
        )

    def key_batch(self, metrics: BatchCandidateMetrics) -> np.ndarray:
        """Elementwise :meth:`key` over batch metrics (same op order, so
        the floats match the scalar path exactly)."""
        return (
            self.w_diff * metrics.diff
            + self.w_gap * metrics.gap
            + self.w_confidence * (1.0 - metrics.confidence)
        )

    def rank(self, metrics_list) -> np.ndarray:
        """Indices sorting ``metrics_list`` best-first under this objective."""
        keys = np.array([self.key(m) for m in metrics_list])
        return np.argsort(keys, kind="stable")


OBJECTIVE_PRESETS: dict[str, Objective] = {
    "diff": Objective(1.0, 0.0, 0.0, name="diff"),
    "gap": Objective(0.0, 1.0, 0.0, name="gap"),
    "confidence": Objective(0.0, 0.0, 1.0, name="confidence"),
    "balanced": Objective(0.5, 0.25, 0.25, name="balanced"),
}


def get_objective(objective: "str | Objective") -> Objective:
    """Resolve a preset name or pass an :class:`Objective` through."""
    if isinstance(objective, Objective):
        return objective
    try:
        return OBJECTIVE_PRESETS[objective]
    except KeyError:
        raise CandidateSearchError(
            f"unknown objective {objective!r};"
            f" presets: {sorted(OBJECTIVE_PRESETS)}"
        ) from None
