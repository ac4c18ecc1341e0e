"""Action plans: the user-facing view of a candidate.

A candidate is a vector; a *plan* is what the UI's "Plans and Insights"
screen shows — per-feature actions ("decrease monthly_debt by $600
(-23%)"), the time point to reapply at, and the expected confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.candidates import Candidate
from repro.data.schema import DatasetSchema

__all__ = ["FeatureChange", "Plan", "build_plan"]


@dataclass(frozen=True)
class FeatureChange:
    """One per-feature action in a plan."""

    feature: str
    from_value: float
    to_value: float

    @property
    def delta(self) -> float:
        return self.to_value - self.from_value

    @property
    def pct(self) -> float | None:
        """Relative change in percent; ``None`` when the base is zero."""
        if self.from_value == 0:
            return None
        return 100.0 * self.delta / abs(self.from_value)

    def describe(self) -> str:
        verb = "increase" if self.delta > 0 else "decrease"
        amount = f"{abs(self.delta):,.6g}"
        pct = self.pct
        suffix = f" ({pct:+.0f}%)" if pct is not None else ""
        return (
            f"{verb} {self.feature} from {self.from_value:,.6g}"
            f" to {self.to_value:,.6g} [{'+' if self.delta > 0 else '-'}{amount}]"
            f"{suffix}"
        )


@dataclass(frozen=True)
class Plan:
    """A complete reapplication plan derived from one candidate.

    Its text is rendered on the first :meth:`describe` and kept: an
    answer's text and its wire payload both carry it.
    """

    time: int
    time_value: float
    confidence: float
    diff: float
    gap: int
    changes: tuple[FeatureChange, ...]

    def describe(self) -> str:
        """Multi-line verbal rendering for the insights screen."""
        return self._text

    @cached_property
    def _text(self) -> str:
        header = (
            f"At time point t={self.time} (≈ {self.time_value:.1f}),"
            f" expected confidence {self.confidence:.2f}"
            f" with {self.gap} feature change(s), effort (diff) {self.diff:.3f}:"
        )
        if not self.changes:
            return header + "\n  - reapply with no modifications"
        lines = [f"  - {change.describe()}" for change in self.changes]
        return "\n".join([header, *lines])


def build_plan(
    candidate: Candidate,
    x_base,
    schema: DatasetSchema,
    *,
    time_value: float | None = None,
) -> Plan:
    """Turn a candidate (vs its temporal input) into a plan.

    ``x_base`` must be the temporal input at the candidate's time point;
    differences against it are genuine user actions, not time drift.
    """
    x_base = np.asarray(x_base, dtype=float).ravel()
    changes = tuple(
        FeatureChange(name, from_value, to_value)
        for name, (from_value, to_value) in candidate.changes(x_base, schema).items()
    )
    return Plan(
        time=candidate.time,
        time_value=float(time_value if time_value is not None else candidate.time),
        confidence=candidate.confidence,
        diff=candidate.diff,
        gap=candidate.gap,
        changes=changes,
    )
