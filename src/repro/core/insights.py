"""Insights: canned questions → SQL → verbal answers.

The demo's Queries screen offers predefined questions (the six from the
introduction); the Plans and Insights screen renders the answers "in the
form of verbal or graphic insights" (§I).  :class:`InsightEngine` is that
translation layer: it runs the Figure-2 SQL through :mod:`repro.db.queries`
and wraps results into :class:`Insight` objects carrying both structured
data and a human-readable rendering.

Every question also offers an *alternatives* view (``plans=k``): the
answering cell's stored diverse plan set — up to ``k`` recourse plans in
greedy max-min selection order, each with its objective quality and its
scaled distance to the nearest earlier pick.  The default ``plans=1``
keeps the classic single-plan answer, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.candidates import Candidate
from repro.core.objectives import CandidateMetrics
from repro.core.plans import Plan, build_plan
from repro.db import queries as canned
from repro.db.store import CandidateStore
from repro.exceptions import QueryError

__all__ = ["Insight", "InsightEngine", "PlanAlternative", "QUESTIONS"]

#: Catalog of predefined questions (id → UI title), as in the demo's
#: Queries screen.
QUESTIONS: dict[str, str] = {
    "q1": "No modification: when does reapplying unchanged get approved?",
    "q2": "Minimal features set: smallest set of features to modify?",
    "q3": "Dominant feature: does one feature alone work at all time points?",
    "q4": "Minimal overall modification: least total change that works?",
    "q5": "Maximal confidence: which change maximises approval chances?",
    "q6": "Turning point: from when is confidence > α always achievable?",
    "q7": "Affordable time: earliest approval within an effort budget?",
}


@dataclass(frozen=True)
class PlanAlternative:
    """One member of a stored diverse plan set.

    ``rank`` is the greedy max-min selection order (0 = the seed, the
    best plan under the objective), ``quality`` the objective key the
    plan was scored with (lower = better) and ``min_dist`` the scaled
    distance to the nearest earlier pick (``None`` for the seed).
    """

    plan: Plan
    rank: int
    quality: float | None
    min_dist: float | None


@dataclass(frozen=True)
class Insight:
    """Answer to one canned question."""

    question: str
    title: str
    answer: Any
    text: str
    plans: tuple[Plan, ...] = field(default=())
    #: the answering cell's diverse plan set (empty unless asked with
    #: ``plans=k > 1`` and the cell has stored plan-set metadata)
    alternatives: tuple[PlanAlternative, ...] = field(default=())

    def __str__(self) -> str:
        return self.text


class InsightEngine:
    """Per-user query/insight interface over the candidate store.

    Parameters
    ----------
    store:
        The populated candidate database.
    user_id:
        User whose candidates are queried.
    time_values:
        Calendar value per time index (``now + t·Δ``), used in renderings.
    """

    def __init__(
        self,
        store: CandidateStore,
        user_id: str,
        time_values: list[float],
    ):
        self.store = store
        self.user_id = user_id
        self.time_values = list(time_values)
        #: temporal input per time point, read once per engine (the
        #: server builds one engine per render attempt, so a retry after
        #: a refresh reads afresh)
        self._inputs: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------- helpers

    def _calendar(self, t: int) -> float:
        if 0 <= t < len(self.time_values):
            return self.time_values[t]
        return float(t)

    def _temporal_input(self, t: int) -> np.ndarray:
        base = self._inputs.get(t)
        if base is None:
            base = self._inputs[t] = self.store.temporal_input(self.user_id, t)
        return base

    def _plan_from_row(self, row: dict[str, Any]) -> Plan:
        t = int(row["time"])
        base = self._temporal_input(t)
        x = self.store.row_to_vector(row)
        candidate = Candidate(
            x,
            t,
            CandidateMetrics(
                diff=float(row["diff"]),
                gap=int(row["gap"]),
                confidence=float(row["p"]),
            ),
        )
        return build_plan(
            candidate, base, self.store.schema, time_value=self._calendar(t)
        )

    def _alternatives(
        self, t: int | None, plans: int
    ) -> tuple[PlanAlternative, ...]:
        """The answering cell's stored plan set as alternatives.

        ``plans=1`` (the default) returns the empty tuple so classic
        single-plan answers stay byte-identical; legacy cells without
        plan-set metadata also come back empty.
        """
        if plans < 1:
            raise QueryError("plans must be >= 1")
        if plans == 1 or t is None:
            return ()
        rows = canned.prepared(self.store).plan_set(
            self.store.read, self.user_id, int(t), plans
        )
        return tuple(
            PlanAlternative(
                plan=self._plan_from_row(row),
                rank=int(row["plan_rank"]),
                quality=(
                    None
                    if row["plan_quality"] is None
                    else float(row["plan_quality"])
                ),
                min_dist=(
                    None
                    if row["plan_min_dist"] is None
                    else float(row["plan_min_dist"])
                ),
            )
            for row in rows
        )

    # ------------------------------------------------------------ questions

    def ask(self, question: str, **params) -> Insight:
        """Dispatch a canned question by id (``'q1'`` .. ``'q7'``).

        ``plans=k`` attaches the answering cell's diverse plan set as
        :attr:`Insight.alternatives` (``k=1``, the default, does not).
        """
        handlers = {
            "q1": self.no_modification,
            "q2": self.minimal_features_set,
            "q3": self.dominant_feature,
            "q4": self.minimal_overall_modification,
            "q5": self.maximal_confidence,
            "q6": self.turning_point,
            "q7": self.affordable_time,
        }
        try:
            handler = handlers[question]
        except KeyError:
            raise QueryError(
                f"unknown question {question!r}; available: {sorted(handlers)}"
            ) from None
        return handler(**params)

    def no_modification(self, plans: int = 1) -> Insight:
        t = canned.q1_no_modification(self.store, self.user_id)
        if t is None:
            text = (
                "No future time point in the horizon approves your"
                " application without modifications."
            )
        else:
            text = (
                f"Reapplying with no modifications is expected to be"
                f" APPROVED from time point t={t} (≈ {self._calendar(t):.1f})."
            )
        return Insight(
            "q1", QUESTIONS["q1"], t, text,
            alternatives=self._alternatives(t, plans),
        )

    def minimal_features_set(self, plans: int = 1) -> Insight:
        row = canned.q2_minimal_features_set(self.store, self.user_id)
        if row is None:
            return Insight(
                "q2", QUESTIONS["q2"], None, "No decision-altering candidate exists.",
                alternatives=self._alternatives(None, plans),
            )
        plan = self._plan_from_row(row)
        features = [c.feature for c in plan.changes]
        if not features:
            text = (
                f"No features need modification: reapply at t={plan.time}"
                f" (≈ {plan.time_value:.1f})."
            )
        else:
            text = (
                f"The smallest modification set has {len(features)}"
                f" feature(s): {', '.join(features)}.\n{plan.describe()}"
            )
        return Insight(
            "q2", QUESTIONS["q2"], row, text, (plan,),
            alternatives=self._alternatives(int(row["time"]), plans),
        )

    def dominant_feature(self, feature: str, plans: int = 1) -> Insight:
        result = canned.q3_dominant_feature(self.store, self.user_id, feature)
        covered = result["times"]
        horizon = result["all_times"]
        feature_plans = tuple(
            self._plan_from_row(row)
            for row in self._single_feature_rows(feature, covered)
        )
        if result["dominant"]:
            text = (
                f"Yes — modifying only '{feature}' can lead to APPROVAL at"
                f" every time point {covered}."
            )
        elif covered:
            missing = sorted(set(horizon) - set(covered))
            text = (
                f"'{feature}' alone works at time points {covered},"
                f" but not at {missing} — it is not dominant."
            )
        else:
            text = f"Modifying only '{feature}' never suffices in the horizon."
        if feature_plans:
            text += "\n" + "\n".join(plan.describe() for plan in feature_plans)
        return Insight(
            "q3", QUESTIONS["q3"], result, text, feature_plans,
            alternatives=self._alternatives(
                covered[0] if covered else None, plans
            ),
        )

    def _single_feature_rows(self, feature: str, times) -> list[dict[str, Any]]:
        """Best single-feature (or zero-change) candidate per covered time."""
        return canned.prepared(self.store).q3_plan_rows(
            self.store.read, self.user_id, feature, times
        )

    def minimal_overall_modification(self, plans: int = 1) -> Insight:
        row = canned.q4_minimal_overall_modification(self.store, self.user_id)
        if row is None:
            return Insight(
                "q4", QUESTIONS["q4"], None, "No decision-altering candidate exists.",
                alternatives=self._alternatives(None, plans),
            )
        plan = self._plan_from_row(row)
        text = (
            f"The minimal overall modification (diff = {plan.diff:.3f})"
            f" is at t={plan.time} (≈ {plan.time_value:.1f}).\n{plan.describe()}"
        )
        return Insight(
            "q4", QUESTIONS["q4"], row, text, (plan,),
            alternatives=self._alternatives(int(row["time"]), plans),
        )

    def maximal_confidence(self, plans: int = 1) -> Insight:
        row = canned.q5_maximal_confidence(self.store, self.user_id)
        if row is None:
            return Insight(
                "q5", QUESTIONS["q5"], None, "No decision-altering candidate exists.",
                alternatives=self._alternatives(None, plans),
            )
        plan = self._plan_from_row(row)
        text = (
            f"The best achievable confidence is {plan.confidence:.2f}"
            f" at t={plan.time} (≈ {plan.time_value:.1f}).\n{plan.describe()}"
        )
        return Insight(
            "q5", QUESTIONS["q5"], row, text, (plan,),
            alternatives=self._alternatives(int(row["time"]), plans),
        )

    # ---------------------------------------------------------- series
    # The Plans-and-Insights screen also shows *graphic* insights
    # (Figure 3b); these per-time-point series are their data.

    def confidence_series(self) -> list[tuple[int, float | None]]:
        """Best achievable confidence per time point (None = no candidate)."""
        return self._series("MAX(p)")

    def effort_series(self) -> list[tuple[int, float | None]]:
        """Minimal required effort (diff) per time point."""
        return self._series("MIN(diff)")

    def gap_series(self) -> list[tuple[int, float | None]]:
        """Fewest feature changes needed per time point."""
        return self._series("MIN(gap)")

    def count_series(self) -> list[tuple[int, float | None]]:
        """Number of stored candidates per time point."""
        return self._series("COUNT(*)", zero_when_empty=True)

    def _series(
        self, aggregate: str, zero_when_empty: bool = False
    ) -> list[tuple[int, float | None]]:
        rows = canned.prepared(self.store).series(
            self.store.read, self.user_id, aggregate
        )
        by_time = {int(r["time"]): float(r["v"]) for r in rows}
        default = 0.0 if zero_when_empty else None
        return [
            (t, by_time.get(t, default))
            for t in self.store.times_for(self.user_id)
        ]

    def affordable_time(self, budget: float = 1.0, plans: int = 1) -> Insight:
        row = canned.q7_affordable_time(self.store, self.user_id, budget)
        if row is None:
            return Insight(
                "q7",
                QUESTIONS["q7"],
                None,
                f"No approval is reachable within an effort budget of"
                f" {budget:.2f} at any time point.",
                alternatives=self._alternatives(None, plans),
            )
        plan = self._plan_from_row(row)
        text = (
            f"Within an effort budget of {budget:.2f}, the earliest approval"
            f" is at t={plan.time} (≈ {plan.time_value:.1f}).\n{plan.describe()}"
        )
        return Insight(
            "q7", QUESTIONS["q7"], row, text, (plan,),
            alternatives=self._alternatives(int(row["time"]), plans),
        )

    def turning_point(self, alpha: float = 0.8, plans: int = 1) -> Insight:
        t = canned.q6_turning_point(self.store, self.user_id, alpha)
        if t is None:
            text = (
                f"There is no time point after which confidence > {alpha:.2f}"
                " is always achievable."
            )
        else:
            text = (
                f"From time point t={t} (≈ {self._calendar(t):.1f}) onward,"
                f" some modification always achieves confidence > {alpha:.2f}."
            )
        return Insight(
            "q6", QUESTIONS["q6"], t, text,
            alternatives=self._alternatives(t, plans),
        )
