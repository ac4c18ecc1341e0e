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

One engine renders a set of answers in one pass: each piece of work
its questions share — the user's temporal inputs, a candidate row's
plan, a cell's plan set — is done once per engine (see
:class:`InsightEngine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.candidates import Candidate
from repro.core.objectives import CandidateMetrics
from repro.core.plans import Plan, build_plan
from repro.db import queries as canned
from repro.db.prepared import q3_answer
from repro.db.store import CandidateStore
from repro.exceptions import QueryError, StorageError

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

    An engine keeps what its questions share, for its own lifetime:

    * the user's temporal inputs, all read in one statement on first
      need — the base vector of every plan and Q3's horizon;
    * one :class:`~repro.core.plans.Plan` per candidate row ``id``
      (a row two questions return is built, and its text rendered,
      once);
    * one plan set per ``(time, k)``.

    So an engine must not outlive a write to its user's rows: the
    server builds one per render attempt (a retry after a refresh
    lands gets a new one) and :attr:`UserSession.engine
    <repro.core.system.UserSession.engine>` a fresh one per access.

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
        self._queries = canned.prepared(store)
        self._read = store.read
        self._inputs: dict[int, np.ndarray] | None = None
        self._plans: dict[int, Plan] = {}
        self._plan_sets: dict[tuple[int, int], tuple[PlanAlternative, ...]] = {}

    # ------------------------------------------------------------- helpers

    def _calendar(self, t: int) -> float:
        if 0 <= t < len(self.time_values):
            return self.time_values[t]
        return float(t)

    def _temporal_inputs(self) -> dict[int, np.ndarray]:
        """``{time: temporal input}`` of the user, in time order."""
        inputs = self._inputs
        if inputs is None:
            to_vector = self.store.row_to_vector
            inputs = self._inputs = {
                int(row["time"]): to_vector(row)
                for row in self._queries.inputs(self._read, self.user_id)
            }
        return inputs

    def _horizon(self) -> list[int]:
        """The user's time points, ascending."""
        return list(self._temporal_inputs())

    def _plan_from_row(self, row) -> Plan:
        plan = self._plans.get(row["id"])
        if plan is not None:
            return plan
        t = int(row["time"])
        base = self._temporal_inputs().get(t)
        if base is None:
            raise StorageError(
                f"no temporal input for user {self.user_id!r} at time {t}"
            )
        candidate = Candidate(
            self.store.row_to_vector(row),
            t,
            CandidateMetrics(
                diff=float(row["diff"]),
                gap=int(row["gap"]),
                confidence=float(row["p"]),
            ),
        )
        plan = self._plans[row["id"]] = build_plan(
            candidate, base, self.store.schema, time_value=self._calendar(t)
        )
        return plan

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
        key = (int(t), plans)
        alternatives = self._plan_sets.get(key)
        if alternatives is None:
            rows = self._queries.plan_set(self._read, self.user_id, *key)
            alternatives = self._plan_sets[key] = tuple(
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
        return alternatives

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
        t = self._queries.q1(self._read, self.user_id)
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
        row = self._queries.q2(self._read, self.user_id)
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
        feature_plans = tuple(
            self._plan_from_row(row)
            for row in self._queries.q3(self._read, self.user_id, feature)
        )
        covered = [plan.time for plan in feature_plans]
        horizon = self._horizon()
        result = q3_answer(covered, horizon)
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

    def minimal_overall_modification(self, plans: int = 1) -> Insight:
        row = self._queries.q4(self._read, self.user_id)
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
        row = self._queries.q5(self._read, self.user_id)
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
        rows = self._queries.series(self._read, self.user_id, aggregate)
        by_time = {int(r["time"]): float(r["v"]) for r in rows}
        default = 0.0 if zero_when_empty else None
        return [(t, by_time.get(t, default)) for t in self._horizon()]

    def affordable_time(self, budget: float = 1.0, plans: int = 1) -> Insight:
        row = self._queries.q7(self._read, self.user_id, budget)
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
        t = self._queries.q6(self._read, self.user_id, alpha)
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
