"""Wire format of the serving tier.

One canonical JSON serialization shared by the HTTP API and the CLI's
``--json`` output mode, so "the same answer" is checkable as *byte*
equality: ``dumps`` sorts keys and strips whitespace, and the payload
builders emit plain JSON types only (plan fields as float/int, tuples as
lists).  Answers arrive as plain values and pass through unconverted:
Q1 and Q6 an int or ``None``, the row questions a dict of sqlite column
values, Q3 a dict of int lists and a bool.

The bundle payload carries the user's fingerprint ledger alongside the
insights — a client (or test) can therefore verify exactly which model
state each answer was rendered under, which is what the cache-freshness
assertions key on.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.insights import Insight, PlanAlternative
from repro.core.plans import FeatureChange, Plan

__all__ = [
    "alternative_payload",
    "bundle_payload",
    "dumps",
    "insight_payload",
    "orchestrator_payload",
    "plan_payload",
]

#: candidate-row columns that are storage metadata, not answer content:
#: ``id`` is the sqlite rowid (reassigned on every cell rewrite) and the
#: ``plan_*`` columns describe the stored plan set, which the wire
#: format carries in the dedicated ``alternatives`` field instead
_ROW_METADATA_COLUMNS = frozenset(
    {"id", "plan_rank", "plan_quality", "plan_min_dist"}
)


def dumps(payload: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace — byte-stable for
    equal payloads regardless of construction order."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def plan_payload(plan: Plan) -> dict[str, Any]:
    """A :class:`Plan` as plain JSON data (text rendering included)."""
    return {
        "time": int(plan.time),
        "time_value": float(plan.time_value),
        "confidence": float(plan.confidence),
        "diff": float(plan.diff),
        "gap": int(plan.gap),
        "changes": [_change_payload(change) for change in plan.changes],
        "text": plan.describe(),
    }


def _change_payload(change: FeatureChange) -> dict[str, Any]:
    return {
        "feature": change.feature,
        "from": float(change.from_value),
        "to": float(change.to_value),
    }


def alternative_payload(alternative: PlanAlternative) -> dict[str, Any]:
    """One stored plan-set member: the plan plus its selection metadata."""
    return {
        "rank": int(alternative.rank),
        "quality": (
            None if alternative.quality is None else float(alternative.quality)
        ),
        "min_dist": (
            None
            if alternative.min_dist is None
            else float(alternative.min_dist)
        ),
        "plan": plan_payload(alternative.plan),
    }


def insight_payload(insight: Insight) -> dict[str, Any]:
    """An :class:`Insight` as plain JSON data.

    Row answers drop the ``id`` column — it is a storage artifact (the
    sqlite rowid, reassigned whenever a refresh rewrites a cell), so
    keeping it would make byte-identical model states serialize
    differently, the same reason ``contents_digest()`` excludes it —
    and the plan-set metadata columns, which travel in ``alternatives``.

    ``alternatives`` is emitted only when non-empty (``plans=k > 1``
    requests), so default answers stay byte-identical to the
    pre-plan-set wire format.
    """
    answer = insight.answer
    if isinstance(answer, dict):
        answer = {key: value for key, value in answer.items()
                  if key not in _ROW_METADATA_COLUMNS}
    payload = {
        "question": insight.question,
        "title": insight.title,
        "answer": answer,
        "text": insight.text,
        "plans": [plan_payload(plan) for plan in insight.plans],
    }
    if insight.alternatives:
        payload["alternatives"] = [
            alternative_payload(a) for a in insight.alternatives
        ]
    return payload


def bundle_payload(
    user_id: str,
    insights: dict[str, Insight],
    ledger: dict[int, str],
    freshness: float | None = None,
) -> dict[str, Any]:
    """The per-user insight bundle: every requested question's answer
    plus the fingerprint ledger the answers were computed under.

    ``freshness`` (seconds — the age of the *oldest* cell backing the
    answers, from the store's ``refreshed_at`` stamps) adds an optional
    ``meta.freshness`` field.  It is off by default and omitted when
    ``None`` so the payload stays byte-identical to the pre-freshness
    wire format unless a caller explicitly asks.
    """
    payload = {
        "user": str(user_id),
        "ledger": {str(t): fp for t, fp in sorted(ledger.items())},
        "insights": {
            qid: insight_payload(insight)
            for qid, insight in sorted(insights.items())
        },
    }
    if freshness is not None:
        payload["meta"] = {"freshness": float(freshness)}
    return payload


def orchestrator_payload(store) -> dict[str, Any]:
    """Orchestrator health/metrics as plain JSON — the body of the
    ``/v1/orchestrator`` endpoint and of the CLI's
    ``orchestrator-status`` verb, built from durable store state only
    (leader seat, last checkpointed metrics snapshot, budget,
    freshness), so any process that can open the store can answer.

    ``leader`` (or the whole payload's inner fields) is ``None`` until
    a node campaigns / an orchestrator checkpoints — a deployment
    without HA still gets budget and freshness.
    """
    from repro.exceptions import StorageError

    now = store.clock_now()
    leader = store.leader_status(now=now)
    snapshot = store.orchestrator_metrics()
    try:
        freshness = store.freshness_report()
    except StorageError:
        freshness = None
    return {
        "now": float(now),
        "leader": leader,
        "metrics": None if snapshot is None else snapshot["metrics"],
        "metrics_updated_at": (
            None if snapshot is None else snapshot["updated_at"]
        ),
        "budget_remaining": store.refresh_budget_remaining(),
        "freshness": freshness,
    }
