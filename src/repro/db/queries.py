"""The six canned queries of Figure 2.

Each function mirrors one predefined question from the paper's
introduction and its SQL from Figure 2, scoped to a single user (the
demo's candidates table is per-user; the reproduction stores all users in
one table with a ``user_id`` column, so every query adds that predicate).

Deviations from the verbatim Figure-2 SQL, all semantic-preserving:

* ``diff = 0`` is ``diff <= :eps`` — diff is a float computed in a scaled
  space;
* Q3's feature column is parametrised (Figure 2 hard-codes ``income``);
  the column name is validated against the schema before interpolation;
* Q6's ``>= ALL (...)`` (not valid SQLite) is rewritten with the standard
  double ``NOT EXISTS`` encoding of universal quantification.

Every function returns plain Python values / row dicts, ready for the
insights layer.

The SQL itself lives in :mod:`repro.db.prepared`, compiled once per
feature schema and bound per call — these functions are the
store-facing entry points, going through the public
:meth:`CandidateStore.read` seam.
The serving tier binds the *same* compiled statements against its
read-only replica connections, which is what guarantees byte-identical
answers between the two paths.
"""

from __future__ import annotations

from typing import Any

from repro.db.prepared import PreparedQueries, prepared_for, q3_answer, row_to_dict
from repro.db.store import CandidateStore

__all__ = [
    "prepared",
    "q1_no_modification",
    "q2_minimal_features_set",
    "q3_dominant_feature",
    "q4_minimal_overall_modification",
    "q5_maximal_confidence",
    "q6_turning_point",
    "q7_affordable_time",
    "row_to_dict",
]


def prepared(store: CandidateStore) -> PreparedQueries:
    """The compiled query set matching ``store``'s feature schema."""
    return prepared_for(store.schema.names)


def q1_no_modification(store: CandidateStore, user_id: str) -> int | None:
    """Q1: closest time point at which reapplying *unchanged* is approved.

    Figure 2: ``SELECT Min(time) FROM candidates WHERE diff = 0``.
    Returns the time index, or ``None`` when no such point exists.
    """
    return prepared(store).q1(store.read, user_id)


def q7_affordable_time(
    store: CandidateStore, user_id: str, budget: float
) -> dict[str, Any] | None:
    """Q7 (extension): earliest time reachable within an effort budget.

    Not one of the six Figure-2 queries — the paper presents its list as
    examples ("such as") and this is the natural seventh: "given that I
    can only afford ``diff <= budget`` of change, when is the earliest I
    can be approved, and how?"  Returns the cheapest qualifying row at
    the earliest qualifying time, or ``None``.
    """
    return prepared(store).q7(store.read, user_id, budget)


def q2_minimal_features_set(
    store: CandidateStore, user_id: str
) -> dict[str, Any] | None:
    """Q2: the candidate modifying the fewest features.

    Figure 2: ``SELECT * FROM candidates ORDER BY gap LIMIT 1`` (diff then
    confidence break ties deterministically).
    """
    return prepared(store).q2(store.read, user_id)


def q3_dominant_feature(
    store: CandidateStore, user_id: str, feature: str
) -> dict[str, Any]:
    """Q3: at which time points does modifying *only* ``feature`` suffice?

    Figure 2 (for income): times with a candidate of ``gap = 0`` or
    ``gap = 1`` whose single change is the feature.  The feature is
    *dominant* when those times cover every time point in the user's
    horizon.  Returns ``{'times': [...], 'all_times': [...], 'dominant': bool}``.
    """
    rows = prepared(store).q3(store.read, user_id, feature)
    return q3_answer([int(row["time"]) for row in rows], store.times_for(user_id))


def q4_minimal_overall_modification(
    store: CandidateStore, user_id: str
) -> dict[str, Any] | None:
    """Q4: the overall-minimal modification by the diff distance measure.

    Figure 2: ``SELECT Min(diff) FROM candidates``; the full achieving row
    is returned so the UI can render the plan, not just the number.
    """
    return prepared(store).q4(store.read, user_id)


def q5_maximal_confidence(
    store: CandidateStore, user_id: str
) -> dict[str, Any] | None:
    """Q5: the modification (and time) maximising approval confidence.

    Figure 2: ``SELECT * FROM candidates ORDER BY p DESC LIMIT 1``.
    """
    return prepared(store).q5(store.read, user_id)


def q6_turning_point(
    store: CandidateStore, user_id: str, alpha: float
) -> int | None:
    """Q6: earliest time after which confidence > α is always achievable.

    Smallest time point t* such that *every* time point ``t >= t*`` has a
    candidate with ``p > α``; ``None`` when even the final time point has
    no such candidate.  Universal quantification is encoded with a double
    ``NOT EXISTS`` (Figure 2 uses the non-portable ``>= ALL``).
    """
    return prepared(store).q6(store.read, user_id, alpha)
