"""Prepared-statement layer for the Figure-2 canned queries.

Every canned query used to rebuild its SQL text per call — string
interpolation, identifier validation, the works — which is pure waste
on a serving tier answering the same six questions millions of times.
:class:`PreparedQueries` compiles each query **once per feature
schema** and exposes bind-per-call methods; :func:`prepared_for`
memoises instances so every caller in the process shares one compiled
set.  The SQL is SQLite's: ``?`` binds, named ``:user``/``:alpha``
binds where one value repeats, and the store-side clock
(:data:`~repro.db.backends.CLOCK_SQL`).

Two layers of reuse stack here:

* the SQL *text* is built once (this module), and
* sqlite3 itself caches the compiled statement per connection keyed on
  that text (``cached_statements``, default 128) — stable text means
  the serving tier's replica connections never re-parse the SQL either.

Queries take a ``read`` callable (``read(sql, params) -> rows``) rather
than a store, so the same compiled set serves
:class:`~repro.db.store.CandidateStore` (via :mod:`repro.db.queries`),
the serving tier's read-only replica connections
(:class:`~repro.serve.pool.ReplicaStoreView`), and anything else that
can execute SQL.  Validation semantics (feature names, ``alpha`` and
``budget`` ranges) are owned here so no two callers can diverge.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.db.backends import CLOCK_SQL
from repro.exceptions import QueryError

__all__ = ["PreparedQueries", "prepared_for", "q3_answer", "row_to_dict"]

#: ``diff = 0`` tolerance — diff is a float computed in a scaled space.
_DIFF_EPS = 1e-9

#: Aggregates the per-time-point series query accepts (the graphic
#: insights of Figure 3b); a whitelist because the aggregate is
#: interpolated into SQL text.
_SERIES_AGGREGATES = ("MAX(p)", "MIN(diff)", "MIN(gap)", "COUNT(*)")

Reader = Callable[..., list]


def row_to_dict(row) -> dict[str, Any]:
    """Convert a sqlite3.Row (or mapping-like row) to a plain dict."""
    return {key: row[key] for key in row.keys()}


def q3_answer(times: list[int], all_times: list[int]) -> dict[str, Any]:
    """Q3's answer from its covered times and the user's horizon: the
    feature is *dominant* when it covers every time point."""
    return {
        "times": times,
        "all_times": all_times,
        "dominant": bool(all_times) and set(times) == set(all_times),
    }


class PreparedQueries:
    """Q1–Q7 (and their helper queries) compiled once per schema.

    Parameters
    ----------
    feature_names:
        Schema feature names, used to validate Q3's feature argument
        before it is interpolated as an identifier.
    """

    __slots__ = ("features", "_sql", "_feature_sql", "_series_sql")

    def __init__(self, feature_names) -> None:
        self.features = tuple(str(name) for name in feature_names)
        self._sql = {
            "q1": (
                "SELECT MIN(time) AS t FROM candidates"
                " WHERE user_id = ? AND diff <= ?"
            ),
            "q2": (
                "SELECT * FROM candidates WHERE user_id = ?"
                " ORDER BY gap, diff, p DESC LIMIT 1"
            ),
            "q4": (
                "SELECT * FROM candidates WHERE user_id = ?"
                " ORDER BY diff, gap, p DESC LIMIT 1"
            ),
            "q5": (
                "SELECT * FROM candidates WHERE user_id = ?"
                " ORDER BY p DESC, diff LIMIT 1"
            ),
            # Q6's universal quantification as a double NOT EXISTS
            # (Figure 2 uses the ``>= ALL`` SQLite lacks); named binds,
            # because the user id appears three times
            "q6": """
                SELECT MIN(ti.time) AS t
                FROM temporal_inputs ti
                WHERE ti.user_id = :user
                  AND NOT EXISTS (
                      SELECT 1
                      FROM temporal_inputs t2
                      WHERE t2.user_id = :user
                        AND t2.time >= ti.time
                        AND NOT EXISTS (
                            SELECT 1
                            FROM candidates c
                            WHERE c.user_id = :user
                              AND c.time = t2.time
                              AND c.p > :alpha
                        )
                  )
                """,
            "q7": (
                "SELECT * FROM candidates"
                " WHERE user_id = ? AND diff <= ?"
                " ORDER BY time, diff, p DESC LIMIT 1"
            ),
            "ledger": (
                "SELECT time, model_fp FROM temporal_inputs"
                " WHERE user_id = ? ORDER BY time"
            ),
            # every temporal input of one user: the rows give the plans
            # their base vectors and Q3 its horizon
            "inputs": (
                "SELECT * FROM temporal_inputs"
                " WHERE user_id = ? ORDER BY time"
            ),
            # one cell's stored diverse plan set in selection order; rows
            # with plan_rank < 0 (legacy databases) carry no set
            "plan_set": (
                "SELECT * FROM candidates"
                " WHERE user_id = ? AND time = ? AND plan_rank >= 0"
                " ORDER BY plan_rank, id LIMIT ?"
            ),
            # oldest refreshed_at stamp's age, clock read and subtraction
            # in one query; NULL for never-stamped rows
            "age": (
                "SELECT CASE WHEN MIN(refreshed_at) IS NULL"
                " OR MIN(refreshed_at) <= 0 THEN NULL"
                f" ELSE {CLOCK_SQL} - MIN(refreshed_at) END AS age"
                " FROM temporal_inputs WHERE user_id = ?"
            ),
        }
        #: per-feature Q3 SQL built on first use
        self._feature_sql: dict[str, str] = {}
        #: per-aggregate series SQL built on first use
        self._series_sql: dict[str, str] = {}

    # ---------------------------------------------------------- helpers

    def _require_feature(self, feature: str) -> None:
        if feature not in self.features:
            raise QueryError(
                f"unknown feature {feature!r}; schema has {list(self.features)}"
            )

    def _q3_sql(self, feature: str) -> str:
        """Q3's SQL for one feature — identifier-validated once,
        compiled once.

        A candidate row *works with the feature alone* when it changes
        nothing (``gap = 0``) or changes one feature and that feature
        differs from the cell's temporal input.  Per time point the
        statement keeps the first such row by ``(diff, id)``: the
        cheapest, ties to the earliest written.  (``ROW_NUMBER()``
        needs SQLite 3.25 or later.)
        """
        self._require_feature(feature)
        sql = self._feature_sql.get(feature)
        if sql is None:
            sql = f"""
                SELECT * FROM (
                    SELECT c.*, ROW_NUMBER() OVER (
                        PARTITION BY c.time ORDER BY c.diff, c.id
                    ) AS pick
                    FROM candidates c
                    INNER JOIN temporal_inputs ti
                        ON ti.user_id = c.user_id AND ti.time = c.time
                    WHERE c.user_id = ?
                      AND (c.gap = 0
                           OR (c.gap = 1 AND c.{feature} != ti.{feature}))
                )
                WHERE pick = 1
                ORDER BY time
                """
            self._feature_sql[feature] = sql
        return sql

    # --------------------------------------------------------- questions

    def q1(self, read: Reader, user_id: str) -> int | None:
        rows = read(self._sql["q1"], (user_id, _DIFF_EPS))
        value = rows[0]["t"]
        return None if value is None else int(value)

    def q2(self, read: Reader, user_id: str) -> dict[str, Any] | None:
        rows = read(self._sql["q2"], (user_id,))
        return row_to_dict(rows[0]) if rows else None

    def q3(self, read: Reader, user_id: str, feature: str) -> list:
        """Q3 in one statement over all of the user's time points: the
        best single-feature (or zero-change) row of each time point the
        feature covers, in time order.  The covered times are the rows'
        times (:func:`q3_answer` turns them into the answer)."""
        return read(self._q3_sql(feature), (user_id,))

    def q4(self, read: Reader, user_id: str) -> dict[str, Any] | None:
        rows = read(self._sql["q4"], (user_id,))
        return row_to_dict(rows[0]) if rows else None

    def q5(self, read: Reader, user_id: str) -> dict[str, Any] | None:
        rows = read(self._sql["q5"], (user_id,))
        return row_to_dict(rows[0]) if rows else None

    def q6(self, read: Reader, user_id: str, alpha: float) -> int | None:
        if not 0.0 <= alpha <= 1.0:
            raise QueryError("alpha must lie in [0, 1]")
        rows = read(self._sql["q6"], {"user": user_id, "alpha": alpha})
        value = rows[0]["t"]
        return None if value is None else int(value)

    def q7(
        self, read: Reader, user_id: str, budget: float
    ) -> dict[str, Any] | None:
        if budget < 0:
            raise QueryError("budget must be non-negative")
        rows = read(self._sql["q7"], (user_id, float(budget)))
        return row_to_dict(rows[0]) if rows else None

    def plan_set(self, read: Reader, user_id: str, time: int, k: int) -> list:
        """The top-``k`` prefix of one cell's stored diverse plan set.

        Rows come back in greedy selection order (``plan_rank``).  Cells
        written before plan-set metadata existed have no ranked rows and
        return ``[]`` — callers fall back to the single-plan view.
        """
        if k < 1:
            raise QueryError("plan count must be >= 1")
        return read(self._sql["plan_set"], (user_id, int(time), int(k)))

    # ----------------------------------------------------------- helpers

    def series(
        self, read: Reader, user_id: str, aggregate: str
    ) -> list:
        """Per-time-point aggregate rows (the Figure-3b series data)."""
        sql = self._series_sql.get(aggregate)
        if sql is None:
            if aggregate not in _SERIES_AGGREGATES:
                raise QueryError(
                    f"unknown series aggregate {aggregate!r};"
                    f" choose from {_SERIES_AGGREGATES}"
                )
            sql = (
                f"SELECT time, {aggregate} AS v FROM candidates"
                " WHERE user_id = ? GROUP BY time"
            )
            self._series_sql[aggregate] = sql
        return read(sql, (user_id,))

    def cell_fingerprints(self, read: Reader, user_id: str) -> dict[int, str]:
        """``{time: model_fp}`` ledger slice for one user — the exact
        cache-invalidation signal of the serving tier.  Built straight
        from the ``(time, model_fp)`` rows, so it iterates in time
        order."""
        return dict(read(self._sql["ledger"], (user_id,)))

    def inputs(self, read: Reader, user_id: str) -> list:
        """Every temporal-input row of one user, in time order."""
        return read(self._sql["inputs"], (user_id,))

    def oldest_age(self, read: Reader, user_id: str) -> float | None:
        """Age in seconds of the user's oldest ``refreshed_at`` stamp,
        measured **entirely on the store clock**: the stamp was written
        from :data:`~repro.db.backends.CLOCK_SQL`, so the subtraction
        reads the same expression — subtracting a store stamp from host
        ``time.time()`` would fold host↔store clock skew into the
        reported freshness.  One round-trip: clock read and subtraction
        happen in the same query.  ``None`` for unknown users or
        never-stamped rows (``refreshed_at = 0``, pre-priority
        databases).
        """
        rows = read(self._sql["age"], (user_id,))
        value = rows[0]["age"] if rows else None
        if value is None:
            return None
        return max(0.0, float(value))


_PREPARED_CACHE: dict[tuple, PreparedQueries] = {}


def prepared_for(feature_names) -> PreparedQueries:
    """The process-wide compiled query set for one feature schema.

    Memoised: every store, replica connection and serving worker that
    shares a feature schema binds against the same SQL text objects
    (which also keeps sqlite3's per-connection statement cache hot —
    stable text is the cache key).
    """
    key = tuple(str(n) for n in feature_names)
    prepared = _PREPARED_CACHE.get(key)
    if prepared is None:
        prepared = PreparedQueries(key)
        _PREPARED_CACHE[key] = prepared
    return prepared
