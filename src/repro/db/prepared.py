"""Prepared-statement layer for the Figure-2 canned queries.

Every canned query used to rebuild its SQL text per call — f-string
interpolation of the dialect placeholder, identifier validation, the
works — which is pure waste on a serving tier answering the same six
questions millions of times.  :class:`PreparedQueries` compiles each
query **once per (dialect placeholder, feature schema)** and exposes
bind-per-call methods; :func:`prepared_for` memoises instances so every
caller in the process shares one compiled set.

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

from repro.exceptions import QueryError

__all__ = ["PreparedQueries", "prepared_for", "row_to_dict"]

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


class PreparedQueries:
    """Q1–Q7 (and their helper queries) compiled once per dialect.

    Parameters
    ----------
    placeholder:
        The dialect's bind-parameter marker
        (:meth:`~repro.db.backends.StoreBackend.placeholder`).
    feature_names:
        Schema feature names, used to validate Q3's feature argument
        before it is interpolated as an identifier.
    """

    __slots__ = (
        "placeholder",
        "features",
        "_sql",
        "_feature_sql",
        "_series_sql",
        "_age_sql",
    )

    def __init__(self, placeholder: str, feature_names) -> None:
        ph = placeholder
        self.placeholder = ph
        self.features = tuple(str(name) for name in feature_names)
        self._sql = {
            "q1": (
                "SELECT MIN(time) AS t FROM candidates"
                f" WHERE user_id = {ph} AND diff <= {ph}"
            ),
            "q2": (
                f"SELECT * FROM candidates WHERE user_id = {ph}"
                " ORDER BY gap, diff, p DESC LIMIT 1"
            ),
            "q4": (
                f"SELECT * FROM candidates WHERE user_id = {ph}"
                " ORDER BY diff, gap, p DESC LIMIT 1"
            ),
            "q5": (
                f"SELECT * FROM candidates WHERE user_id = {ph}"
                " ORDER BY p DESC, diff LIMIT 1"
            ),
            # Q6's universal quantification as a double NOT EXISTS
            # (Figure 2 uses the non-portable ``>= ALL``); named binds —
            # every DB-API paramstyle family supports dict binding
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
                f" WHERE user_id = {ph} AND diff <= {ph}"
                " ORDER BY time, diff, p DESC LIMIT 1"
            ),
            "times": (
                "SELECT DISTINCT time FROM temporal_inputs"
                f" WHERE user_id = {ph} ORDER BY time"
            ),
            "ledger": (
                "SELECT time, model_fp FROM temporal_inputs"
                f" WHERE user_id = {ph} ORDER BY time"
            ),
            "input": (
                "SELECT * FROM temporal_inputs"
                f" WHERE user_id = {ph} AND time = {ph}"
            ),
            # one cell's stored diverse plan set in selection order; rows
            # with plan_rank < 0 (legacy databases) carry no set
            "plan_set": (
                "SELECT * FROM candidates"
                f" WHERE user_id = {ph} AND time = {ph} AND plan_rank >= 0"
                f" ORDER BY plan_rank, id LIMIT {ph}"
            ),
        }
        #: per-feature SQL (Q3 and its plan lookup) built on first use
        self._feature_sql: dict[str, tuple[str, str]] = {}
        #: per-aggregate series SQL built on first use
        self._series_sql: dict[str, str] = {}
        #: per-clock-expression freshness SQL built on first use (the
        #: clock expression is backend-owned, not part of this cache key)
        self._age_sql: dict[str, str] = {}

    # ---------------------------------------------------------- helpers

    def _require_feature(self, feature: str) -> None:
        if feature not in self.features:
            raise QueryError(
                f"unknown feature {feature!r}; schema has {list(self.features)}"
            )

    def _feature_pair(self, feature: str) -> tuple[str, str]:
        """(q3 SQL, single-feature plan-row SQL) for one feature —
        identifier-validated once, compiled once."""
        self._require_feature(feature)
        pair = self._feature_sql.get(feature)
        if pair is None:
            ph = self.placeholder
            q3 = f"""
                SELECT DISTINCT c.time AS t
                FROM candidates c
                WHERE c.user_id = :user AND EXISTS (
                    SELECT 1
                    FROM candidates cnd
                    INNER JOIN temporal_inputs ti
                        ON ti.time = cnd.time AND ti.user_id = cnd.user_id
                    WHERE cnd.user_id = :user
                      AND cnd.time = c.time
                      AND (cnd.gap = 0
                           OR (cnd.gap = 1 AND cnd.{feature} != ti.{feature}))
                )
                ORDER BY t
                """
            plan = f"""
                SELECT c.* FROM candidates c
                INNER JOIN temporal_inputs ti
                    ON ti.user_id = c.user_id AND ti.time = c.time
                WHERE c.user_id = {ph} AND c.time = {ph}
                  AND (c.gap = 0 OR (c.gap = 1 AND c.{feature} != ti.{feature}))
                ORDER BY c.diff LIMIT 1
                """
            pair = (q3, plan)
            self._feature_sql[feature] = pair
        return pair

    # --------------------------------------------------------- questions

    def q1(self, read: Reader, user_id: str) -> int | None:
        rows = read(self._sql["q1"], (user_id, _DIFF_EPS))
        value = rows[0]["t"]
        return None if value is None else int(value)

    def q2(self, read: Reader, user_id: str) -> dict[str, Any] | None:
        rows = read(self._sql["q2"], (user_id,))
        return row_to_dict(rows[0]) if rows else None

    def q3(
        self, read: Reader, user_id: str, feature: str, all_times
    ) -> dict[str, Any]:
        sql, _ = self._feature_pair(feature)
        rows = read(sql, {"user": user_id})
        times = [int(r["t"]) for r in rows]
        all_times = list(all_times)
        return {
            "times": times,
            "all_times": all_times,
            "dominant": bool(all_times) and set(times) == set(all_times),
        }

    def q3_plan_rows(
        self, read: Reader, user_id: str, feature: str, times
    ) -> list[dict[str, Any]]:
        """Best single-feature (or zero-change) candidate per covered time."""
        _, sql = self._feature_pair(feature)
        rows = []
        for t in times:
            got = read(sql, (user_id, int(t)))
            if got:
                rows.append(row_to_dict(got[0]))
        return rows

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

    def plan_set(
        self, read: Reader, user_id: str, time: int, k: int
    ) -> list[dict[str, Any]]:
        """The top-``k`` prefix of one cell's stored diverse plan set.

        Rows come back in greedy selection order (``plan_rank``).  Cells
        written before plan-set metadata existed have no ranked rows and
        return ``[]`` — callers fall back to the single-plan view.
        """
        if k < 1:
            raise QueryError("plan count must be >= 1")
        rows = read(self._sql["plan_set"], (user_id, int(time), int(k)))
        return [row_to_dict(r) for r in rows]

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
                f" WHERE user_id = {self.placeholder} GROUP BY time"
            )
            self._series_sql[aggregate] = sql
        return read(sql, (user_id,))

    def times_for(self, read: Reader, user_id: str) -> list[int]:
        """Sorted distinct time points present in temporal_inputs."""
        return [int(r["time"]) for r in read(self._sql["times"], (user_id,))]

    def cell_fingerprints(self, read: Reader, user_id: str) -> dict[int, str]:
        """``{time: model_fp}`` ledger slice for one user — the exact
        cache-invalidation signal of the serving tier."""
        return {
            int(r["time"]): str(r["model_fp"])
            for r in read(self._sql["ledger"], (user_id,))
        }

    def temporal_input_row(self, read: Reader, user_id: str, time: int):
        """The raw temporal-input row of one cell, or ``None``."""
        rows = read(self._sql["input"], (user_id, int(time)))
        return rows[0] if rows else None

    def oldest_age(
        self, read: Reader, user_id: str, clock_sql: str
    ) -> float | None:
        """Age in seconds of the user's oldest ``refreshed_at`` stamp,
        measured **entirely on the store clock**: the stamp was written
        via the backend's clock expression, so the subtraction must read
        the same expression (``clock_sql``,
        :meth:`~repro.db.backends.StoreBackend.clock_sql`) — subtracting
        a store stamp from host ``time.time()`` would fold host↔store
        clock skew into the reported freshness.  One round-trip: clock
        read and subtraction happen in the same query.  ``None`` for
        unknown users or never-stamped rows (``refreshed_at = 0``,
        pre-priority databases).
        """
        sql = self._age_sql.get(clock_sql)
        if sql is None:
            sql = (
                "SELECT CASE WHEN MIN(refreshed_at) IS NULL"
                " OR MIN(refreshed_at) <= 0 THEN NULL"
                f" ELSE {clock_sql} - MIN(refreshed_at) END AS age"
                f" FROM temporal_inputs WHERE user_id = {self.placeholder}"
            )
            self._age_sql[clock_sql] = sql
        rows = read(sql, (user_id,))
        value = rows[0]["age"] if rows else None
        if value is None:
            return None
        return max(0.0, float(value))


_PREPARED_CACHE: dict[tuple, PreparedQueries] = {}


def prepared_for(placeholder: str, feature_names) -> PreparedQueries:
    """The process-wide compiled query set for one (dialect, schema).

    Memoised: every store, replica connection and serving worker that
    shares a placeholder and feature schema binds against the same SQL
    text objects (which also keeps sqlite3's per-connection statement
    cache hot — stable text is the cache key).
    """
    key = (str(placeholder), tuple(str(n) for n in feature_names))
    prepared = _PREPARED_CACHE.get(key)
    if prepared is None:
        prepared = PreparedQueries(key[0], key[1])
        _PREPARED_CACHE[key] = prepared
    return prepared
