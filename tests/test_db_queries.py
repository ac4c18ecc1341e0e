"""Exact-semantics tests for the six Figure-2 canned queries.

The store is populated with hand-crafted candidates so every query's
answer is known by construction (no search involved).
"""

import numpy as np
import pytest

from repro.core import Candidate, CandidateMetrics
from repro.db import (
    CandidateStore,
    q1_no_modification,
    q2_minimal_features_set,
    q3_dominant_feature,
    q4_minimal_overall_modification,
    q5_maximal_confidence,
    q6_turning_point,
)
from repro.exceptions import QueryError


def cand(x, time, diff, gap, p):
    return Candidate(
        np.asarray(x, dtype=float), time, CandidateMetrics(diff=diff, gap=gap, confidence=p)
    )


@pytest.fixture()
def populated(schema, john):
    """Controlled store: user 'u' with times 0..3 plus a decoy user."""
    store = CandidateStore(schema)
    debt = schema.index_of("monthly_debt")
    income = schema.index_of("annual_income")
    age = schema.index_of("age")

    trajectory = np.vstack([john] * 4)
    for t in range(4):
        trajectory[t, age] = john[age] + t
    store.store_temporal_inputs("u", trajectory)

    # t0: two-feature change, low confidence
    a = trajectory[0].copy()
    a[debt] -= 500
    a[income] += 5_000
    # t1: the unmodified temporal input flips (no-modification point)
    b = trajectory[1].copy()
    # t2: single-feature change (debt), high confidence
    c = trajectory[2].copy()
    c[debt] -= 800
    # t3: single-feature change (debt), decent confidence
    d = trajectory[3].copy()
    d[debt] -= 300
    store.store_candidates(
        "u",
        [
            cand(a, 0, diff=2.0, gap=2, p=0.60),
            cand(b, 1, diff=0.0, gap=0, p=0.55),
            cand(c, 2, diff=1.0, gap=1, p=0.90),
            cand(d, 3, diff=0.5, gap=1, p=0.85),
        ],
    )
    # decoy user whose rows must never leak into 'u' answers
    store.store_temporal_inputs("decoy", trajectory)
    decoy = trajectory[0].copy()
    store.store_candidates("decoy", [cand(decoy, 0, diff=0.0, gap=0, p=0.99)])
    yield store
    store.close()


class TestQ1NoModification:
    def test_finds_earliest_diff_zero(self, populated):
        assert q1_no_modification(populated, "u") == 1

    def test_none_when_absent(self, schema, john):
        store = CandidateStore(schema)
        store.store_candidates("u", [cand(john, 0, diff=1.0, gap=1, p=0.9)])
        assert q1_no_modification(store, "u") is None

    def test_scoped_to_user(self, populated):
        # decoy has diff=0 at t=0; 'u' must still answer 1
        assert q1_no_modification(populated, "u") == 1


class TestQ2MinimalFeaturesSet:
    def test_picks_smallest_gap(self, populated):
        row = q2_minimal_features_set(populated, "u")
        assert row["gap"] == 0
        assert row["time"] == 1

    def test_tie_breaks_by_diff(self, schema, john):
        store = CandidateStore(schema)
        store.store_temporal_inputs("u", john.reshape(1, -1))
        store.store_candidates(
            "u",
            [
                cand(john, 0, diff=2.0, gap=1, p=0.6),
                cand(john, 0, diff=1.0, gap=1, p=0.6),
            ],
        )
        assert q2_minimal_features_set(store, "u")["diff"] == pytest.approx(1.0)

    def test_none_on_empty(self, schema):
        store = CandidateStore(schema)
        assert q2_minimal_features_set(store, "u") is None


class TestQ3DominantFeature:
    def test_covered_times(self, populated):
        result = q3_dominant_feature(populated, "u", "monthly_debt")
        assert result["times"] == [1, 2, 3]
        assert result["all_times"] == [0, 1, 2, 3]
        assert result["dominant"] is False

    def test_dominant_when_all_covered(self, schema, john):
        store = CandidateStore(schema)
        debt = schema.index_of("monthly_debt")
        trajectory = np.vstack([john] * 2)
        store.store_temporal_inputs("u", trajectory)
        rows = []
        for t in range(2):
            x = trajectory[t].copy()
            x[debt] -= 100
            rows.append(cand(x, t, diff=0.5, gap=1, p=0.8))
        store.store_candidates("u", rows)
        result = q3_dominant_feature(store, "u", "monthly_debt")
        assert result["dominant"] is True

    def test_other_single_feature_does_not_count(self, populated):
        """Income-only changes exist at t0 with gap 2 — not single-feature;
        income is never the lone changed feature."""
        result = q3_dominant_feature(populated, "u", "annual_income")
        # t1's gap-0 candidate counts for any feature (per Figure 2's OR)
        assert result["times"] == [1]

    def test_unknown_feature(self, populated):
        with pytest.raises(QueryError):
            q3_dominant_feature(populated, "u", "salary")


class TestQ4MinimalOverall:
    def test_min_diff_row(self, populated):
        row = q4_minimal_overall_modification(populated, "u")
        assert row["diff"] == pytest.approx(0.0)
        assert row["time"] == 1

    def test_none_on_empty(self, schema):
        store = CandidateStore(schema)
        assert q4_minimal_overall_modification(store, "u") is None


class TestQ5MaximalConfidence:
    def test_max_p_row(self, populated):
        row = q5_maximal_confidence(populated, "u")
        assert row["p"] == pytest.approx(0.90)
        assert row["time"] == 2

    def test_scoped_to_user(self, populated):
        # decoy has p=0.99
        assert q5_maximal_confidence(populated, "u")["p"] < 0.99


class TestQ6TurningPoint:
    def test_turning_point_exists(self, populated):
        # p > 0.8 achievable at t2 (0.90) and t3 (0.85) but not before
        assert q6_turning_point(populated, "u", alpha=0.8) == 2

    def test_alpha_low_gives_zero(self, populated):
        # every time point has p > 0.5
        assert q6_turning_point(populated, "u", alpha=0.5) == 0

    def test_none_when_final_time_fails(self, populated):
        assert q6_turning_point(populated, "u", alpha=0.95) is None

    def test_gap_in_middle_handled(self, schema, john):
        """Times 0 and 2 qualify but 1 does not -> turning point is 2."""
        store = CandidateStore(schema)
        store.store_temporal_inputs("u", np.vstack([john] * 3))
        store.store_candidates(
            "u",
            [
                cand(john, 0, diff=1.0, gap=1, p=0.9),
                cand(john, 1, diff=1.0, gap=1, p=0.3),
                cand(john, 2, diff=1.0, gap=1, p=0.9),
            ],
        )
        assert q6_turning_point(store, "u", alpha=0.8) == 2

    def test_alpha_validation(self, populated):
        with pytest.raises(QueryError):
            q6_turning_point(populated, "u", alpha=1.5)


class TestPublicReadSurface:
    """The store's read seam is public API (the serving tier builds on
    it)."""

    def test_read_and_placeholder(self, populated):
        rows = populated.read(
            "SELECT COUNT(*) AS n FROM candidates WHERE user_id = ?",
            ("u",),
        )
        assert rows[0]["n"] == 4


class TestPreparedLayer:
    def test_prepared_for_memoised_per_dialect_and_schema(self, schema):
        from repro.db import prepared_for

        a = prepared_for(schema.names)
        b = prepared_for(list(schema.names))
        assert a is b  # same features -> one compiled set
        c = prepared_for(schema.names[:-1])
        assert c is not a
        assert c.features == tuple(schema.names[:-1])

    def test_prepared_helper_resolves_store_dialect(self, populated):
        from repro.db import prepared_for
        from repro.db.queries import prepared

        assert prepared(populated) is prepared_for(populated.schema.names)

    def test_prepared_answers_match_module_functions(self, populated):
        from repro.db.queries import prepared

        p = prepared(populated)
        assert p.q1(populated.read, "u") == q1_no_modification(populated, "u")
        assert dict(p.q5(populated.read, "u")) == dict(
            q5_maximal_confidence(populated, "u")
        )
        assert p.cell_fingerprints(populated.read, "u") == (
            populated.cell_fingerprints("u")
        )
