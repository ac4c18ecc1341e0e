"""Tests for ConstraintsFunction, l2_diff and l0_gap."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.constraints import ConstraintsFunction, ScopedConstraint, l0_gap, l2_diff
from repro.constraints import parse_constraint
from repro.constraints.evaluate import diff_gap_batch, l0_gap_batch, l2_diff_batch
from repro.exceptions import ConstraintError

vectors = arrays(
    dtype=float,
    shape=st.integers(1, 8),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


class TestDistances:
    def test_diff_zero_iff_equal(self):
        x = np.array([1.0, 2.0])
        assert l2_diff(x, x) == 0.0
        assert l2_diff(x, x + 1e-3) > 0.0

    def test_diff_known(self):
        assert l2_diff([3.0, 4.0], [0.0, 0.0]) == pytest.approx(5.0)

    def test_diff_scaled(self):
        assert l2_diff([10.0], [0.0], scale=[10.0]) == pytest.approx(1.0)

    def test_diff_shape_mismatch(self):
        with pytest.raises(ConstraintError):
            l2_diff([1.0], [1.0, 2.0])

    def test_diff_bad_scale(self):
        with pytest.raises(ConstraintError):
            l2_diff([1.0], [0.0], scale=[0.0])
        with pytest.raises(ConstraintError):
            l2_diff([1.0], [0.0], scale=[1.0, 2.0])

    def test_gap_counts_changes(self):
        assert l0_gap([1.0, 2.0, 3.0], [1.0, 5.0, 3.0]) == 1
        assert l0_gap([1.0, 2.0], [1.0, 2.0]) == 0
        assert l0_gap([0.0, 0.0], [1.0, 1.0]) == 2

    def test_gap_tolerates_float_noise(self):
        assert l0_gap([1.0 + 1e-12], [1.0]) == 0

    @given(vectors)
    def test_diff_symmetry(self, x):
        z = np.zeros_like(x)
        assert l2_diff(x, z) == pytest.approx(l2_diff(z, x))

    @given(vectors)
    def test_gap_bounded_by_dimension(self, x):
        assert 0 <= l0_gap(x, np.zeros_like(x)) <= x.size

    @pytest.mark.parametrize("n", [0, 1, 40])
    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_diff_gap_batch_is_both_batches(self, n, per_row, scaled):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-6, 6, size=(n, 5))
        base = X + rng.normal(size=X.shape) * (rng.random(X.shape) < 0.4)
        base[::3, 1] = X[::3, 1] + 1e-12  # a change within the gap tolerance
        base = base if per_row else rng.normal(size=5)
        scale = rng.random(5) + 0.5 if scaled else None
        diff, gap = diff_gap_batch(X, base, scale)
        want_diff = l2_diff_batch(X, base, scale)
        want_gap = l0_gap_batch(X, base)
        assert diff.dtype == want_diff.dtype and diff.tobytes() == want_diff.tobytes()
        assert gap.dtype == want_gap.dtype and gap.tobytes() == want_gap.tobytes()

    def test_diff_gap_batch_validates_like_both(self):
        X = np.zeros((3, 2))
        with pytest.raises(ConstraintError, match="shape mismatch in diff"):
            diff_gap_batch(X, np.zeros(3))
        with pytest.raises(ConstraintError, match="scale entries"):
            diff_gap_batch(X, np.zeros(2), scale=[1.0, 0.0])
        with pytest.raises(ConstraintError, match="scale shape"):
            diff_gap_batch(X, np.zeros(2), scale=[1.0])


class TestConstraintsFunction(object):
    def _fn(self, schema, *texts, times=None):
        fn = ConstraintsFunction(schema)
        for text in texts:
            fn.add(text, times=times)
        return fn

    def test_empty_function_accepts_everything(self, schema, john):
        fn = ConstraintsFunction(schema)
        assert fn.is_valid(john, john, confidence=0.0, time=0)

    def test_unconstrained_helper(self, schema, john):
        fn = ConstraintsFunction.unconstrained(schema)
        assert fn.is_valid(john * 0 + 50, john, confidence=0.0, time=0)

    def test_simple_bound(self, schema, john):
        fn = self._fn(schema, "annual_income <= 60000")
        assert fn.is_valid(john, john, confidence=0.5, time=0)
        too_rich = john.copy()
        too_rich[schema.index_of("annual_income")] = 90_000
        assert not fn.is_valid(too_rich, john, confidence=0.5, time=0)

    def test_special_confidence(self, schema, john):
        fn = self._fn(schema, "confidence >= 0.8")
        assert fn.is_valid(john, john, confidence=0.9, time=0)
        assert not fn.is_valid(john, john, confidence=0.5, time=0)

    def test_special_gap(self, schema, john):
        fn = self._fn(schema, "gap <= 1")
        one_change = john.copy()
        one_change[schema.index_of("monthly_debt")] = 100
        assert fn.is_valid(one_change, john, confidence=0.5, time=0)
        two_changes = one_change.copy()
        two_changes[schema.index_of("loan_amount")] = 5_000
        assert not fn.is_valid(two_changes, john, confidence=0.5, time=0)

    def test_diff_uses_scale(self, schema, john):
        scale = np.full(len(schema), 2.0)
        fn = ConstraintsFunction(schema, diff_scale=scale)
        fn.add("diff <= 1")
        moved = john.copy()
        moved[schema.index_of("monthly_debt")] += 2.0  # scaled diff = 1.0
        assert fn.is_valid(moved, john, confidence=0.5, time=0)
        moved[schema.index_of("monthly_debt")] += 1.0  # scaled diff = 1.5
        assert not fn.is_valid(moved, john, confidence=0.5, time=0)

    def test_base_reference(self, schema, john):
        fn = self._fn(schema, "annual_income <= base_annual_income * 1.1")
        ok = john.copy()
        ok[schema.index_of("annual_income")] *= 1.05
        assert fn.is_valid(ok, john, confidence=0.5, time=0)
        too_much = john.copy()
        too_much[schema.index_of("annual_income")] *= 1.2
        assert not fn.is_valid(too_much, john, confidence=0.5, time=0)

    def test_time_scoping(self, schema, john):
        fn = ConstraintsFunction(schema)
        fn.add("monthly_debt <= 100", times=[2])
        # violating vector passes at t=0 but fails at t=2
        assert fn.is_valid(john, john, confidence=0.5, time=0)
        assert not fn.is_valid(john, john, confidence=0.5, time=2)

    def test_time_scope_single_int(self, schema, john):
        fn = ConstraintsFunction(schema)
        fn.add("monthly_debt <= 100", times=1)
        assert not fn.is_valid(john, john, confidence=0.5, time=1)
        assert fn.is_valid(john, john, confidence=0.5, time=3)

    def test_unknown_identifier_rejected_at_add(self, schema):
        fn = ConstraintsFunction(schema)
        with pytest.raises(ConstraintError, match="unknown identifier"):
            fn.add("salary <= 100")

    def test_conjoin_merges(self, schema, john):
        a = self._fn(schema, "annual_income <= 60000")
        b = self._fn(schema, "monthly_debt <= 100")
        joined = a.conjoin(b)
        assert len(joined) == 2
        assert not joined.is_valid(john, john, confidence=0.5, time=0)

    def test_conjoin_schema_mismatch(self, schema):
        from repro.data import DatasetSchema, FeatureSpec

        other = ConstraintsFunction(DatasetSchema([FeatureSpec("zzz")]))
        with pytest.raises(ConstraintError):
            ConstraintsFunction(schema).conjoin(other)

    def test_violated_lists_failures(self, schema, john):
        fn = self._fn(schema, "annual_income <= 1", "monthly_debt <= 1")
        bad = fn.violated(john, john, confidence=0.5, time=0)
        assert len(bad) == 2

    def test_scoped_constraint_str(self):
        sc = ScopedConstraint(parse_constraint("gap <= 1"), frozenset([0, 2]))
        assert "t in [0, 2]" in str(sc)

    def test_add_prescoped(self, schema, john):
        sc = ScopedConstraint(parse_constraint("gap <= 0"), None)
        fn = ConstraintsFunction(schema).add(sc)
        moved = john.copy()
        moved[schema.index_of("monthly_debt")] += 1
        assert not fn.is_valid(moved, john, confidence=0.5, time=0)
