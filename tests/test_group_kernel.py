"""The group step kernel: one dedupe and one absorb per group of cells.

Each lock-stepped round of :func:`generate_fused` dedupes, measures,
counts constraint violations, pools, ranks and checks patience once for
every group of cells that share a time point, a model and the generator
settings the kernel reads once (``CandidateGenerator._kernel_key``); a
lone :meth:`CandidateGenerator.generate` runs the same kernel as a
one-cell group.  Every cell of a mixed group must get exactly what it
gets on its own — candidates and every ``SearchStats`` field — and what
the row-at-a-time ``_generate_scalar`` gets.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import lending_domain_constraints
from repro.constraints.evaluate import (
    ConstraintsFunction,
    ScopedConstraint,
    grouped_violation_counts,
    l0_gap,
    l0_gap_batch,
    l2_diff,
    l2_diff_batch,
)
from repro.constraints.parser import parse_constraint
from repro.core import CandidateGenerator, FusedCell, generate_fused
from repro.data import john_profile, lending_schema, make_lending_dataset
from repro.exceptions import ConstraintError
from repro.ml import RandomForestClassifier

SCHEMA = lending_schema()
JOHN = SCHEMA.vector(john_profile())
PROFILES = [
    JOHN,  # rejected
    SCHEMA.clip(JOHN * 1.1),  # rejected
    np.array([46.0, 1.0, 108100.0, 1073.0, 16.0, 12200.0]),  # accepted
    np.array([51.0, 0.0, 78800.0, 1293.0, 17.0, 9500.0]),  # accepted
]
#: the benchmark's four constraint variants, a time-scoped constraint
#: (on at t=0 only), and a diff bound in the constraints' own unscaled
#: diff space, unlike the generators' scaled one
VARIANTS = {
    "none": None,
    "debt": ["monthly_debt <= 900"],
    "base": ["annual_income <= base_annual_income * 1.3"],
    "loan": ["loan_amount >= 9000"],
    "scoped": [
        ScopedConstraint(parse_constraint("monthly_debt <= 1200"), frozenset([0]))
    ],
    "diff": ["diff <= 9000"],
}


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=60, random_state=1)


@pytest.fixture(scope="module")
def model(history):
    return RandomForestClassifier(n_estimators=6, max_depth=4, random_state=0).fit(
        history.X, history.y
    )


@pytest.fixture(scope="module")
def scale(history):
    return history.X.std(axis=0)


def cell_constraints(domain, variant, scale):
    """The variant's user constraints joined to ``domain``, whose
    constraint objects every cell shares.  The ``diff`` variant's
    function measures ``diff`` unscaled."""
    texts = VARIANTS[variant]
    if texts is None:
        return domain
    user = ConstraintsFunction(
        SCHEMA, diff_scale=None if variant == "diff" else scale
    )
    for item in texts:
        user.add(item)
    return domain.conjoin(user)


def warm_seeds(x):
    """The base row itself and a repeated seed (both skipped by the
    visited set), and two fresh seeds."""
    near = SCHEMA.clip(x * 1.05)
    far = SCHEMA.clip(x * np.array([1.0, 1.0, 1.2, 0.8, 1.0, 0.9]))
    return np.vstack([x, near, near, far])


def make_generator(model, scale, constraints, spec, seed=17):
    return CandidateGenerator(
        model,
        0.5,
        SCHEMA,
        constraints,
        k=3,
        beam_width=spec["beam_width"],
        max_iter=spec["max_iter"],
        patience=spec["patience"],
        objective=spec["objective"],
        diff_scale=scale,
        random_state=seed + 7919 * (spec["t"] + 1),
    )


def run_group(model, scale, specs, seed=17):
    """``generate_fused`` over the cells of ``specs`` (dedup off, so each
    runs in the kernel) and, per cell, a one-cell ``generate`` with a
    fresh generator: ``(fused results, [(candidates, stats), ...])``."""
    domain = lending_domain_constraints(SCHEMA)

    def generator(spec):
        constraints = cell_constraints(domain, spec["variant"], scale)
        return make_generator(model, scale, constraints, spec, seed)

    def warm(spec):
        return warm_seeds(PROFILES[spec["profile"]]) if spec["warm"] else None

    cells = [
        FusedCell(
            cell_id=i,
            t=spec["t"],
            x_base=PROFILES[spec["profile"]],
            generator=generator(spec),
            model_fp="fp-kernel",
            warm_start=warm(spec),
        )
        for i, spec in enumerate(specs)
    ]
    results, _ = generate_fused(cells)
    alone = []
    for spec in specs:
        gen = generator(spec)
        found = gen.generate(
            PROFILES[spec["profile"]], time=spec["t"], warm_start=warm(spec)
        )
        alone.append((found, gen.last_stats_))
    return results, alone


def assert_same_candidates(found, expected):
    assert len(found) == len(expected)
    for got, want in zip(found, expected):
        assert got.x.tobytes() == want.x.tobytes()
        assert got.time == want.time
        assert got.metrics == want.metrics
        assert (got.plan_rank, got.plan_quality, got.plan_min_dist) == (
            want.plan_rank,
            want.plan_quality,
            want.plan_min_dist,
        )


def assert_same_search(got, want):
    """Candidates and every ``SearchStats`` field but the epoch-cache
    counters, which a lone ``generate`` leaves at 0."""
    (found, stats), (expected, expected_stats) = got, want
    assert_same_candidates(found, expected)
    assert replace(stats, cache_hits=0, cache_misses=0) == expected_stats


spec_strategy = st.fixed_dictionaries(
    {
        "profile": st.integers(0, len(PROFILES) - 1),
        "variant": st.sampled_from(sorted(VARIANTS)),
        # 64 is above any cell's fresh-row count in a round
        "beam_width": st.sampled_from([2, 3, 64]),
        "max_iter": st.integers(2, 6),
        "patience": st.integers(1, 3),
        # "gap" keys are integers: beam keys tie often
        "objective": st.sampled_from(["balanced", "gap"]),
        "t": st.integers(0, 1),
        "warm": st.booleans(),
    }
)


class TestMixedGroups:
    @given(specs=st.lists(spec_strategy, min_size=2, max_size=7))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_each_cell_gets_its_one_cell_search(self, model, scale, specs):
        results, alone = run_group(model, scale, specs)
        for i, want in enumerate(alone):
            assert_same_search(results[i], want)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_fixed_group_matches_generate_and_scalar(self, model, scale, seed):
        """One group of every variant and both pool states, with ragged
        widths, tied and untied keys, warm and cold cells: fused equals
        one-cell ``generate`` equals ``_generate_scalar``."""
        specs = [
            dict(
                profile=i % len(PROFILES),
                variant=variant,
                beam_width=(2, 3, 64)[i % 3],
                max_iter=5,
                patience=2,
                objective=("balanced", "gap")[(i // 3) % 2],
                t=0,
                warm=i % 2 == 0,
            )
            for i, variant in enumerate(sorted(VARIANTS) * 2)
        ]
        results, alone = run_group(model, scale, specs, seed)
        domain = lending_domain_constraints(SCHEMA)
        for i, spec in enumerate(specs):
            assert_same_search(results[i], alone[i])
            gen = make_generator(
                model,
                scale,
                cell_constraints(domain, spec["variant"], scale),
                spec,
                seed,
            )
            x = PROFILES[spec["profile"]]
            scalar = gen._generate_scalar(
                x, time=0, warm_start=warm_seeds(x) if spec["warm"] else None
            )
            assert_same_search(results[i], (scalar, gen.last_stats_))

    def test_layouts_cover_both_pool_states_and_ties(self, model):
        """Not vacuous: the profiles' base rows straddle the threshold,
        so a group starts with pooled and empty pools alike, and the
        forest scores many rows alike, so beam keys tie."""
        base_scores = model.decision_score(np.vstack(PROFILES))
        assert (base_scores > 0.5).any() and (base_scores <= 0.5).any()
        scores = model.decision_score(
            np.vstack([SCHEMA.clip(JOHN * f) for f in np.linspace(0.9, 1.1, 40)])
        )
        assert len(np.unique(scores)) < len(scores)


def stacked_rows(n=40, seed=0):
    """``n`` perturbed rows of each of three profiles, stacked, with the
    per-row base matrix and random scores."""
    rng = np.random.default_rng(seed)
    bases = np.vstack([PROFILES[0], PROFILES[2], PROFILES[3]])
    X = np.vstack(
        [base * rng.uniform(0.8, 1.2, size=(n, len(SCHEMA))) for base in bases]
    )
    return X, np.repeat(bases, n, axis=0), rng.uniform(0, 1, size=3 * n)


class TestGroupedViolationCounts:
    def test_equals_each_function_alone(self):
        """Shared, repeated (a function conjoined with itself), scoped
        and non-contiguously held constraints."""
        domain = lending_domain_constraints(SCHEMA)
        own = ConstraintsFunction(SCHEMA).add("monthly_debt <= 1100")
        functions = [
            domain.conjoin(own),
            domain.conjoin(domain).add("loan_amount >= 9000", times=[0]),
            domain.conjoin(own).add("gap <= 3", times=[1]),
        ]
        X, B, scores = stacked_rows()
        for time in (0, 1):
            ctx = functions[0].batch_context(X, B, confidence=scores, time=time)
            counts = grouped_violation_counts(ctx, functions, [40] * 3, time)
            expected = np.concatenate(
                [
                    fn.violation_counts_batch(
                        X[i * 40 : (i + 1) * 40],
                        B[i * 40],
                        confidence=scores[i * 40 : (i + 1) * 40],
                        time=time,
                    )
                    for i, fn in enumerate(functions)
                ]
            )
            assert counts.tolist() == expected.tolist()

    def test_divisor_only_a_stacked_evaluation_reaches_does_not_raise(self):
        """John's rows (base income 52,000) make the ``or`` skip its
        second operand; the accepted profile's (108,100) make the
        ``and`` skip the divisor.  Stacked, neither skip holds."""
        shared = ConstraintsFunction(SCHEMA).add(
            "base_annual_income < 60000"
            " or (base_annual_income < 60000 and annual_income / 0 > 1)"
        )
        X, B, scores = stacked_rows()
        X, B, scores = X[:80], B[:80], scores[:80]
        ctx = shared.batch_context(X, B, confidence=scores, time=0)
        with pytest.raises(ConstraintError):
            shared.violation_counts_batch(X, B, confidence=scores, time=0)
        counts = grouped_violation_counts(ctx, [shared, shared], [40, 40], 0)
        alone = [
            shared.violation_counts_batch(
                X[lo : lo + 40], B[lo], confidence=scores[lo : lo + 40], time=0
            )
            for lo in (0, 40)
        ]
        assert counts.tolist() == np.concatenate(alone).tolist()

    def test_divisor_one_cell_reaches_raises(self):
        shared = ConstraintsFunction(SCHEMA).add(
            "base_annual_income < 60000 and annual_income / 0 > 1"
        )
        X, B, scores = stacked_rows()
        X, B, scores = X[:80], B[:80], scores[:80]
        ctx = shared.batch_context(X, B, confidence=scores, time=0)
        with pytest.raises(ConstraintError, match="division by zero"):
            grouped_violation_counts(ctx, [shared, shared], [40, 40], 0)


class TestZeroDivisorSearch:
    """The same two contracts end to end, through ``generate_fused``
    against each cell's one-cell ``generate``."""

    def cells(self, model, scale, expr):
        shared = lending_domain_constraints(SCHEMA).add(expr)
        spec = dict(beam_width=3, max_iter=3, patience=2, objective="balanced", t=0)
        gens = [make_generator(model, scale, shared, spec) for _ in range(2)]
        return [
            FusedCell(cell_id=i, t=0, x_base=PROFILES[p], generator=gen, model_fp="fp")
            for i, (p, gen) in enumerate(zip((0, 2), gens))
        ]

    def test_stacked_only_divisor_matches_per_cell(self, model, scale):
        expr = (
            "base_annual_income < 60000"
            " or (base_annual_income < 60000 and annual_income / 0 > 1)"
        )
        cells = self.cells(model, scale, expr)
        results, _ = generate_fused(cells)
        for cell in self.cells(model, scale, expr):
            found = cell.generator.generate(cell.x_base, time=0)
            assert_same_search(
                results[cell.cell_id], (found, cell.generator.last_stats_)
            )

    def test_reached_divisor_raises(self, model, scale):
        expr = "base_annual_income < 60000 and annual_income / 0 > 1"
        with pytest.raises(ConstraintError, match="division by zero"):
            generate_fused(self.cells(model, scale, expr))
        cell = self.cells(model, scale, expr)[0]
        with pytest.raises(ConstraintError, match="division by zero"):
            cell.generator.generate(cell.x_base, time=0)


class TestPerRowBases:
    def test_metrics_and_context_match_scalar(self, scale):
        X, B, scores = stacked_rows(n=15, seed=3)
        diff = l2_diff_batch(X, B, scale)
        gap = l0_gap_batch(X, B)
        for i in range(X.shape[0]):
            assert diff[i] == l2_diff(X[i], B[i], scale)
            assert gap[i] == l0_gap(X[i], B[i])
        fn = ConstraintsFunction(SCHEMA, diff_scale=scale).add(
            "annual_income <= base_annual_income * 1.1 or diff < 0.5"
        )
        ctx = fn.batch_context(X, B, confidence=scores, time=0)
        assert ctx.special["diff"].tolist() == diff.tolist()
        mask = ctx.broadcast(fn.constraints[0].expr.evaluate_batch(ctx))
        for i in range(X.shape[0]):
            assert mask[i] == fn.is_valid(
                X[i], B[i], confidence=float(scores[i]), time=0
            )

    def test_one_base_row_still_broadcasts(self):
        X = np.vstack([JOHN, JOHN * 1.1])
        assert l2_diff_batch(X, JOHN.reshape(1, -1)).tolist() == l2_diff_batch(
            X, JOHN
        ).tolist()

    @pytest.mark.parametrize(
        "call",
        [
            lambda X, B: l2_diff_batch(X, B),
            lambda X, B: l0_gap_batch(X, B),
            lambda X, B: ConstraintsFunction(SCHEMA).batch_context(
                X, B, confidence=np.zeros(len(X)), time=0
            ),
        ],
    )
    def test_mismatched_base_matrix_is_rejected(self, call):
        X = np.vstack([JOHN] * 3)
        with pytest.raises(ConstraintError):
            call(X, np.vstack([JOHN] * 2))
