"""Shared fixtures for the benchmark harness.

Each ``bench_*`` function regenerates one artifact from the paper: the
figures (``bench_fig1``–``bench_fig3``), John's running example and the
ablations (system inventory: the README's Architecture section).  pytest
collects them only when told to::

    PYTHONPATH=src python -m pytest benchmarks -q -o python_files='bench_*.py' -o python_functions='bench_*' --benchmark-disable

Expensive training is session-scoped; the benchmarked callables operate on
prepared state.
"""

from __future__ import annotations

import pytest

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime
from repro.data import (
    LendingGenerator,
    LendingPolicy,
    john_profile,
    lending_schema,
    make_lending_dataset,
)
from repro.ml import RandomForestClassifier
from repro.temporal import lending_update_function


@pytest.fixture(scope="session")
def schema():
    return lending_schema()


@pytest.fixture(scope="session")
def history():
    return make_lending_dataset(n_per_year=200, random_state=1)


@pytest.fixture(scope="session")
def drifting_generator():
    return LendingGenerator(LendingPolicy(drift_strength=1.2), random_state=0)


@pytest.fixture(scope="session")
def bench_system(schema, history):
    """Fitted demo-scale system (T=4, RF(25), 'last' strategy)."""
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(T=4, strategy="last", k=8, max_iter=12, random_state=0),
        domain_constraints=lending_domain_constraints(schema),
    )
    system.fit(history)
    return system


@pytest.fixture(scope="session")
def john_session(bench_system):
    return bench_system.create_session(
        "john",
        john_profile(),
        user_constraints=["annual_income <= base_annual_income * 1.2"],
    )


@pytest.fixture(scope="session")
def bench_forest(history):
    recent = history.window(2017, 2020)
    return RandomForestClassifier(n_estimators=25, max_depth=10, random_state=0).fit(
        recent.X, recent.y
    )
