"""Tests for parallel candidates generation (§II.B: generators are
independent and can be executed in parallel)."""

import pytest

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime
from repro.data import john_profile, make_lending_dataset
from repro.temporal import lending_update_function


@pytest.fixture(scope="module")
def history():
    return make_lending_dataset(n_per_year=120, random_state=3)


def _system(schema, history):
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(T=3, strategy="last", k=4, max_iter=8, random_state=0),
        domain_constraints=lending_domain_constraints(schema),
    )
    system.fit(history)
    return system


class TestParallelEqualsSequential:
    def test_stats_per_time_point(self, schema, history):
        session = _system(schema, history).create_session("u", john_profile())
        assert len(session.search_stats) == 4
