"""Tests of the benchmark's span tracing."""

from __future__ import annotations

import pytest

from perfbench.trace import WRAPPED, SpanRecord, Tracer, self_times, target_functions


def _record(name, start, end, parent=-1):
    return SpanRecord(name, start, end, parent)


def test_self_time_subtracts_the_children_it_covers():
    records = [
        _record("epoch", 0.0, 10.0),
        _record("pool", 1.0, 4.0, parent=0),
        _record("save", 3.0, 5.0, parent=0),  # overlaps its sibling
        _record("drain", 9.0, 12.0, parent=0),  # runs past its parent
        _record("pool", 2.0, 3.0, parent=1),  # same name, nested
    ]
    self_times(records)
    # children cover [1, 5] and [9, 10] of the parent's [0, 10]
    assert records[0].self_s == pytest.approx(10.0 - 4.0 - 1.0)
    assert records[1].self_s == pytest.approx(3.0 - 1.0)
    assert records[2].self_s == pytest.approx(2.0)
    assert records[4].self_s == pytest.approx(1.0)
    assert [r.outermost for r in records] == [True, True, True, True, False]


def test_tracer_records_nested_spans_and_counts(tmp_path):
    tracer = Tracer(tmp_path, "test")

    def inner(x):
        return x + 1

    def outer(x):
        return tracer.call("inner", inner, (x,), {}, hook=lambda a, k, r, b: {"n": r})

    assert tracer.call("outer", outer, (1,), {}) == 2
    rows = tracer.records()
    assert [row[0] for row in rows] == ["inner", "outer"]
    assert rows[0][3] == 1  # inner's parent is outer
    assert rows[1][3] == -1
    assert rows[0][4] == {"n": 2}


def test_tracing_off_installs_no_wrappers(tmp_path):
    # importing the benchmark's run code must not wrap anything
    import perfbench.bench  # noqa: F401

    def wrapped():
        return [
            (owner, attr)
            for owner, attr in target_functions()
            if getattr(getattr(owner, attr), WRAPPED, False)
        ]

    originals = [getattr(owner, attr) for owner, attr in target_functions()]
    assert wrapped() == []
    tracer = Tracer(tmp_path, "test").install()
    try:
        assert len(wrapped()) == len(originals)
    finally:
        tracer.uninstall()
    assert wrapped() == []
    assert [getattr(o, a) for o, a in target_functions()] == originals
