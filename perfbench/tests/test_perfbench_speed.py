"""Tests of the host-speed calibration."""

from __future__ import annotations

import pytest

from perfbench import speed
from perfbench.bench import at_reference_speed


def test_probe_times_every_part():
    times = speed.probe()
    assert list(times) == list(speed.PARTS)
    assert all(t > 0 for t in times.values())


def test_factor_is_the_reference_over_the_mean_pass():
    log = speed.SpeedLog()
    log.passes = [
        {"python": 0.030, "memory": 0.010},
        {"python": 0.050, "memory": 0.030},
    ]
    assert log.measured_s == pytest.approx(0.060)
    assert log.part_s("memory") == pytest.approx(0.020)
    assert log.factor == pytest.approx(speed.REFERENCE_S / 0.060)


def test_a_slow_run_reads_at_the_reference_speed():
    # a host running at half speed doubles durations and halves throughput
    measured = {"onboard_ms_per_user": (200.0, "ms"), "read_qps": (250.0, "1/s")}
    assert at_reference_speed(measured, 0.5) == {
        "onboard_ms_per_user": (100.0, "ms"),
        "read_qps": (500.0, "1/s"),
    }
