"""Host speed: a fixed calibration workload timed all through a run.

The reference host is a 2-vCPU share of a larger machine, and its speed
drifts.  Within one minute it toggles between a fast state and one about
1.8 times slower, in bursts of a fraction of a second to several
seconds; over tens of minutes whole runs land in the slow state.  A
median over a run's rounds absorbs the bursts but not a run that is slow
throughout: one seed's onboarding differed by 59% between two runs
minutes apart.

So a run times this workload, which uses nothing of the program, between
its timed phases, and reports every timing at the reference speed:
multiplied by ``REFERENCE_S / measured`` (a throughput by the inverse),
where ``measured`` is the mean of the run's probe times.
The probe does the kinds of work the program does: interpreted Python,
NumPy calls on small arrays, and gathers from an array larger than a
core's cache.  The gathers take more than half of a pass, because the
program's cycle phases follow them more closely than the interpreted
parts when the host slows.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["PARTS", "REFERENCE_S", "SpeedLog", "probe"]

#: seconds one :func:`probe` pass takes on the reference host in its
#: fast state (a 2 vCPU VM on a Xeon at 2.0 GHz)
REFERENCE_S = 0.033

_ROWS = np.random.default_rng(12345).random((64, 48))


def _python() -> int:
    table: dict[int, list[int]] = {}
    acc = 0
    for i in range(35_000):
        bucket = table.setdefault(i % 97, [])
        bucket.append(i)
        acc = (acc + len(bucket) * i) % 1_000_003
    return acc


def _numpy() -> float:
    acc = 0.0
    for row in np.tile(_ROWS, (15, 1)):
        order = np.argsort(row)
        picked = np.where(row > 0.5, row, 0.0)[order]
        acc += float(np.maximum.accumulate(picked).sum())
    return acc


def _memory() -> float:
    # 6 MB: three times a core's L2, so the gathers run from the shared
    # cache and memory; allocated per pass, so it holds no memory between
    # passes
    table = np.arange(750_000, dtype=np.float64)
    index = np.random.default_rng(54321).integers(len(table), size=300_000)
    acc = 0.0
    for _ in range(3):
        acc += float(np.take(table, index).sum())
        index = (index * 7 + 3) % len(table)
    return acc


#: the parts of one pass, in the order they run
PARTS = {"python": _python, "numpy": _numpy, "memory": _memory}


def probe() -> dict[str, float]:
    """Seconds each part of one pass of the calibration workload takes."""
    times = {}
    for name, part in PARTS.items():
        t0 = time.perf_counter()
        part()
        times[name] = time.perf_counter() - t0
    return times


class SpeedLog:
    """The probe passes of one run."""

    def __init__(self) -> None:
        self.passes: list[dict[str, float]] = []

    def sample(self, passes: int = 2) -> None:
        for _ in range(passes):
            self.passes.append(probe())

    @property
    def totals(self) -> list[float]:
        return [sum(p.values()) for p in self.passes]

    @property
    def measured_s(self) -> float:
        return statistics.fmean(self.totals)

    def part_s(self, name: str) -> float:
        return statistics.fmean(p[name] for p in self.passes)

    @property
    def factor(self) -> float:
        """What a time measured in this run is multiplied by to read at
        the reference speed (below 1 when the host ran slow)."""
        return REFERENCE_S / self.measured_s
