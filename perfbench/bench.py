"""One benchmark run: rounds of (cohort cycle, read window), checks and
metrics.

Each round runs one cohort cycle (set-up, onboarding, epoch) and then
one timed read window against the server, which serves the first
round's store for the whole run.  A run makes as many rounds as fit in
its seconds, and at least :data:`MIN_ROUNDS`.  Between the timed phases
the run times a fixed calibration workload (``perfbench/speed.py``),
and every timing is reported at the reference host's speed.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.workloads import (
    IDENTITY_USERS,
    READ_WINDOW_S,
    ROOT,
    WORKLOADS,
    CheckFailed,
    Reference,
    ServerProcess,
    Workload,
    check_identity,
    chunked_p95,
    make_cohort,
    make_drift,
    make_history,
    peak_rss_mb_here,
    read_loop,
    run_cycle,
)
from perfbench.speed import SpeedLog

from repro.core.persistence import load_system

__all__ = ["CheckFailed", "Outcome", "WORKLOADS", "run"]

#: fewest rounds of a run, however short its seconds: a traced run
#: needs an untraced cycle for its overhead baseline and a traced one
MIN_ROUNDS = 3


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    digest: str
    #: the end-to-end timings as measured, before scaling to the
    #: reference speed (empty for a traced run)
    raw: dict
    speed: SpeedLog


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _median(values, what: str) -> float:
    values = list(values)
    if not values:
        raise CheckFailed(f"no samples for {what}")
    return statistics.median(values)


def _mean(values, what: str) -> float:
    values = list(values)
    if not values:
        raise CheckFailed(f"no samples for {what}")
    return statistics.fmean(values)


def at_reference_speed(times: dict, factor: float) -> dict:
    """``{name: (value, unit)}`` timings scaled to the reference speed: a
    duration multiplied by ``factor``, a throughput (unit ``1/s``)
    divided by it."""
    return {
        name: (value / factor if unit == "1/s" else value * factor, unit)
        for name, (value, unit) in times.items()
    }


def run(workload: Workload, seed: int, seconds: float, traced: bool, work: Path):
    history = make_history()
    cohort = make_cohort(workload, seed)
    drift = make_drift(history)
    users = [user_id for user_id, _, _ in cohort]
    tracer = None
    if traced:
        from perfbench.trace import Tracer

        tracer = Tracer(work / "spans", run_id=f"{workload.name}-{seed}")
    attempted = failed = 0
    speed = SpeedLog()
    speed.sample(4)

    rng = np.random.default_rng([seed, 3])
    sample = [users[i] for i in rng.choice(len(users), IDENTITY_USERS, replace=False)]
    cycles = []
    #: store digest of each cohort's cycles
    digests: dict[int, str] = {}
    loops = []
    server = None
    reference = None
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    try:
        r = 0
        # a round starts only if one as long as the last still fits
        while r < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
            round_start = time.perf_counter()
            # a traced run alternates untraced and traced cycles: the
            # untraced ones are the baseline of trace.overhead_pct
            trace_cycle = traced and r % 2 == 1
            if trace_cycle:
                tracer.install()
            # an untraced run draws a new cohort from the seed for every
            # round, so its figures average over several cohorts; a
            # traced run keeps one, so that its traced and untraced
            # cycles do the same work
            index = 0 if traced else r
            round_cohort = cohort if index == 0 else make_cohort(workload, seed, index)
            try:
                cycle = run_cycle(
                    work / f"cycle-{r}", history, round_cohort, drift, speed.sample
                )
            finally:
                if trace_cycle:
                    tracer.uninstall()
            cycle.traced = trace_cycle
            cycles.append(cycle)
            attempted += cycle.cells
            failed += cycle.lost_leases + cycle.skipped_cells
            if digests.setdefault(index, cycle.digest) != cycle.digest:
                raise CheckFailed("store digest differs between two cycles of one cohort")
            if r == 0:
                reference = Reference(
                    load_system(
                        cycle.workdir / "system.pkl",
                        store_path=cycle.workdir / "store.db",
                        store_backend="sharded",
                    )
                )
                server = ServerProcess(
                    cycle.workdir,
                    _child_env(),
                    None if tracer is None else tracer.out_dir,
                    "" if tracer is None else tracer.run_id,
                )
                check_identity(server, reference, sample)
            else:
                # the server keeps reading round 0's store
                shutil.rmtree(cycle.workdir)
            speed.sample()
            loops.append(read_loop(server, users, seed, r, READ_WINDOW_S))
            speed.sample()
            round_s = time.perf_counter() - round_start
            r += 1
        cohort_rss_mb = peak_rss_mb_here()
        access = server.stats()["access"]
        attempted += int(access["recorded"]) + int(access["dropped"])
        failed += int(access["dropped"])
    finally:
        if server is not None:
            server.stop()
        if reference is not None:
            reference.system.store.close()
    for loop in loops:
        attempted += loop.attempted
        failed += loop.failed

    if not traced:
        n_users = len(users)
        p95 = chunked_p95([x for lp in loops for x in lp.latencies])
        if p95 is None:
            raise CheckFailed("too few timed requests for a p95 with ten beyond it")
        # timings as measured; each is scaled by the run's speed factor
        # below (a throughput by its inverse).  Past set-up they are means
        # over the run, like the probe time the factor comes from: a mean
        # grows in proportion to the share of the run the host spent
        # slow, where a median of skewed samples lags behind it
        requests = sum(len(lp.latencies) for lp in loops)
        times = {
            "setup_s": (_median((c.setup_s for c in cycles), "set-up"), "s"),
            "onboard_ms_per_user": (
                _mean((1e3 * c.onboard_s / n_users for c in cycles), "onboarding"),
                "ms",
            ),
            "refresh_ms_per_cell": (
                _mean((1e3 * c.epoch_s / c.cells for c in cycles), "epochs"),
                "ms",
            ),
            "read_qps": (requests / sum(lp.wall for lp in loops), "1/s"),
            "read_p50_ms": (1e3 * _mean((p for lp in loops for p in lp.p50), "p50"), "ms"),
            "read_p95_ms": (1e3 * p95, "ms"),
        }
        metrics = at_reference_speed(times, speed.factor)
        metrics["store_kb_per_user"] = (
            _median((c.store_bytes for c in cycles), "store size") / 1024.0 / n_users,
            "KB",
        )
        metrics["peak_rss_mb"] = (cohort_rss_mb, "MB")
        return Outcome(
            metrics, attempted, failed, cycles[0].digest,
            {name: value for name, (value, _) in times.items()}, speed,
        )

    from perfbench.layers import layer_metrics
    from perfbench.trace import load_spans

    base = _median((c.onboard_s + c.epoch_s for c in cycles if not c.traced), "baseline")
    with_trace = _median(
        (c.onboard_s + c.epoch_s for c in cycles if c.traced), "traced cycles"
    )
    server_cpu = [lp.server_cpu_s for lp in loops]
    metrics = layer_metrics(
        load_spans(tracer),
        [(c.start, c.end) for c in cycles if c.traced],
        [(lp.start, lp.end) for lp in loops],
        sum(lp.attempted for lp in loops),
        None if None in server_cpu else sum(server_cpu),
        sum(lp.cpu for lp in loops) / sum(lp.wall for lp in loops),
        100.0 * (with_trace / base - 1.0),
    )
    return Outcome(metrics, attempted, failed, cycles[0].digest, {}, speed)
