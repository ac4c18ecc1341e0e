"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cohort-shared --seed 1 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
wraps the program's layer boundaries and reports the per-layer metrics
instead.  Identity checks run before any number is reported; a failed
check exits non-zero without a result line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def host_probe(iterations: int = 3_000_000) -> float:
    """Milliseconds of a fixed pure-Python loop: a record of how fast
    the host ran around this run, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may not be a git
    repository, so this names the code that ran)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sqlite": sqlite3.sqlite_version,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the server processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import tempfile

    import numpy

    from perfbench import bench, speed

    if args.workload not in bench.WORKLOADS:
        print(
            f"unknown workload {args.workload!r};"
            f" choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    # worker pools and sqlite place their scratch files under TMPDIR:
    # keep every file the run writes inside the checkout
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SQLITE_TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    env = environment(numpy.__version__)
    try:
        env["probe_ms_before"] = host_probe()
        outcome = bench.run(
            bench.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work,
        )
        env["probe_ms_after"] = host_probe()
    except bench.CheckFailed as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()
    log = outcome.speed
    env["calibration_ms"] = {
        "reference": 1e3 * speed.REFERENCE_S,
        "mean": 1e3 * log.measured_s,
        "min": 1e3 * min(log.totals),
        "max": 1e3 * max(log.totals),
        "passes": len(log.passes),
        "parts": {name: 1e3 * log.part_s(name) for name in speed.PARTS},
    }
    env["speed_factor"] = log.factor
    print(json.dumps({"environment": env, "workload": args.workload,
                      "seed": args.seed}))
    if outcome.raw:
        print(json.dumps({"timings_as_measured": outcome.raw}))
    print(f"store digest: {outcome.digest}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
