"""The benchmark's workloads: inputs, the cohort cycle and the reads.

Both workloads drive the program through its public entry points:

* a *cohort cycle* fits the models and opens a fresh 4-shard store
  (``JustInTime.fit``), onboards a cohort (``create_sessions``), then
  runs one ``RefreshOrchestrator`` epoch over a drift batch that stales
  every cell, drained by one worker process under one whole-epoch claim;
* a *read window* drives the CLI ``serve`` verb, running as its own
  process, with a closed loop of two keep-alive clients.  Every request
  carries a parameter value no earlier request of the run carried, so
  it misses the cache and renders.

``perfbench/bench.py`` puts them together into rounds; see
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.loadgen import (
    RawClient,
    closed_loop,
    percentile,
    request_bytes,
    windowed,
)

from repro.constraints import lending_domain_constraints
from repro.core import AdminConfig, JustInTime
from repro.core.insights import InsightEngine
from repro.core.orchestrator import RefreshOrchestrator
from repro.data import (
    LendingGenerator,
    TemporalDataset,
    john_profile,
    lending_schema,
    make_lending_dataset,
)
from repro.data.feed import IteratorFeed
from repro.serve.protocol import bundle_payload, dumps, insight_payload
from repro.temporal import lending_update_function

ROOT = Path(__file__).resolve().parents[1]

#: future time points; every user owns T + 1 cells
T = 5
#: one admin configuration for every workload.  Strategy ``last`` makes
#: a drift batch at the latest timestamp retrain every future model, so
#: the epoch recomputes every stored cell.
ADMIN = dict(
    T=T, strategy="last", k=4, beam_width=6, max_iter=10, patience=3, random_state=11
)
#: training history: fixed, so the seed only drives the generated inputs
HISTORY = dict(n_per_year=80, random_state=1)
DRIFT_ROWS = 50
DRIFT_SEED = 99
#: constraint variants rotated over users: the same profile under two
#: variants is two search problems that still share proposal rows
CONSTRAINT_VARIANTS = (
    None,
    ["monthly_debt <= 900"],
    ["annual_income <= base_annual_income * 1.3"],
    ["loan_amount >= 9000"],
)
#: closed-loop clients: the reference host's core count
CLIENTS = 2
#: sampled users whose HTTP answers are checked byte for byte
IDENTITY_USERS = 3
#: seconds of the timed read window that follows each cohort cycle; a
#: window on a slow host reads on until it has sent READ_MIN_REQUESTS
READ_WINDOW_S = 4.0
READ_MIN_REQUESTS = 400
#: p50 is a mean over 1-s windows of the read loops; p95 is a mean
#: over consecutive runs of this many requests, in which p95 is the
#: highest percentile with ten samples beyond it
WINDOW_SECONDS = 1.0
P95_CHUNK = 200
#: untimed requests before each read window
SETTLE_SECONDS = 0.25
DEFAULT_QUESTIONS = ("q1", "q2", "q3", "q4", "q5", "q6", "q7")
#: explore parameter values: every request of a run draws a distinct
#: index below VALUE_SPAN, numbered in blocks of STREAM_BLOCK requests
#: per (loop, client); VALUE_STRIDE is coprime to VALUE_SPAN, so the
#: map index -> index * stride mod span is one to one and spreads every
#: loop's values over the same band
VALUE_SPAN = 10_000_000
VALUE_STRIDE = 7_777_777
STREAM_BLOCK = 50_000
#: seconds a server may take to start listening
START_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An output of the program differs from its reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``'shared'``: users drawn from a pool of prototypes;
    #: ``'unique'``: every profile distinct
    cohort: str
    users: int
    #: prototypes of a shared cohort (each under two constraint
    #: variants, each of those problems users / (2 x prototypes) times)
    prototypes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cohort-shared", "shared", 24, 6),
        Workload("cohort-unique", "unique", 8, 0),
    )
}


def admin_config() -> AdminConfig:
    """The benchmark's one admin configuration.

    The fused engine is selected here and only here, and only while
    ``AdminConfig`` still has an ``engine`` option: once the other
    engines are removed the fused drain is the only one left.
    """
    kwargs = dict(ADMIN)
    if "engine" in {f.name for f in dataclasses.fields(AdminConfig)}:
        kwargs["engine"] = "fused"
    return AdminConfig(**kwargs)


# ------------------------------------------------------------------ inputs


def _latin_hypercube(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """``n`` points in ``[0, 1)^d``, one per stratum along every axis —
    fewer extreme draws than plain uniform sampling, so the cohort's
    total search work varies less from seed to seed."""
    strata = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
    return (strata + rng.random((n, d))) / n


def _quantised(schema, u: np.ndarray) -> np.ndarray:
    """John's profile scaled by 0.9–1.1 per feature, snapped to each
    feature's step (applicants' features are step-quantised)."""
    base = schema.vector(john_profile())
    x = base * (0.9 + 0.2 * u)
    for j, spec in enumerate(schema):
        if spec.step:
            x[j] = round(x[j] / spec.step) * spec.step
    return schema.clip(x)


def make_cohort(workload: Workload, seed: int, index: int = 0) -> list[tuple]:
    """``(user_id, profile, constraints)`` for every user of the seed's
    ``index``-th cohort."""
    schema = lending_schema()
    rng = np.random.default_rng([seed, 1, index])
    n = workload.users
    if workload.cohort == "shared":
        pool = _latin_hypercube(rng, workload.prototypes, len(schema))
        protos = [_quantised(schema, u) for u in pool]
        # each prototype under two rotating constraint variants; the
        # users cycle through these search problems, so each appears
        # equally often, and the seed permutes which user id gets which
        pairs = [
            (proto, CONSTRAINT_VARIANTS[(j + k) % len(CONSTRAINT_VARIANTS)])
            for j, proto in enumerate(protos)
            for k in range(2)
        ]
        problems = [pairs[i % len(pairs)] for i in range(n)]
        order = rng.permutation(n)
        problems = [problems[i] for i in order]
    else:
        pool = _latin_hypercube(rng, n, len(schema))
        problems = [
            (_quantised(schema, u), CONSTRAINT_VARIANTS[i % 4])
            for i, u in enumerate(pool)
        ]
    return [
        (f"user-{i:04d}", profile, constraints)
        for i, (profile, constraints) in enumerate(problems)
    ]


def make_drift(history: TemporalDataset) -> TemporalDataset:
    """Labelled arrivals at the latest history timestamp: under strategy
    ``last`` they retrain every future model, staling every cell.

    The batch is fixed, not drawn from the seed: the refit models it
    produces decide how much of the warm-started epoch's search is
    redone, and at these cohort sizes that work varied twofold from one
    drift draw to the next.  The seed varies the users instead.
    """
    generator = LendingGenerator(random_state=DRIFT_SEED)
    X = generator.sample_profiles(DRIFT_ROWS)
    years = np.full(DRIFT_ROWS, float(history.span[1]))
    return TemporalDataset(X, generator.label(X, years), years, history.schema)


def make_history() -> TemporalDataset:
    return make_lending_dataset(**HISTORY)


# ------------------------------------------------------------ cohort cycle


def build_system(store_path: Path, history: TemporalDataset) -> JustInTime:
    """Open a fresh 4-shard store and fit the future models."""
    schema = lending_schema()
    system = JustInTime(
        schema,
        lending_update_function(schema),
        admin_config(),
        domain_constraints=lending_domain_constraints(schema),
        store_path=str(store_path),
        store_backend="sharded",
    )
    return system.fit(history)


@dataclass
class Cycle:
    start: float
    end: float
    setup_s: float
    onboard_s: float
    epoch_s: float
    cells: int
    lost_leases: int
    skipped_cells: int
    store_bytes: int
    digest: str
    workdir: Path
    traced: bool = False


def run_cycle(workdir: Path, history, users, drift, between=lambda: None) -> Cycle:
    """Set up, onboard the cohort, run one epoch; check and measure it.

    The cycle starts from a collected heap, with the run's long-lived
    objects frozen out of the collector, and with the file writes of
    earlier phases flushed: otherwise the garbage and dirty pages of
    earlier rounds decide what this cycle's timed phases pay for.
    ``between`` runs untimed between the phases.
    """
    gc.collect()
    gc.freeze()
    os.sync()
    workdir.mkdir(parents=True)
    store_path = workdir / "store.db"
    n_cells = len(users) * (T + 1)
    start = time.perf_counter()
    system = build_system(store_path, history)
    setup_s = time.perf_counter() - start
    between()
    t0 = time.perf_counter()
    system.create_sessions(users)
    onboard_s = time.perf_counter() - t0
    between()
    t_epoch = time.perf_counter()
    orchestrator = RefreshOrchestrator(
        system,
        IteratorFeed([drift]),
        system_path=workdir / "system.pkl",
        db_path=store_path,
        db_backend="sharded",
        n_workers=1,
        cadence=0.0,
        claim_batch=n_cells,
    )
    epochs = orchestrator.run(max_epochs=1)
    end = time.perf_counter()
    if len(epochs) != 1:
        raise CheckFailed(f"expected one epoch, ran {len(epochs)}")
    outcome = epochs[0].report
    if outcome.cells_recomputed != n_cells:
        raise CheckFailed(
            f"epoch recomputed {outcome.cells_recomputed} cells,"
            f" expected users x time points = {n_cells}"
        )
    stale = system.store.stale_cells(system.model_fingerprints)
    if stale:
        raise CheckFailed(f"{len(stale)} cells still stale after the epoch")
    if not outcome.store_digest:
        raise CheckFailed("the epoch recorded no store digest")
    system.store.close()
    store_bytes = sum(p.stat().st_size for p in workdir.glob("store.db*"))
    return Cycle(
        start=start,
        end=end,
        setup_s=setup_s,
        onboard_s=onboard_s,
        epoch_s=end - t_epoch,
        cells=n_cells,
        lost_leases=sum(w.lost_leases for w in outcome.pool.workers),
        skipped_cells=len(outcome.pool.skipped_cells),
        store_bytes=store_bytes,
        digest=outcome.store_digest,
        workdir=workdir,
    )


# ------------------------------------------------------------- read phase


def _proc_cpu_seconds(pid: int) -> float | None:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


class ServerProcess:
    """The CLI ``serve`` verb in its own process.

    ``spans_dir`` runs it under ``perfbench/traced_serve.py``, which
    wraps the layer boundaries and writes the spans out on exit.
    """

    def __init__(
        self, workdir: Path, env: dict, spans_dir: Path | None = None,
        run_id: str = "",
    ):
        cli = [
            "--load", str(workdir / "system.pkl"),
            "--db", str(workdir / "store.db"),
            "--db-backend", "sharded",
            "serve", "--port", "0",
        ]
        if spans_dir is None:
            cmd = [sys.executable, "-m", "repro.app.cli", *cli]
        else:
            cmd = [
                sys.executable, str(ROOT / "perfbench" / "traced_serve.py"),
                "--spans", str(spans_dir), "--run-id", run_id, "--", *cli,
            ]
        self.log = open(workdir / f"serve-{time.monotonic_ns()}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "serving insights on http://" not in line:
            self.stop()
            log = Path(self.log.name).read_text(errors="replace")
            raise RuntimeError(f"server did not start: {line!r}\n{log[-2000:]}")
        address = line.split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def get(self, client: RawClient, path: str) -> bytes:
        status, body = client.get(request_bytes(path))
        if status != 200:
            raise CheckFailed(f"GET {path}: HTTP {status}: {body[:200]!r}")
        return body

    def stats(self) -> dict:
        client = RawClient(self.host, self.port)
        try:
            return json.loads(self.get(client, "/v1/stats"))
        finally:
            client.close()

    def cpu_seconds(self) -> float | None:
        return _proc_cpu_seconds(self.proc.pid)

    def stop(self) -> int:
        """Interrupt the server and reap it."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


@dataclass
class Reference:
    """Expected HTTP bodies, rendered in-process through ``InsightEngine``
    and the shared wire format, as the server must render them."""

    system: JustInTime
    feature: str = ""

    def __post_init__(self):
        schema = self.system.schema
        self.feature = schema.names[int(schema.mutable_indices()[0])]

    def _ledger(self, user: str) -> dict:
        return self.system.store.cell_fingerprints(user)

    def bundle(self, user, alpha=0.8, budget=None, plans=1) -> bytes:
        engine = InsightEngine(self.system.store, user, self.system.time_values)
        insights = {
            "q1": engine.ask("q1", plans=plans),
            "q2": engine.ask("q2", plans=plans),
            "q3": engine.ask("q3", feature=self.feature, plans=plans),
            "q4": engine.ask("q4", plans=plans),
            "q5": engine.ask("q5", plans=plans),
            "q6": engine.ask("q6", alpha=alpha, plans=plans),
        }
        if budget is not None:
            insights["q7"] = engine.ask("q7", budget=budget, plans=plans)
        return dumps(bundle_payload(user, insights, self._ledger(user))).encode()

    def question(self, user, qid, alpha=0.8) -> bytes:
        params = {"q3": {"feature": self.feature}, "q6": {"alpha": alpha},
                  "q7": {"budget": 1.0}}.get(qid, {})
        engine = InsightEngine(self.system.store, user, self.system.time_values)
        payload = insight_payload(engine.ask(qid, **params))
        payload["user"] = user
        payload["ledger"] = {str(t): fp for t, fp in sorted(self._ledger(user).items())}
        return dumps(payload).encode()


def check_identity(server: ServerProcess, reference: Reference, users) -> None:
    """Byte-compare the server's answers with the reference, cold then
    warm: default-parameter bundles and questions, and the request kinds
    of the read windows."""
    client = RawClient(server.host, server.port)
    try:
        for user in users:
            cases = [(f"/v1/insights?user={user}", reference.bundle(user))]
            cases += [
                (f"/v1/q/{qid}?user={user}", reference.question(user, qid))
                for qid in DEFAULT_QUESTIONS
            ]
            cases += [
                (f"/v1/insights?user={user}&alpha=0.4321",
                 reference.bundle(user, alpha=0.4321)),
                (f"/v1/insights?user={user}&budget=0.3",
                 reference.bundle(user, budget=0.3)),
                (f"/v1/insights?user={user}&plans=3", reference.bundle(user, plans=3)),
                (f"/v1/q/q6?user={user}&alpha=0.4321",
                 reference.question(user, "q6", alpha=0.4321)),
            ]
            for path, want in cases:
                for label in ("cold", "warm"):
                    if server.get(client, path) != want:
                        raise CheckFailed(
                            f"{label} HTTP body for {path} differs from the"
                            " InsightEngine reference"
                        )
    finally:
        client.close()


def explore_value(index: int) -> int:
    """The ``index``-th explore value of a run, in ``[0, VALUE_SPAN)``:
    distinct for distinct indices, and spread over the whole span
    whichever loop the index belongs to."""
    if not 0 <= index < VALUE_SPAN:
        raise ValueError(f"explore index {index} outside [0, {VALUE_SPAN})")
    return index * VALUE_STRIDE % VALUE_SPAN


def request_streams(users, seed: int, loop: int) -> list:
    """One request generator per client, reproducible from the seed.

    Users and request kinds are drawn uniformly: a bundle with a new
    ``alpha``, ``budget`` or ``plans`` value, or ``q6`` with a new
    ``alpha``.  ``loop`` numbers the run's loops, so no loop repeats a
    value an earlier one sent.
    """
    streams = []
    for client in range(CLIENTS):
        rng = np.random.default_rng([seed, 2, loop, client])
        picks = rng.integers(len(users), size=STREAM_BLOCK)
        kinds = rng.integers(4, size=STREAM_BLOCK)
        first = (loop * CLIENTS + client) * STREAM_BLOCK

        def explore(picks=picks, kinds=kinds, first=first, state=[0]):
            i = state[0]
            state[0] += 1
            v = explore_value(first + i)
            user = users[picks[i]]
            kind = kinds[i]
            if kind == 0:
                path = f"/v1/insights?user={user}&alpha={0.5 + v * 1e-8:.8f}"
            elif kind == 1:
                path = f"/v1/insights?user={user}&budget={0.5 + v * 1e-8:.8f}"
            elif kind == 2:
                path = f"/v1/insights?user={user}&plans={100 + v}"
            else:
                path = f"/v1/q/q6?user={user}&alpha={0.5 + v * 1e-8:.8f}"
            return request_bytes(path)

        streams.append(explore)
    return streams


@dataclass
class ReadLoop:
    """One timed closed loop against one server, summarised per window."""

    #: p50 seconds of each 1-s window
    p50: list[float]
    #: latency seconds of every successful request, in completion order
    latencies: list[float]
    attempted: int
    failed: int
    start: float
    end: float
    wall: float
    cpu: float
    server_cpu_s: float | None


def read_loop(server: ServerProcess, users, seed, loop, seconds) -> ReadLoop:
    """Drive ``server`` for ``seconds`` and summarise it per window.

    The window follows a cohort cycle, so first this process collects
    the cycle's garbage (its client threads would otherwise pause for
    it mid-window), the cycle's file writes are flushed (the server's
    access-log fsyncs would otherwise pay for them) and an untimed burst
    wakes the idle server.  The timed loop is number ``2 * loop`` of the
    run, its burst ``2 * loop + 1``.
    """
    gc.collect()
    os.sync()
    closed_loop(
        server.host, server.port,
        request_streams(users, seed, 2 * loop + 1), SETTLE_SECONDS,
    )
    streams = request_streams(users, seed, 2 * loop)
    cpu0 = server.cpu_seconds()
    start = time.perf_counter()
    result = closed_loop(server.host, server.port, streams, seconds, READ_MIN_REQUESTS)
    end = time.perf_counter()
    cpu1 = server.cpu_seconds()
    for error in result.errors:
        print(f"failed request: {error}", file=sys.stderr)
    windows = windowed(result, WINDOW_SECONDS)
    order = sorted(range(len(result.done)), key=result.done.__getitem__)
    return ReadLoop(
        p50=[p for p in (percentile(lat, 0.5) for _, lat in windows) if p is not None],
        latencies=[result.latencies[i] for i in order],
        attempted=result.attempted,
        failed=result.failed,
        start=start,
        end=end,
        wall=result.wall,
        cpu=result.cpu,
        server_cpu_s=None if cpu0 is None or cpu1 is None else cpu1 - cpu0,
    )


def chunked_p95(latencies: list[float]) -> float | None:
    """Mean of the p95s of consecutive :data:`P95_CHUNK`-request runs
    (the last run absorbs a short remainder)."""
    n = max(1, len(latencies) // P95_CHUNK)
    size = len(latencies) // n
    chunks = [latencies[i * size : (i + 1) * size] for i in range(n - 1)]
    chunks.append(latencies[(n - 1) * size :])
    p95s = [percentile(sorted(chunk), 0.95) for chunk in chunks]
    if None in p95s:
        return None
    return statistics.fmean(p95s)


def peak_rss_mb_here() -> float:
    """Peak RSS of this process and of its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
