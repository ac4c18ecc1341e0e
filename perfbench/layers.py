"""Per-layer metrics of a traced run, derived from its merged spans.

Cohort-phase metrics cover the traced cycles (set-up, onboarding and
epoch, including the worker process) and are reported per traced cycle.
Read-phase metrics cover the traced timed read windows (server process)
and are reported per request, or in milliseconds per thousand requests.
"""

from __future__ import annotations

from perfbench.trace import SpanRecord

__all__ = ["PER_LAYER", "layer_metrics"]

#: name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "temporal.forecast.busy_ms": "ms/cycle",
    "core.system.onboard.self_ms": "ms/cycle",
    "core.fused.self_ms": "ms/cycle",
    "core.fused.rounds": "count/cycle",
    "core.fused.cells_deduped_ratio": "ratio",
    "core.fused.cache.self_ms": "ms/cycle",
    "core.fused.cache.hit_ratio": "ratio",
    "core.fused.cache.evictions": "count/cycle",
    "ml.forest.calls": "count/cycle",
    "ml.forest.rows": "count/cycle",
    "ml.forest.busy_ms": "ms/cycle",
    "core.diversity.busy_ms": "ms/cycle",
    "db.store.write.rows": "count/cycle",
    "db.store.write.busy_ms": "ms/cycle",
    "db.store.claim.calls": "count/cycle",
    "db.store.claim.busy_ms": "ms/cycle",
    "db.store.read.busy_ms": "ms/cycle",
    "db.store.digest.busy_ms": "ms/cycle",
    "core.persistence.save.busy_ms": "ms/cycle",
    "core.persistence.save.bytes": "bytes/cycle",
    "core.persistence.load.busy_ms": "ms/cycle",
    "core.worker.drain.busy_ms": "ms/cycle",
    "core.worker.pool.overhead_ms": "ms/cycle",
    "core.worker.lost_leases": "count/cycle",
    "core.worker.skipped_cells": "count/cycle",
    "core.orchestrator.epoch.self_ms": "ms/cycle",
    "epoch.split.forecast_pct": "%",
    "epoch.split.orchestrator_pct": "%",
    "epoch.split.persistence_pct": "%",
    "epoch.split.store_pct": "%",
    "epoch.split.pool_pct": "%",
    "epoch.split.drain_pct": "%",
    "epoch.split.fused_pct": "%",
    "epoch.split.cache_pct": "%",
    "epoch.split.forest_pct": "%",
    "epoch.split.diversity_pct": "%",
    "serve.cache.lookups": "1/req",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.busy_ms": "ms/kreq",
    "db.store.access.flushes": "1/kreq",
    "db.store.access.rows": "1/kreq",
    "db.store.access.busy_ms": "ms/kreq",
    "db.store.access.server_cpu_share": "ratio",
    "serve.server.cpu_ms": "ms/kreq",
    "core.insights.asks": "1/req",
    "core.insights.busy_ms": "ms/kreq",
    "db.prepared.queries": "1/req",
    "db.prepared.busy_ms": "ms/kreq",
    "serve.protocol.busy_ms": "ms/kreq",
    "serve.pool.checkouts": "1/req",
    "serve.snapshot.ledger_reads_per_render": "ratio",
    "loadgen.cpu_share": "ratio",
    "trace.overhead_pct": "%",
}

#: epoch-split parts: layer-name prefix whose self time the part sums
_SPLIT = {
    "forecast": ("temporal.forecast",),
    "orchestrator": ("core.orchestrator.epoch",),
    "persistence": ("core.persistence.",),
    "store": ("db.store.",),
    "drain": ("core.worker.drain",),
    "fused": ("core.fused",),
    "cache": ("core.fused.cache",),
    "forest": ("ml.forest",),
    "diversity": ("core.diversity",),
}


def _within(records, windows):
    return [r for r in records if any(lo <= r.start < hi for lo, hi in windows)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _View:
    """Sums over the spans of one phase."""

    def __init__(self, records: list[SpanRecord]):
        self.records = records

    def named(self, name: str) -> list[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy_ms(self, name: str) -> float:
        return 1e3 * sum(r.duration for r in self.named(name) if r.outermost)

    def self_ms(self, name: str) -> float:
        return 1e3 * sum(r.self_s for r in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(r.counts.get(key, 0) for r in self.named(name))


def _epoch_split(cycle: _View) -> dict[str, float]:
    """Shares of the epochs' wall time by layer, from self times.

    Self times partition each process's traced time, so the parts below
    add up to the epoch: what the orchestrator, refit, checkpoints and
    store calls did in the benchmark process, and what the worker did
    inside its drain.  ``pool`` is the rest of the worker pool call:
    process start, the worker's store open and close, result hand-off
    and join.
    """
    epochs = [r for r in cycle.records if r.name == "core.orchestrator.epoch"]
    windows = [(r.start, r.end) for r in epochs]
    inside = _View(
        [r for r in cycle.records if any(lo <= r.start <= hi for lo, hi in windows)]
    )
    wall_ms = 1e3 * sum(r.duration for r in epochs)
    out = {}
    for part, prefixes in _SPLIT.items():
        ms = 1e3 * sum(
            r.self_s
            for r in inside.records
            if r.name != "core.worker.pool"
            and any(
                r.name == p or (p.endswith(".") and r.name.startswith(p))
                for p in prefixes
            )
        )
        out[part] = ms
    pool_ms = inside.busy_ms("core.worker.pool") - inside.busy_ms(
        "core.worker.drain"
    ) - sum(
        1e3 * r.duration
        for r in inside.named("core.persistence.load")
        if r.outermost
    )
    out["pool"] = pool_ms
    return {
        f"epoch.split.{part}_pct": 100.0 * _ratio(ms, wall_ms)
        for part, ms in out.items()
    }


def layer_metrics(
    spans: list[SpanRecord],
    cycle_windows: list[tuple[float, float]],
    read_windows: list[tuple[float, float]],
    requests: int,
    server_cpu_s: float | None,
    loadgen_cpu_share: float,
    overhead_pct: float,
) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric as ``name -> (value, unit)``."""
    n = max(1, len(cycle_windows))
    cycle = _View(_within(spans, cycle_windows))
    read = _View(_within(spans, read_windows))
    kreq = max(1, requests) / 1e3
    per_req = max(1, requests)
    cells = cycle.count("core.fused", "cells")
    lookups = cycle.count("core.fused.cache", "lookups")
    drain_ms = cycle.busy_ms("core.worker.drain")
    values = {
        "temporal.forecast.busy_ms": cycle.busy_ms("temporal.forecast") / n,
        "core.system.onboard.self_ms": cycle.self_ms("core.system.onboard") / n,
        "core.fused.self_ms": cycle.self_ms("core.fused") / n,
        "core.fused.rounds": cycle.count("core.fused", "rounds") / n,
        "core.fused.cells_deduped_ratio": _ratio(
            cycle.count("core.fused", "cells_deduped"), cells
        ),
        "core.fused.cache.self_ms": cycle.self_ms("core.fused.cache") / n,
        "core.fused.cache.hit_ratio": _ratio(
            cycle.count("core.fused.cache", "hits"), lookups
        ),
        "core.fused.cache.evictions": cycle.count("core.fused.cache", "evictions") / n,
        "ml.forest.calls": cycle.calls("ml.forest") / n,
        "ml.forest.rows": cycle.count("ml.forest", "rows") / n,
        "ml.forest.busy_ms": cycle.busy_ms("ml.forest") / n,
        "core.diversity.busy_ms": cycle.busy_ms("core.diversity") / n,
        "db.store.write.rows": cycle.count("db.store.write", "rows") / n,
        "db.store.write.busy_ms": cycle.busy_ms("db.store.write") / n,
        "db.store.claim.calls": cycle.calls("db.store.claim") / n,
        "db.store.claim.busy_ms": cycle.busy_ms("db.store.claim") / n,
        "db.store.read.busy_ms": cycle.busy_ms("db.store.read") / n,
        "db.store.digest.busy_ms": cycle.busy_ms("db.store.digest") / n,
        "core.persistence.save.busy_ms": cycle.busy_ms("core.persistence.save") / n,
        "core.persistence.save.bytes": cycle.count("core.persistence.save", "bytes") / n,
        "core.persistence.load.busy_ms": cycle.busy_ms("core.persistence.load") / n,
        "core.worker.drain.busy_ms": drain_ms / n,
        "core.worker.pool.overhead_ms": (
            cycle.busy_ms("core.worker.pool") - drain_ms
        ) / n,
        "core.worker.lost_leases": cycle.count("core.worker.pool", "lost_leases") / n,
        "core.worker.skipped_cells": cycle.count("core.worker.pool", "skipped_cells") / n,
        "core.orchestrator.epoch.self_ms": cycle.self_ms("core.orchestrator.epoch") / n,
    }
    values.update(_epoch_split(cycle))
    access_ms = read.busy_ms("db.store.access")
    renders = read.calls("serve.pool")
    values.update(
        {
            "serve.cache.lookups": read.count("serve.cache", "lookups") / per_req,
            "serve.cache.hit_ratio": _ratio(
                read.count("serve.cache", "hits"), read.count("serve.cache", "lookups")
            ),
            "serve.cache.busy_ms": read.busy_ms("serve.cache") / kreq,
            "db.store.access.flushes": read.calls("db.store.access") / kreq,
            "db.store.access.rows": read.count("db.store.access", "rows") / kreq,
            "db.store.access.busy_ms": access_ms / kreq,
            "db.store.access.server_cpu_share": _ratio(
                access_ms, 1e3 * (server_cpu_s or 0.0)
            ),
            "serve.server.cpu_ms": 1e3 * (server_cpu_s or 0.0) / kreq,
            "core.insights.asks": read.calls("core.insights") / per_req,
            "core.insights.busy_ms": read.busy_ms("core.insights") / kreq,
            "db.prepared.queries": read.calls("db.prepared") / per_req,
            "db.prepared.busy_ms": read.busy_ms("db.prepared") / kreq,
            "serve.protocol.busy_ms": read.busy_ms("serve.protocol") / kreq,
            "serve.pool.checkouts": renders / per_req,
            "serve.snapshot.ledger_reads_per_render": _ratio(
                read.calls("serve.snapshot.ledger"), renders
            ),
            "loadgen.cpu_share": loadgen_cpu_share,
            "trace.overhead_pct": overhead_pct,
        }
    )
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER.items()}
