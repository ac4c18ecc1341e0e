"""Span tracing for the traced benchmark run.

The traced run wraps the public functions at each layer boundary of the
program, at the name each caller looks up (``repro.core.worker
.generate_fused``, ``CandidateStore.upsert_cells``, ...), so no file of
the program changes.  Every call records a span ``(name, start, end,
parent, counts)`` in memory; the parent is the innermost span open on
the same thread.  Worker and server processes write their spans to
``<out_dir>/spans-<pid>-<ns>.json`` when they finish and the benchmark
merges them.  ``time.perf_counter`` reads the host's monotonic clock,
so spans of different processes share one time axis.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; its *busy time* is the summed duration
of its outermost spans.  With tracing off nothing here is imported by
the workloads' code paths and no wrapper is installed.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Span", "Tracer", "load_spans", "self_times"]

#: marker attribute carried by every installed wrapper
WRAPPED = "__perfbench_wrapped__"


class Span:
    """One recorded call; ``parent`` is the enclosing :class:`Span`."""

    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, end=0.0, parent=None, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counts = counts


# ---------------------------------------------------------------- hooks
#
# A hook turns one call into counts attached to its span:
# ``hook(args, kwargs, result, before) -> dict``; ``before`` is what the
# target's ``before`` callable returned ahead of the call.


def _rows_arg(args, kwargs, result, before):
    X = args[1] if len(args) > 1 else kwargs.get("X")
    return {"rows": int(getattr(X, "shape", (len(X),))[0])}


def _fused_report(args, kwargs, result, before):
    report = result[1]
    return {
        "rounds": report.rounds,
        "cells": report.cells,
        "cells_deduped": report.cells_deduped,
    }


def _cache_before(args, kwargs):
    return args[0].evictions


def _cache_counts(args, kwargs, result, before):
    cache, fp = args[0], args[2]
    hit_mask = result[1]
    counts = {"evictions": cache.evictions - before}
    if fp:
        counts["hits"] = int(hit_mask.sum())
        counts["lookups"] = int(hit_mask.size)
    return counts


def _written_rows(args, kwargs, result, before):
    if isinstance(result, int):
        return {"rows": result}
    rows = args[1] if len(args) > 1 else kwargs.get("rows", ())
    return {"rows": sum(len(entry[2]) for entry in rows)}


def _saved_bytes(args, kwargs, result, before):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _pool_report(args, kwargs, result, before):
    return {
        "lost_leases": sum(w.lost_leases for w in result.workers),
        "skipped_cells": len(result.skipped_cells),
        "cells": result.cells_recomputed,
    }


def _cache_get(args, kwargs, result, before):
    return {"lookups": 1, "hits": int(result is not None)}


def _returned_count(args, kwargs, result, before):
    return {"rows": int(result or 0)}


#: (module, attribute path, layer name, hook, before)
TARGETS = [
    ("repro.temporal.forecast", "ModelsGenerator.generate", "temporal.forecast", None, None),
    ("repro.core.system", "JustInTime.create_sessions", "core.system.onboard", None, None),
    ("repro.core.system", "generate_fused", "core.fused", _fused_report, None),
    ("repro.core.worker", "generate_fused", "core.fused", _fused_report, None),
    ("repro.core.fused", "EpochProposalCache.scores_for", "core.fused.cache",
     _cache_counts, _cache_before),
    ("repro.ml.forest", "RandomForestClassifier.predict_proba", "ml.forest", _rows_arg, None),
    ("repro.core.fused", "select_diverse_batch", "core.diversity", None, None),
    ("repro.db.store", "CandidateStore.store_sessions", "db.store.write", _written_rows, None),
    ("repro.db.store", "CandidateStore.upsert_cells", "db.store.write", _written_rows, None),
    ("repro.db.store", "CandidateStore.claim_stale_cells", "db.store.claim", None, None),
    ("repro.db.store", "CandidateStore.renew_leases", "db.store.claim", None, None),
    ("repro.db.store", "CandidateStore.release_cells", "db.store.claim", None, None),
    ("repro.db.store", "CandidateStore.cell_vectors", "db.store.read", None, None),
    ("repro.db.store", "CandidateStore.load_session_specs", "db.store.read", None, None),
    ("repro.db.store", "CandidateStore.contents_digest", "db.store.digest", None, None),
    ("repro.db.store", "CandidateStore.record_accesses", "db.store.access",
     _returned_count, None),
    ("repro.core.orchestrator", "save_system", "core.persistence.save", _saved_bytes, None),
    ("repro.core.worker", "load_system", "core.persistence.load", None, None),
    ("repro.app.cli", "load_system", "core.persistence.load", None, None),
    ("repro.core.orchestrator", "run_worker_pool", "core.worker.pool", _pool_report, None),
    ("repro.core.worker", "drain_stale_cells", "core.worker.drain", None, None),
    ("repro.core.orchestrator", "RefreshOrchestrator.run", "core.orchestrator.epoch",
     None, None),
    ("repro.serve.cache", "InsightCache.get", "serve.cache", _cache_get, None),
    ("repro.serve.cache", "InsightCache.put", "serve.cache", None, None),
    ("repro.core.insights", "InsightEngine.ask", "core.insights", None, None),
    ("repro.serve.server", "bundle_payload", "serve.protocol", None, None),
    ("repro.serve.server", "insight_payload", "serve.protocol", None, None),
    ("repro.serve.server", "dumps", "serve.protocol", None, None),
    ("repro.serve.pool", "ReplicaPool.view", "serve.pool", None, None),
    ("repro.serve.pool", "ReplicaStoreView.cell_fingerprints", "serve.snapshot.ledger",
     None, None),
]

#: every public method of the shared prepared-statement layer is one query
PREPARED = ("repro.db.prepared", "PreparedQueries", "db.prepared")

#: the worker process entry point: spans recorded in a forked worker are
#: written out when it returns
WORKER_MAIN = ("repro.core.worker", "worker_main", "core.worker.main")


def _resolve(module_name: str, path: str):
    """``(owner, attribute name)`` of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _span_targets():
    """``(owner, attribute, layer name, hook, before)`` of every function
    wrapped in a span (the worker entry point is handled apart)."""
    for module, path, name, hook, before in TARGETS:
        owner, attr = _resolve(module, path)
        yield owner, attr, name, hook, before
    module, cls_name, name = PREPARED
    cls = getattr(importlib.import_module(module), cls_name)
    for attr, value in list(vars(cls).items()):
        if not attr.startswith("_") and callable(value):
            yield cls, attr, name, None, None


def target_functions() -> list[tuple[object, str]]:
    """Every ``(owner, attribute)`` the tracer wraps."""
    pairs = [(owner, attr) for owner, attr, _, _, _ in _span_targets()]
    pairs.append(_resolve(WORKER_MAIN[0], WORKER_MAIN[1]))
    return pairs


class Tracer:
    """In-memory span recorder for one process.

    :meth:`install` replaces each target with a wrapper and
    :meth:`uninstall` puts the originals back.
    """

    def __init__(self, out_dir: str | Path, run_id: str):
        self.out_dir = Path(out_dir)
        self.run_id = str(run_id)
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, hook=None, before=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        state = before(args, kwargs) if before is not None else None
        span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if hook is not None:
            span.counts = hook(args, kwargs, result, state)
        return result

    # ------------------------------------------------------- installing

    def _wrap(self, owner, attr: str, make) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        wrapper = make(original)
        setattr(wrapper, WRAPPED, True)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self) -> "Tracer":
        for owner, attr, name, hook, before in list(_span_targets()):
            self._wrap(owner, attr, self._span_wrapper(name, hook, before))
        owner, attr = _resolve(WORKER_MAIN[0], WORKER_MAIN[1])
        self._wrap(owner, attr, self._worker_wrapper)
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, name, hook, before):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, hook, before)

            return wrapper

        return make

    def _worker_wrapper(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return tracer.call(WORKER_MAIN[2], original, args, kwargs)
            # a forked worker inherits the parent's spans and open-span
            # stack: start clean, and write this process's spans out
            tracer.spans = []
            tracer._local = threading.local()
            try:
                return tracer.call(WORKER_MAIN[2], original, args, kwargs)
            finally:
                tracer.dump()

        return wrapper

    # ------------------------------------------------------------ output

    def records(self) -> list[list]:
        """Spans as ``[name, start, end, parent index, counts]`` rows."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [
                span.name,
                span.start,
                span.end,
                -1 if span.parent is None else index.get(id(span.parent), -1),
                span.counts,
            ]
            for span in self.spans
        ]

    def dump(self) -> Path:
        """Write this process's spans to a new ``<out_dir>/spans-*.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}-{time.monotonic_ns()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(
                {"run_id": self.run_id, "pid": os.getpid(), "spans": self.records()}
            )
        )
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------- analysis


@dataclass
class SpanRecord:
    """A merged span: its own timing plus derived self time."""

    name: str
    start: float
    end: float
    parent: int
    counts: dict = field(default_factory=dict)
    pid: int = 0
    self_s: float = 0.0
    #: no ancestor carries the same name (busy time counts these only)
    outermost: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(records: list[SpanRecord]) -> None:
    """Fill ``self_s`` and ``outermost`` of one process's records.

    ``parent`` indexes into ``records``.  Self time is the span's
    duration minus the union of its direct children's intervals,
    clipped to the span's own interval.
    """
    children: dict[int, list[SpanRecord]] = {}
    for record in records:
        if record.parent >= 0:
            children.setdefault(record.parent, []).append(record)
    for i, record in enumerate(records):
        covered = 0.0
        reach = record.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, record.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        record.self_s = record.duration - covered
        ancestor = record.parent
        record.outermost = True
        while ancestor >= 0:
            if records[ancestor].name == record.name:
                record.outermost = False
                break
            ancestor = records[ancestor].parent


def records_from(rows, pid: int) -> list[SpanRecord]:
    records = [
        SpanRecord(name, start, end, parent, counts or {}, pid)
        for name, start, end, parent, counts in rows
    ]
    self_times(records)
    return records


def load_spans(tracer: Tracer) -> list[SpanRecord]:
    """This process's spans plus every span file in the tracer's
    output directory, with self times computed per process."""
    merged = records_from(tracer.records(), tracer.pid)
    if tracer.out_dir.is_dir():
        for path in sorted(tracer.out_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            merged.extend(records_from(payload["spans"], int(payload["pid"])))
    return merged
