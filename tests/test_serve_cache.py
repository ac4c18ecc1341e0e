"""Rendered-insight cache: bounds, exact invalidation, and liveness.

The cache is keyed by request parameters and validated against the
fingerprint-vector ledger — no TTLs anywhere.  The server-level tests
prove the contract that matters: a response never carries a stale
``model_fp``, even while cells are being rewritten concurrently, on
both the single-file and the sharded backends.
"""

import http.client
import threading

import numpy as np
import pytest

from repro.core import Candidate, CandidateMetrics
from repro.core.insights import InsightEngine
from repro.db import CandidateStore
from repro.serve import InsightCache, InsightServer, bundle_payload, dumps

TIME_VALUES = [2024.0, 2025.0, 2026.0, 2027.0]


def cand(x, time, diff, gap, p):
    return Candidate(
        np.asarray(x, dtype=float),
        time,
        CandidateMetrics(diff=diff, gap=gap, confidence=p),
    )


def fill_user(store, user, base, tag):
    """Four ledger cells and two known candidates, stamped ``tag``."""
    debt = store.schema.index_of("monthly_debt")
    trajectory = np.vstack([base] * 4)
    fps = {t: f"{tag}-t{t}" for t in range(4)}
    store.store_temporal_inputs(user, trajectory, fingerprints=fps)
    mod = trajectory[2].copy()
    mod[debt] -= 400
    store.store_candidates(
        user,
        [
            cand(trajectory[1], 1, diff=0.0, gap=0, p=0.55),
            cand(mod, 2, diff=1.0, gap=1, p=0.90),
        ],
        fingerprints=fps,
    )


def direct_bundle(store, user):
    """The server's default bundle, rendered straight off the store."""
    feature = store.schema.names[int(store.schema.mutable_indices()[0])]
    engine = InsightEngine(store, user, TIME_VALUES)
    params = {"q3": {"feature": feature}, "q6": {"alpha": 0.8}}
    insights = {
        qid: engine.ask(qid, **params.get(qid, {}))
        for qid in ("q1", "q2", "q3", "q4", "q5", "q6")
    }
    return dumps(bundle_payload(user, insights, store.cell_fingerprints(user)))


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


class TestInsightCache:
    FPS = ((0, "a"), (1, "b"))

    def test_roundtrip(self):
        cache = InsightCache(4)
        cache.put("k", self.FPS, "body")
        assert cache.get("k", self.FPS) == "body"
        assert cache.stats.hits == 1

    def test_fingerprint_mismatch_drops_entry(self):
        cache = InsightCache(4)
        cache.put("k", self.FPS, "body")
        assert cache.get("k", ((0, "a"), (1, "CHANGED"))) is None
        assert cache.stats.stale == 1
        assert len(cache) == 0
        # even the original vector misses now: the entry is gone
        assert cache.get("k", self.FPS) is None

    def test_lru_bound_and_eviction_counter(self):
        cache = InsightCache(2)
        for i in range(3):
            cache.put(f"k{i}", self.FPS, f"b{i}")
        assert len(cache) == 2
        assert cache.stats.evicted == 1
        assert cache.get("k0", self.FPS) is None  # oldest went first
        assert cache.get("k2", self.FPS) == "b2"

    def test_get_refreshes_recency(self):
        cache = InsightCache(2)
        cache.put("k0", self.FPS, "b0")
        cache.put("k1", self.FPS, "b1")
        cache.get("k0", self.FPS)
        cache.put("k2", self.FPS, "b2")  # evicts k1, not the touched k0
        assert cache.get("k0", self.FPS) == "b0"
        assert cache.get("k1", self.FPS) is None

    def test_fingerprint_vector_sorted(self):
        vector = InsightCache.fingerprint_vector({3: "c", 1: "a", 2: "b"})
        assert vector == ((1, "a"), (2, "b"), (3, "c"))

    def test_clear(self):
        cache = InsightCache(8)
        cache.put("k", self.FPS, "b")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k", self.FPS) is None


@pytest.mark.parametrize("backend,kwargs", [
    ("sqlite", {}),
    ("sharded", {"n_shards": 3}),
])
class TestCacheFreshnessUnderRefresh:
    """A served body must always match a committed store state exactly."""

    def _serve(self, schema, john, tmp_path, backend, kwargs):
        store = CandidateStore(
            schema, tmp_path / "serve.db", backend=backend, **kwargs
        )
        for i in range(3):
            fill_user(store, f"u{i}", john, "fp0")
        server = InsightServer(store, TIME_VALUES)
        server.start_background()
        return store, server

    def _flip(self, store, user, base, tag, shift):
        """Rewrite cell (user, 2) atomically under a new fingerprint."""
        debt = store.schema.index_of("monthly_debt")
        mod = np.asarray(base, dtype=float).copy()
        mod[debt] -= shift
        store.upsert_cells(
            [(user, 2, [cand(mod, 2, diff=1.0, gap=1, p=0.90)])],
            fingerprints={2: f"{tag}-t2"},
        )

    def test_hit_then_refresh_never_serves_stale(
        self, schema, john, tmp_path, backend, kwargs
    ):
        store, server = self._serve(schema, john, tmp_path, backend, kwargs)
        try:
            before = direct_bundle(store, "u0")
            for _ in range(2):  # second request is a cache hit
                status, body = http_get(server.port, "/insights?user=u0")
                assert (status, body) == (200, before)
            assert server.cache.stats.hits >= 1
            self._flip(store, "u0", john, "fp1", shift=700)
            after = direct_bundle(store, "u0")
            assert after != before
            status, body = http_get(server.port, "/insights?user=u0")
            assert (status, body) == (200, after)
            assert server.cache.stats.stale >= 1
        finally:
            server.stop_background()
            store.close()

    def test_hammer_during_flips_yields_only_committed_states(
        self, schema, john, tmp_path, backend, kwargs
    ):
        store, server = self._serve(schema, john, tmp_path, backend, kwargs)
        try:
            self._flip(store, "u1", john, "fpA", shift=400)
            state_a = direct_bundle(store, "u1")
            self._flip(store, "u1", john, "fpB", shift=800)
            state_b = direct_bundle(store, "u1")
            assert state_a != state_b

            stop = threading.Event()
            bodies, errors = [], []

            def reader():
                conn = http.client.HTTPConnection("127.0.0.1", server.port)
                try:
                    while not stop.is_set():
                        conn.request("GET", "/insights?user=u1")
                        resp = conn.getresponse()
                        status, body = resp.status, resp.read().decode()
                        if status != 200:
                            errors.append(body)
                            return
                        bodies.append(body)
                finally:
                    conn.close()

            thread = threading.Thread(target=reader)
            thread.start()
            for i in range(20):
                tag, shift = ("fpA", 400) if i % 2 else ("fpB", 800)
                self._flip(store, "u1", john, tag, shift)
            stop.set()
            thread.join(timeout=30)
            assert not errors, errors[:1]
            assert bodies, "reader collected nothing"
            torn = [b for b in bodies if b not in (state_a, state_b)]
            assert not torn, "served a body matching no committed state"
        finally:
            server.stop_background()
            store.close()
