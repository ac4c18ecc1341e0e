"""Insight serving tier: async read API over the candidate store.

The write path scales through sharding and the worker pool; this
package scales the *read* path — ROADMAP item 2.  See
:mod:`repro.serve.server` for the HTTP surface and the freshness
contract, :mod:`repro.serve.cache` for the fingerprint-validated
rendered-insight cache, and :mod:`repro.serve.pool` for the per-shard
read-only replica connections.
"""

from repro.serve.cache import CacheStats, InsightCache
from repro.serve.pool import ReplicaPool, ReplicaStoreView
from repro.serve.protocol import (
    bundle_payload,
    dumps,
    insight_payload,
    orchestrator_payload,
    plan_payload,
)
from repro.serve.server import InsightServer, ServeError, bundle_freshness_seconds

__all__ = [
    "CacheStats",
    "InsightCache",
    "InsightServer",
    "ReplicaPool",
    "ReplicaStoreView",
    "ServeError",
    "bundle_freshness_seconds",
    "bundle_payload",
    "dumps",
    "insight_payload",
    "orchestrator_payload",
    "plan_payload",
]
