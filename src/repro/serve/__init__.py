"""Insight serving tier: async read API over the candidate store.

The write path scales through sharding and the worker pool; this
package serves the *read* path.  See :mod:`repro.serve.server` for the
HTTP surface, the one read path every request takes on the event-loop
thread and the freshness contract, :mod:`repro.serve.cache` for the
fingerprint-validated rendered-insight cache, and
:mod:`repro.serve.pool` for the one read-only replica connection per
shard.
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
