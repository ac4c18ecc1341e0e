"""Bounded rendered-insight cache with exact fingerprint invalidation.

The cache stores fully rendered JSON responses keyed by
``(user_id, question, params)`` together with the **fingerprint vector**
— the ``(time, model_fp)`` ledger slice of the user at render time.  A
hit is only served after the stored vector is compared against the
*current* ledger, so staleness detection is exact, not a TTL guess: a
refresh epoch bumps ``model_fp`` only for the cells it rewrote, and any
entry rendered under an older fingerprint simply fails validation on
its next lookup.  That validation read is one indexed primary-key scan
(``temporal_inputs`` is ``PRIMARY KEY (user_id, time)``) versus the
9 statements of a full bundle render (10 with a budget, more with a
plan set; see :mod:`repro.serve.server`) — the serving tier's whole
speedup lives in that ratio.  Nothing evicts entries eagerly when a
refresh lands: every hit re-validates, so a refreshed user's first
request is a validate-then-miss.

Thread-safe: the server looks entries up and stores them on its
event-loop thread while ``/v1/stats`` reads the counters from its
executor.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

__all__ = ["CacheStats", "InsightCache"]

#: key of one rendered response: (user_id, question-or-"bundle", params)
CacheKey = tuple


class CacheStats:
    """Monotonic counters (reads under the cache lock, so consistent)."""

    __slots__ = ("hits", "misses", "stale", "evicted")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.evicted = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class InsightCache:
    """LRU cache of rendered responses, validated by fingerprint vector.

    Parameters
    ----------
    max_entries:
        Hard bound on resident entries; least-recently-used entries are
        evicted past it.  Rendered bundles are a few KB, so the default
        comfortably serves ~100k hot users in well under a GB.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        #: key -> (fingerprint vector, rendered payload)
        self._entries: OrderedDict[CacheKey, tuple[tuple, Any]] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def fingerprint_vector(ledger: dict[int, str]) -> tuple:
        """Canonical, hashable form of a ``{time: model_fp}`` ledger
        slice — the freshness token entries are stored and validated
        under.  For a slice that already iterates in time order (the
        ledger read's) this is ``tuple(ledger.items())``."""
        return tuple(sorted(ledger.items()))

    def get(self, key: CacheKey, current_fps: tuple) -> Any | None:
        """The cached payload, iff it was rendered under ``current_fps``.

        ``current_fps`` must be the *caller's fresh read* of the ledger
        (in :meth:`fingerprint_vector` form) — the comparison against it is
        the exact-invalidation step.  A mismatch drops the entry and
        reads as a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            stored_fps, payload = entry
            if stored_fps != current_fps:
                # rendered under an older model state: stale, evict now
                del self._entries[key]
                self.stats.stale += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return payload

    def put(self, key: CacheKey, fps: tuple, payload: Any) -> None:
        """Store ``payload`` rendered under fingerprint vector ``fps``."""
        with self._lock:
            self._entries[key] = (fps, payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evicted += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
