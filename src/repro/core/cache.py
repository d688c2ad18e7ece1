"""Instrumented-module cache (paper §3.3).

"The code only needs to be instrumented once.  A cached copy of the
instrumented code can be re-used across many invocations."  The cache is
keyed by the *input* module hash together with the IE identity (measurement
covers level + weight table), and stores the instrumented module bytes plus
the signed evidence — everything an accounting enclave needs to re-admit the
workload without re-running the IE.

Under FaaS-style churn (every distinct tenant module adds an entry) the
cache is bounded: it keeps the ``max_entries`` most recently used entries
(:class:`repro.lru.LRUCache`), and :meth:`InstrumentationCache.stats`
exposes hit/miss/eviction counters so operators can size it.

The cache is thread-safe: the metering gateway shares one instance across
request-submitting threads and pool completion callbacks.  A miss runs the
IE outside the cache's lock, so two concurrent registrations of the same
module may both pay the IE pass; the first result stored is the one every
caller gets.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.instrumentation_enclave import (
    InstrumentationEnclave,
    InstrumentationEvidence,
)
from repro.lru import LRUCache
from repro.obs.instruments import CACHE_EVICTIONS, CACHE_HITS, CACHE_MISSES
from repro.obs.trace import span
from repro.tcrypto.hashing import sha256
from repro.wasm.binary import decode_module, encode_module
from repro.wasm.module import Module


class _CacheEntry(NamedTuple):
    module_bytes: bytes
    evidence: InstrumentationEvidence
    counter_export: str


class InstrumentationCache:
    """Caches IE outputs keyed by (input hash, IE measurement), keeping the
    ``max_entries`` most recently used."""

    def __init__(self, ie: InstrumentationEnclave, max_entries: int = 256):
        self.ie = ie
        self._lru: LRUCache[_CacheEntry] = LRUCache(
            max_entries, on_evict=CACHE_EVICTIONS.inc
        )

    def instrument(self, module: Module) -> tuple[Module, InstrumentationEvidence, str]:
        """Return (instrumented module, evidence, counter export), cached.

        The returned module is freshly decoded from the cached bytes, so
        callers may mutate it without poisoning the cache.
        """
        key = (sha256(encode_module(module)), self.ie.mrenclave)
        with span("instrument", module_hash=key[0]) as sp:
            outcome = "hit"

            def build() -> _CacheEntry:
                nonlocal outcome
                outcome = "miss"
                result, evidence = self.ie.instrument(module)
                return _CacheEntry(
                    encode_module(result.module), evidence, result.counter_export
                )

            entry = self._lru.get_or_build(key, build)
            (CACHE_MISSES if outcome == "miss" else CACHE_HITS).inc()
            sp.set_attribute("cache", outcome)
            return decode_module(entry.module_bytes), entry.evidence, entry.counter_export

    @property
    def hits(self) -> int:
        """Cumulative hit count (survives eviction of the entries that hit)."""
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    def stats(self) -> dict[str, int | float]:
        """Operational counters: hits, misses, evictions, occupancy."""
        # one atomic snapshot of the LRU's counters, so hits + misses ==
        # lookups holds even while instrument() runs concurrently
        lru = self._lru.stats()
        lookups = lru["hits"] + lru["misses"]
        return {
            "hits": lru["hits"],
            "misses": lru["misses"],
            "lookups": lookups,
            "evictions": lru["evictions"],
            "entries": lru["entries"],
            "max_entries": lru["capacity"],
            "hit_rate": (lru["hits"] / lookups) if lookups else 0.0,
        }

    def __len__(self) -> int:
        return len(self._lru)
