"""A bounded, thread-safe least-recently-used cache.

Every per-module cache in the system is one :class:`LRUCache`: the
instrumented-module cache (:class:`repro.core.cache.InstrumentationCache`),
the compiled-code cache (:data:`repro.wasm.compile_engine.CODE_CACHE`), the
worker's decoded-module cache (:data:`repro.service.worker.MODULE_CACHE`)
and the base memory images (:data:`repro.wasm.snapshot.format.BASE_IMAGES`).
This module imports nothing from ``repro``, so the wasm layer can use it
without pulling in the enclaves.

One lock policy: the lock guards only the dict and the counters, and a
miss builds *outside* it.  A lock held through a build could be copied in
its locked state into a process forked at that moment (the worker pool
forks from a threaded gateway).  Two threads missing on one key may
therefore both build, but the first insert wins and every caller gets the
one stored value.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

V = TypeVar("V")


class LRUCache(Generic[V]):
    """At most ``capacity`` entries; a lookup refreshes its entry's recency
    and an insert into a full cache evicts the least recently used one.

    ``on_evict`` is called once per eviction, outside the lock (the IE cache
    counts its evictions into a metric there).
    """

    def __init__(self, capacity: int, on_evict: Callable[[], None] | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._on_evict = on_evict
        self._entries: OrderedDict[Hashable, V] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value cached under ``key``, or ``build()``'s, cached on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
        value = build()
        evicted = 0
        with self._lock:
            if key in self._entries:  # a racing build inserted first: it wins
                self._entries.move_to_end(key)
                value = self._entries[key]
            else:
                self._entries[key] = value
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    evicted += 1
                self.evictions += evicted
        if self._on_evict is not None:
            for _ in range(evicted):
                self._on_evict()
        return value

    def values(self) -> list[V]:
        """The cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def stats(self) -> dict[str, int]:
        """Occupancy and counters, read together under the lock, so
        ``hits + misses`` is always the number of lookups so far."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
