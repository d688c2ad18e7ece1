"""The one LRU cache type behind every per-module cache (:mod:`repro.lru`).

Pins its recency order, its bound, its counters under concurrent lookups,
and the first-insert-wins rule for misses that race on one key.
"""

import threading

import pytest

from repro.lru import LRUCache


def counting_builds():
    built: list[str] = []

    def build(key: str):
        def make():
            built.append(key)
            return ("value", key)

        return make

    return built, build


def test_lru_order():
    cache = LRUCache(2)
    built, build = counting_builds()
    for key in ("a", "b", "a", "c"):  # the hit on a makes b least recent
        cache.get_or_build(key, build(key))
    assert built == ["a", "b", "c"]
    assert cache.get_or_build("a", build("a")) == ("value", "a")  # still cached
    assert built == ["a", "b", "c"]
    cache.get_or_build("b", build("b"))  # was evicted: built again
    assert built == ["a", "b", "c", "b"]
    assert [value[1] for value in cache.values()] == ["a", "b"]


def test_capacity_one_evicts_on_every_new_key():
    evicted = []
    cache = LRUCache(1, on_evict=lambda: evicted.append(1))
    built, build = counting_builds()
    for key in ("a", "b", "b", "a"):
        cache.get_or_build(key, build(key))
    assert built == ["a", "b", "a"]
    assert cache.stats() == {
        "entries": 1, "capacity": 1, "hits": 1, "misses": 3, "evictions": 2,
    }
    assert len(evicted) == 2


def test_bound_holds_under_churn():
    cache = LRUCache(3)
    for i in range(20):
        cache.get_or_build(i, lambda: object())
        assert len(cache) <= 3
    assert cache.stats()["evictions"] == 17


@pytest.mark.parametrize("capacity", [0, -1])
def test_capacity_below_one_is_rejected(capacity):
    with pytest.raises(ValueError):
        LRUCache(capacity)


def test_hits_plus_misses_equal_lookups_under_threads():
    cache = LRUCache(4)
    stop = threading.Event()
    overfull: list[dict] = []

    def reader():
        while not stop.is_set():
            stats = cache.stats()
            if stats["entries"] > 4:
                overfull.append(stats)

    def lookups(seed: int):
        for i in range(500):
            key = (seed * 7 + i) % 6
            assert cache.get_or_build(key, lambda: key) == key

    watcher = threading.Thread(target=reader)
    workers = [threading.Thread(target=lookups, args=(n,)) for n in range(4)]
    watcher.start()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    stop.set()
    watcher.join()
    stats = cache.stats()
    assert not overfull
    assert stats["hits"] + stats["misses"] == 4 * 500
    assert stats["misses"] - stats["evictions"] == stats["entries"] == 4


def test_racing_misses_all_get_the_one_stored_value():
    cache = LRUCache(2)
    # every build waits until all four threads are building, so each of
    # them has missed before any value is stored
    barrier = threading.Barrier(4, timeout=10)
    results: list[object] = []

    def build():
        barrier.wait()
        return object()

    def lookup():
        results.append(cache.get_or_build("k", build))

    threads = [threading.Thread(target=lookup) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 4
    assert all(value is results[0] for value in results)
    assert cache.get_or_build("k", object) is results[0]
    assert cache.stats()["misses"] == 4
    assert len(cache) == 1
