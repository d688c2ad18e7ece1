"""Correctness of the streaming summaries behind cardinality governance.

The documented guarantees — Space-Saving's ``count - error <= true <=
count`` bracket, ``N/k`` error ceiling, light absent keys and guaranteed
heavy hitters, read through the ``top()`` rows, and HyperLogLog accuracy —
are pinned here against exact reference counts on deterministic streams.
"""

from collections import Counter

import pytest

from repro.obs.sketch import OVERFLOW_KEY, HyperLogLog, SpaceSaving, TenantSpill


def zipf_stream(keys: int, events: int, s: float = 1.2) -> list[str]:
    """A deterministic skewed stream: rank-r key appears ~r^-s often."""
    weights = [(rank + 1) ** -s for rank in range(keys)]
    total = sum(weights)
    stream = []
    for rank, weight in enumerate(weights):
        stream.extend(["t%d" % rank] * max(1, round(events * weight / total)))
    # interleave deterministically so arrival order is not sorted by rank
    stream.sort(key=lambda key: hash((key, len(stream))) % 7919)
    return stream


# -- SpaceSaving ---------------------------------------------------------------


def test_space_saving_overestimate_only_and_error_bound():
    stream = zipf_stream(keys=200, events=5000)
    truth = Counter(stream)
    sketch = SpaceSaving(k=16)
    for key in stream:
        sketch.offer(key)
    assert sketch.total == len(stream)
    rows = sketch.top()
    for key, count, error in rows:
        assert count >= truth[key]  # never underestimates
        assert count - error <= truth[key]  # error brackets the truth
        assert error <= sketch.total / sketch.k  # the documented N/k ceiling
    # a full summary's minimum count bounds every absent key's true count
    floor = rows[-1][1]
    tracked = {key for key, _count, _error in rows}
    assert all(truth[key] <= floor for key in truth.keys() - tracked)


def test_space_saving_guaranteed_heavy_hitters_are_present():
    stream = zipf_stream(keys=500, events=8000, s=1.4)
    truth = Counter(stream)
    sketch = SpaceSaving(k=32)
    for key in stream:
        sketch.offer(key)
    threshold = sketch.total / sketch.k
    for key, true_count in truth.items():
        if true_count > threshold:
            assert key in sketch  # the classic heavy-hitter guarantee


def test_space_saving_guaranteed_rows_truly_outrank_absent_keys():
    stream = ["hot"] * 500 + zipf_stream(keys=300, events=1000)
    truth = Counter(stream)
    sketch = SpaceSaving(k=8)
    for key in stream:
        sketch.offer(key)
    rows = sketch.top()
    floor = rows[-1][1]
    absent = truth.keys() - {key for key, _count, _error in rows}
    # a row whose lower bound clears the floor outranks every absent key
    guaranteed = [row for row in rows if row[1] - row[2] > floor]
    assert any(key == "hot" for key, _c, _e in guaranteed)
    for key, _count, _error in guaranteed:
        assert all(truth[key] > truth[other] for other in absent)


def test_space_saving_absent_key_estimate_is_the_floor():
    sketch = SpaceSaving(k=4)
    for key, amount in (("a", 10), ("b", 10), ("c", 3), ("d", 3)):
        sketch.offer(key, amount)
    # summary never filled: a newcomer was absent, never seen, so exact
    assert ("c", 3, 0) in sketch.top()
    # full: an absent newcomer is estimated from the floor (the minimum
    # count, 3), which it carries as its error, and the minimum goes
    sketch.offer("e", 3)
    assert ("e", 6, 3) in sketch.top()
    assert sorted(key for key, _c, _e in sketch.top()) == ["a", "b", "d", "e"]


def test_space_saving_heap_tracks_exactly_the_counter_set():
    stream = zipf_stream(keys=100, events=3000)
    sketch = SpaceSaving(k=12)
    for key in stream:
        sketch.offer(key)
    # the lazy heap's invariant: one entry per tracked key, no strays
    assert sorted(key for _count, key in sketch._heap) == sorted(sketch._counters)
    # settled minimum agrees with a full scan of the live counters
    min_count, min_key = sketch._min_entry()
    assert min_count == min(entry[0] for entry in sketch._counters.values())
    assert sketch._counters[min_key][0] == min_count


def test_space_saving_validation():
    with pytest.raises(ValueError):
        SpaceSaving(k=0)
    sketch = SpaceSaving(k=2)
    with pytest.raises(ValueError):
        sketch.offer("x", -1)


def test_space_saving_top_is_deterministic_under_ties():
    a, b = SpaceSaving(k=8), SpaceSaving(k=8)
    for key in ("x", "y", "z"):
        a.offer(key, 5)
    for key in ("z", "x", "y"):  # different arrival order
        b.offer(key, 5)
    assert a.top() == b.top()


# -- HyperLogLog ---------------------------------------------------------------


def test_hll_small_range_is_near_exact():
    hll = HyperLogLog()
    for i in range(100):
        hll.add("tenant-%d" % i)
        hll.add("tenant-%d" % i)  # duplicates must not count
    assert abs(hll.estimate() - 100) <= 3


def test_hll_large_range_within_stderr():
    hll = HyperLogLog(p=12)
    n = 20_000
    for i in range(n):
        hll.add("key-%d" % i)
    # stderr ~1.04/sqrt(2^12) = 1.6%; allow 3 sigma
    assert abs(hll.estimate() - n) / n < 0.05


def test_hll_validation():
    with pytest.raises(ValueError):
        HyperLogLog(p=3)
    with pytest.raises(ValueError):
        HyperLogLog(p=17)


# -- TenantSpill ---------------------------------------------------------------


def test_tenant_spill_routes_exact_then_overflow():
    spill = TenantSpill(budget=3, top_k=4)
    assert spill.admit("a") == "a"
    assert spill.admit("b") == "b"
    assert spill.admit("c") == "c"
    assert spill.admit("d") == OVERFLOW_KEY  # budget exhausted
    assert spill.admit("a") == "a"  # tracked keys stay exact forever
    assert spill.tracked() == frozenset({"a", "b", "c"})


def test_tenant_spill_conserves_total_weight():
    spill = TenantSpill(budget=8, top_k=8)
    stream = zipf_stream(keys=100, events=2000)
    for key in stream:
        spill.admit(key)
    tracked_weight = sum(spill._tracked.values())
    assert tracked_weight + spill.spilled_total() == len(stream)


def test_tenant_spill_zero_weight_claims_budget_but_skips_sketches():
    spill = TenantSpill(budget=1, top_k=4)
    assert spill.admit("a", 0) == "a"  # claims the free slot
    assert spill.admit("b", 0) == OVERFLOW_KEY
    assert spill.spilled_total() == 0  # no summary maintenance happened
    assert spill.spills == 0
    assert spill.cardinality() == 1  # routing alone adds nothing to the HLL


def test_tenant_spill_sketched_rows_bracket_the_truth():
    spill = TenantSpill(budget=2, top_k=8)
    spill.admit("x")
    spill.admit("y")
    stream = zipf_stream(keys=60, events=1500)
    truth = Counter(stream)
    for key in stream:
        assert spill.admit(key) == OVERFLOW_KEY
    sketched = [row for row in spill.top() if not row[3]]
    assert len(sketched) == spill.top_k
    for key, count, error, _exact in sketched:
        assert count - error <= truth[key] <= count


def test_tenant_spill_top_recovers_the_heavy_hitter():
    spill = TenantSpill(budget=4, top_k=16)
    for i in range(4):
        spill.admit("exact-%d" % i, 10)
    stream = ["whale"] * 400 + zipf_stream(keys=120, events=800)
    for key in stream:
        spill.admit(key)
    rows = spill.top(None)
    assert rows[0][0] == "whale"  # heaviest spilled key leads the ranking
    by_key = {key: (count, error, exact) for key, count, error, exact in rows}
    count, error, exact = by_key["whale"]
    assert not exact and count - error <= 400 <= count
    # exact rows rank beside sketched rows
    assert by_key["exact-0"] == (10, 0, True)


def test_tenant_spill_cardinality_tracks_distinct_keys():
    spill = TenantSpill(budget=16, top_k=16)
    for i in range(2000):
        spill.admit("tenant-%d" % i)
    assert abs(spill.cardinality() - 2000) / 2000 < 0.1


def test_tenant_spill_validation_and_json_shape():
    with pytest.raises(ValueError):
        TenantSpill(budget=-1)
    spill = TenantSpill(budget=2, top_k=4)
    for key in ("a", "b", "c", "c"):
        spill.admit(key)
    info = spill.to_json()
    assert info["budget"] == 2
    assert info["tracked"] == 2
    assert info["spilled_labelsets"] == 1
    assert info["spilled_total"] == 2
    assert info["cardinality"] >= 3


def test_space_saving_heap_stays_one_entry_per_key_under_heavy_churn():
    # alternating cold keys force an eviction per offer — the worst case
    # for the lazy heap; the invariant must hold throughout
    sketch = SpaceSaving(k=4)
    for i in range(500):
        sketch.offer("cold-%d" % (i % 50))
        if i % 100 == 99:
            assert len(sketch._heap) == len(sketch._counters) == sketch.k
            heap_keys = sorted(key for _c, key in sketch._heap)
            assert heap_keys == sorted(sketch._counters)
