"""Cardinality governance across the observability stack.

Pins the scale behaviour the million-tenant soak depends on: instruments
and the rolling aggregator stay bounded under arbitrary tenant churn,
totals are conserved through the ``__other__`` overflow series, the
governance metrics report what was shed, and the admission controller's
lazy tenant states stay within their resident cap.
"""

import collections

import pytest

from repro.obs import instruments
from repro.obs.events import Event
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    disable_metrics,
    enable_metrics,
    set_tenant_budget,
)
from repro.obs.rollup import RollingAggregator
from repro.obs.sketch import OVERFLOW_KEY, TenantSpill
from repro.obs.soak import _zipf_schedule
from repro.service.quota import AdmissionController, TenantQuota


@pytest.fixture
def governed_registry():
    """Metrics on, a tiny tenant budget, everything restored afterwards."""
    previous = set_tenant_budget(4, top_k=8)
    enable_metrics()
    instruments.REGISTRY.reset()
    try:
        yield
    finally:
        disable_metrics()
        set_tenant_budget(previous)
        instruments.REGISTRY.reset()


# -- instrument budgets --------------------------------------------------------


def test_counter_spills_over_budget_tenants_and_conserves_totals(
    governed_registry,
):
    counter = Counter("test_requests", "requests")
    for i in range(100):
        counter.inc(tenant="t%d" % i, outcome="ok")
    series = counter.to_json()
    # bounded: budget exact series + the single overflow series
    assert len(series) == 4 + 1
    assert any(OVERFLOW_KEY in key for key in series)
    # nothing lost: every observation landed somewhere
    assert counter.total() == 100
    # the overflow series carries exactly the over-budget weight
    assert counter.value(tenant=OVERFLOW_KEY, outcome="ok") == 96


def test_spills_counts_summary_entries_not_distinct_labelsets():
    """A labelset the Space-Saving summary evicted counts again when it
    returns: 96 spilled tenants cycled three times through an 8-counter
    summary enter it 288 times.  A distinct count would need state for
    every labelset ever seen, so ``spills`` is documented as entries."""
    spill = TenantSpill(budget=4, top_k=8)
    for _cycle in range(3):
        for i in range(100):
            spill.admit("tenant-%d" % i)
    assert spill.tracked_count() == 4
    assert spill.spills == 288
    # with no more spilled labelsets than counters, nothing is evicted
    # and entries equal distinct labelsets
    small = TenantSpill(budget=4, top_k=8)
    for _cycle in range(3):
        for i in range(12):
            small.admit("tenant-%d" % i)
    assert small.spills == 8


def test_counter_spilled_tenant_recoverable_from_sketch(governed_registry):
    counter = Counter("test_requests", "requests")
    for i in range(4):
        counter.inc(tenant="exact-%d" % i)
    for _ in range(50):
        counter.inc(tenant="noisy")
    for i in range(30):
        counter.inc(tenant="tail-%d" % i)
    # the heavy spilled tenant leads the governor's sketched rows, its
    # count bracketed by the Space-Saving bounds
    sketched = [row for row in counter._spill.top() if not row[3]]
    tenant, count, error, _exact = sketched[0]
    assert tenant == "noisy" and count - error <= 50 <= count
    info = counter._spill.to_json()
    assert info["tracked"] == 4
    assert info["spilled_labelsets"] == 31


def test_gauge_routes_overflow_without_sketch_maintenance(governed_registry):
    gauge = Gauge("test_depth", "queue depth")
    for i in range(20):
        gauge.set(i, tenant="g%d" % i)
    series = gauge.to_json()
    assert len(series) == 4 + 1
    # gauges route without weighing: the governor does no summary work
    info = gauge._spill.to_json()
    assert info["spilled_labelsets"] == 0
    assert info["spilled_total"] == 0
    # overflow series is last-write-wins
    assert gauge.value(tenant=OVERFLOW_KEY) == 19.0


def test_histogram_folds_spilled_observations_into_overflow(governed_registry):
    hist = Histogram("test_latency", "latency")
    for i in range(40):
        hist.observe(0.01, tenant="h%d" % i)
    # all 40 observations are present: 4 exact series of 1 + overflow of 36
    assert hist.count(tenant=OVERFLOW_KEY) == 36
    total = sum(
        hist.count(tenant="h%d" % i) for i in range(4)
    ) + hist.count(tenant=OVERFLOW_KEY)
    assert total == 40


def test_governance_metrics_report_cardinality_and_evictions(
    governed_registry,
):
    counter = Counter("test_requests", "requests")
    # tracked-set growth notifies immediately; spills are batched at 64,
    # so cross a full batch to see the evicted counter move
    for i in range(4 + 70):
        counter.inc(tenant="t%d" % i)
    cardinality = instruments.TENANT_CARDINALITY.value(metric="test_requests")
    assert cardinality >= 4  # at least the tracked set
    evicted = instruments.LABEL_SETS_EVICTED.value(metric="test_requests")
    assert 64 <= evicted <= 70  # one full batch reported, remainder pending


def test_non_tenant_labels_are_never_governed(governed_registry):
    counter = Counter("test_requests", "requests")
    for i in range(50):
        counter.inc(code="c%d" % i)
    # only the tenant dimension is budgeted; other labels stay exact
    assert len(counter.to_json()) == 50
    assert counter._spill is None


# -- rollup aggregator ---------------------------------------------------------


def _drive(agg: RollingAggregator, tenants: int, ts: float = 1.0) -> None:
    for i in range(tenants):
        agg.observe(
            Event(seq=i, ts_s=ts, kind="admit", fields={"tenant": "t%d" % i})
        )


def test_rollup_tenant_keys_bounded_under_many_distinct_tenants():
    # the regression the budget exists for: before governance, every
    # distinct tenant minted a window key and the ring grew O(ever-seen)
    agg = RollingAggregator(slice_s=1.0, slices=8, tenant_budget=32, top_k=16)
    _drive(agg, 100_000)
    census = agg.key_census()
    assert census["tenant_keys"] <= 32 + 1  # budget + __other__
    spill = agg.tenant_spill_info()
    assert spill["tracked"] == 32
    # cardinality still approximates the true population
    assert abs(agg.tenant_cardinality() - 100_000) / 100_000 < 0.1


def test_rollup_conserves_window_counts_through_overflow():
    agg = RollingAggregator(slice_s=1.0, slices=8, tenant_budget=8, top_k=8)
    _drive(agg, 200)
    total = sum(
        agg.count(("admit", "tenant", "t%d" % i), 8.0) for i in range(8)
    ) + agg.count(("admit", "tenant", OVERFLOW_KEY), 8.0)
    assert total == 200
    assert agg.count("admit", 8.0) == 200


def test_rollup_top_tenants_merges_exact_and_sketched_rows():
    agg = RollingAggregator(slice_s=1.0, slices=8, tenant_budget=4, top_k=16)
    _drive(agg, 4)  # fill the exact budget
    for seq in range(300):
        agg.observe(
            Event(seq=100 + seq, ts_s=1.0, kind="admit",
                  fields={"tenant": "whale"})
        )
    rows = agg.top_tenants(3)
    assert rows[0]["tenant"] == "whale"
    assert not rows[0]["exact"]
    assert rows[0]["events"] - rows[0]["error"] <= 300 <= rows[0]["events"]
    assert [row["exact"] for row in rows[1:]] == [True, True]


def test_rollup_unweighed_kinds_route_but_do_not_rank():
    agg = RollingAggregator(slice_s=1.0, slices=8, tenant_budget=2, top_k=8)
    _drive(agg, 2)
    # spilled settled/receipt events follow the overflow series but must
    # not inflate the tenant's sketched request count
    for seq in range(50):
        agg.observe(
            Event(seq=200 + seq, ts_s=1.0, kind="settled",
                  fields={"tenant": "chatty", "outcome": "ok"})
        )
    assert agg.count(("settled", "tenant", OVERFLOW_KEY), 8.0) == 50
    assert "chatty" not in {row["tenant"] for row in agg.top_tenants()}
    spill = agg.tenant_spill_info()
    assert spill["spilled_total"] == 0


def test_rollup_top_tenants_recover_the_heaviest_spilled_tenants():
    # a Zipf(1.1) stream over 10^5 tenants: the exact budget covers 64
    # tenants, so the ranking of the heavy tail rests on the spill summary
    schedule = _zipf_schedule(100_000, 100_000, 1.1, seed=7)
    agg = RollingAggregator(slice_s=1.0, slices=8, tenant_budget=64, top_k=64)
    for seq, rank in enumerate(schedule):
        agg.observe(
            Event(seq=seq, ts_s=1.0, kind="admit", fields={"tenant": "t%d" % rank})
        )
    rows = agg.top_tenants()
    exact = {row["tenant"] for row in rows if row["exact"]}
    sketched = {row["tenant"]: row for row in rows if not row["exact"]}
    truth = collections.Counter("t%d" % rank for rank in schedule)
    spilled = [(count, t) for t, count in truth.items() if t not in exact]
    for true_count, tenant in sorted(spilled, reverse=True)[:10]:
        assert tenant in sketched
        row = sketched[tenant]
        assert row["events"] - row["error"] <= true_count <= row["events"]
        assert row["events"] <= 1.25 * true_count


def test_rollup_overflow_ratio_reflects_governance_pressure():
    agg = RollingAggregator(slice_s=1.0, slices=8, tenant_budget=4, top_k=8)
    _drive(agg, 4)
    assert agg.overflow_ratio(8.0) == 0.0
    _drive(agg, 12)  # 8 of these spill
    assert agg.overflow_ratio(8.0) == pytest.approx(8 / 16)


# -- admission controller ------------------------------------------------------


def test_quota_resident_states_bounded_and_evictions_counted():
    admission = AdmissionController(
        default_quota=TenantQuota(max_queue_depth=4),
        max_resident=32,
        shards=4,
    )
    for i in range(500):
        tenant = "t%d" % i
        admission.admit(tenant)
        admission.settle(tenant)
    assert admission.resident() <= 32 + 4  # per-shard rounding slack
    assert admission.evictions >= 500 - (32 + 4)


def test_quota_eviction_metric_is_batched_but_attribute_exact():
    previous = set_tenant_budget(2048)
    enable_metrics()
    instruments.REGISTRY.reset()
    try:
        admission = AdmissionController(
            default_quota=TenantQuota(), max_resident=8, shards=1
        )
        for i in range(200):
            tenant = "t%d" % i
            admission.admit(tenant)
            admission.settle(tenant)
        metric = instruments.QUOTA_EVICTIONS.total()
        # the metric moves in batches of 64; the attribute is exact and
        # the metric is never more than one batch behind it
        assert metric % 64 == 0
        assert admission.evictions - 64 < metric <= admission.evictions + 64
        assert admission.evictions == 200 - 8
    finally:
        disable_metrics()
        set_tenant_budget(previous)
        instruments.REGISTRY.reset()


def test_quota_queue_depth_gauge_only_for_registered_tenants():
    previous = set_tenant_budget(2048)
    enable_metrics()
    instruments.REGISTRY.reset()
    try:
        admission = AdmissionController(
            default_quota=TenantQuota(), max_resident=8
        )
        admission.register("pinned", TenantQuota(max_queue_depth=4))
        admission.admit("pinned")
        admission.admit("lazy-1")
        # registered tenants publish per-tenant queue depth; lazily minted
        # mass tenants do not (their series would only churn the governor)
        assert instruments.GATEWAY_QUEUE_DEPTH.value(tenant="pinned") == 1
        assert instruments.GATEWAY_QUEUE_DEPTH.value(tenant="lazy-1") == 0
        admission.settle("pinned")
        assert instruments.GATEWAY_QUEUE_DEPTH.value(tenant="pinned") == 0
    finally:
        disable_metrics()
        set_tenant_budget(previous)
        instruments.REGISTRY.reset()
