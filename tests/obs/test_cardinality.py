"""Cardinality governance across the observability stack.

Pins the scale behaviour the million-tenant soak depends on: instruments
and their windows stay bounded under arbitrary tenant churn,
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
from repro.obs.sketch import OVERFLOW_KEY, TenantSpill
from repro.obs.slo import EventReplay, resolve_signal
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


# -- rollups: the registry windows and the requests counter's tenant rows ------


def _drive(replayed: EventReplay, tenants: int, ts: float = 1.0) -> None:
    for i in range(tenants):
        replayed.record(
            Event(seq=i, ts_s=ts, kind="reject",
                  fields={"tenant": "t%d" % i, "code": "queue-full"})
        )


def _windowed(budget: int, top_k: int) -> EventReplay:
    """A replay registry whose governors get ``budget`` and ``top_k``."""
    set_tenant_budget(budget, top_k=top_k)
    return EventReplay()


@pytest.fixture
def restore_budget():
    previous = set_tenant_budget(1024, top_k=64)
    try:
        yield
    finally:
        set_tenant_budget(previous, top_k=64)


def test_rollup_tenant_keys_bounded_under_many_distinct_tenants(restore_budget):
    # the regression the budget exists for: a window keyed by tenant grows
    # O(ever-seen); the registry windows are keyed by outcome alone
    replayed = _windowed(32, 16)
    _drive(replayed, 100_000)
    m = replayed.metrics
    assert m.registry.window_keys() == 1  # one per outcome, none per tenant
    spill = m.requests.governance()
    assert spill["tracked"] == 32
    # cardinality still approximates the true population
    assert abs(spill["cardinality"] - 100_000) / 100_000 < 0.1


def test_rollup_conserves_window_counts_through_overflow(restore_budget):
    replayed = _windowed(8, 8)
    _drive(replayed, 200)
    m = replayed.metrics
    [cell] = m.requests.window(8.0).values()
    exact = sum(m.requests.value(tenant="t%d" % i, outcome="rejected:queue-full")
                for i in range(8))
    overflow = m.requests.value(tenant=OVERFLOW_KEY, outcome="rejected:queue-full")
    assert exact + overflow == 200
    assert cell[1] == overflow  # the window's overflow share
    assert resolve_signal(m, "count:reject", 8.0) == 200


def test_rollup_top_tenants_merges_exact_and_sketched_rows(restore_budget):
    replayed = _windowed(4, 16)
    _drive(replayed, 4)  # fill the exact budget
    for seq in range(300):
        replayed.record(
            Event(seq=100 + seq, ts_s=1.0, kind="reject",
                  fields={"tenant": "whale", "code": "queue-full"})
        )
    rows = replayed.metrics.requests.top_tenants(3)
    assert rows[0]["tenant"] == "whale"
    assert not rows[0]["exact"]
    assert rows[0]["events"] - rows[0]["error"] <= 300 <= rows[0]["events"]
    assert [row["exact"] for row in rows[1:]] == [True, True]


def test_rollup_unweighed_kinds_route_but_do_not_rank(restore_budget):
    replayed = _windowed(2, 8)
    for i in range(2):  # fill both instruments' exact budgets
        replayed.record(
            Event(seq=i, ts_s=1.0, kind="settled",
                  fields={"tenant": "t%d" % i, "outcome": "ok",
                          "latency_s": 0.001, "trace_id": None})
        )
    m = replayed.metrics
    # a spilled tenant's latency observations follow the overflow series
    # in the histogram's window but must not rank it: only the requests
    # counter weighs tenants
    for _ in range(50):
        m.latency.observe(0.001, tenant="chatty")
    [cell] = m.latency.window(8.0).values()
    assert cell[-1] == 50
    assert "chatty" not in {row["tenant"] for row in m.requests.top_tenants()}
    assert m.latency.governance()["spilled_total"] == 0


def test_rollup_top_tenants_recover_the_heaviest_spilled_tenants(restore_budget):
    # a Zipf(1.1) stream over 10^5 tenants: the exact budget covers 64
    # tenants, so the ranking of the heavy tail rests on the spill summary
    # (8 counters per row of a top-64 table)
    schedule = _zipf_schedule(100_000, 100_000, 1.1, seed=7)
    replayed = _windowed(64, 8 * 64)
    for seq, rank in enumerate(schedule):
        replayed.record(
            Event(seq=seq, ts_s=1.0, kind="reject",
                  fields={"tenant": "t%d" % rank, "code": "queue-full"})
        )
    rows = replayed.metrics.requests.top_tenants()
    exact = {row["tenant"] for row in rows if row["exact"]}
    sketched = {row["tenant"]: row for row in rows if not row["exact"]}
    truth = collections.Counter("t%d" % rank for rank in schedule)
    spilled = [(count, t) for t, count in truth.items() if t not in exact]
    for true_count, tenant in sorted(spilled, reverse=True)[:10]:
        assert tenant in sketched
        row = sketched[tenant]
        assert row["events"] - row["error"] <= true_count <= row["events"]
        assert row["events"] <= 1.25 * true_count


def test_rollup_overflow_ratio_reflects_governance_pressure(restore_budget):
    replayed = _windowed(4, 8)
    _drive(replayed, 4)
    assert resolve_signal(replayed.metrics, "overflow_ratio", 8.0) == 0.0
    _drive(replayed, 12)  # 8 of these spill
    assert resolve_signal(replayed.metrics, "overflow_ratio", 8.0) == pytest.approx(
        8 / 16
    )


# -- admission controller ------------------------------------------------------


def test_quota_resident_states_bounded_and_evictions_counted():
    admission = AdmissionController(
        default_quota=TenantQuota(max_queue_depth=4),
        max_resident=32,
    )
    for i in range(500):
        tenant = "t%d" % i
        admission.admit(tenant)
        admission.settle(tenant)
    assert admission.resident() <= 32
    assert admission.evictions >= 500 - 32


def test_quota_eviction_metric_is_batched_but_attribute_exact():
    previous = set_tenant_budget(2048)
    enable_metrics()
    instruments.REGISTRY.reset()
    try:
        admission = AdmissionController(
            default_quota=TenantQuota(), max_resident=8
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


# -- governor work per request -------------------------------------------------


def test_soak_requests_make_at_most_one_governor_call(monkeypatch):
    """The registry governors are the only ones on the modeled request
    path: a request routes through the requests counter's and the latency
    histogram's governor only when it spills or opens a series, and the
    windows add no call.  The machine-speed probe's governor is not
    counted."""
    from repro.obs import soak

    calls = [0]
    counting = [True]
    admit = TenantSpill.admit

    def counted(self, key, amount=1):
        calls[0] += counting[0]
        return admit(self, key, amount)

    probe = soak._calibration_us

    def uncounted_probe():
        counting[0] = False
        try:
            return probe()
        finally:
            counting[0] = True

    monkeypatch.setattr(TenantSpill, "admit", counted)
    monkeypatch.setattr(soak, "_calibration_us", uncounted_probe)
    requests = 20_000
    point = soak.run_scale_point(
        tenants=100_000, requests=requests, tenant_budget=256, top_k=16,
        max_resident=256, zipf_s=1.1, seed=7,
    )
    assert point["top_recovered"]
    assert calls[0] / requests <= 1.0
