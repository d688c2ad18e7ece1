"""Registry windows and the SLO rules engine over them (live + replay)."""

import math

import pytest

from repro.obs.events import Event, EventLog, disable_events
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.slo import (
    GATING_SEVERITY,
    SEVERITIES,
    Alert,
    EventReplay,
    Rule,
    SLOEngine,
    latency_stats,
    load_rules,
    quantile,
    replay,
    resolve_signal,
    snapshot,
)


@pytest.fixture(autouse=True)
def _events_off():
    disable_events()
    yield
    disable_events()


_SEQ = 0


def ev(ts: float, kind: str, **fields) -> Event:
    global _SEQ
    _SEQ += 1
    return Event(seq=_SEQ, ts_s=ts, kind=kind, fields=fields)


def fed(*events: Event):
    """A fresh replay registry's gateway instruments, fed ``events``."""
    replayed = EventReplay()
    for event in events:
        replayed.record(event)
    return replayed.metrics


def settled(
    ts: float, outcome: str = "ok", tenant: str = "t0", latency_s: float = 0.01
) -> Event:
    """A ``settled`` event with the fields the gateway records on one."""
    return ev(ts, "settled", tenant=tenant, outcome=outcome, latency_s=latency_s,
              trace_id=None)


# -- window counting -----------------------------------------------------------


def test_counts_by_kind_subkey_and_tenant():
    m = fed(
        settled(10.0, tenant="t0"),
        settled(10.2, tenant="t1"),
        ev(10.4, "reject", tenant="t0", code="queue-full"),
    )
    assert resolve_signal(m, "count:settled", 30) == 2
    assert resolve_signal(m, "count:settled:ok", 30) == 2
    assert resolve_signal(m, "count:reject:queue-full", 30) == 1
    assert resolve_signal(m, "count:reject:rate-limited", 30) == 0
    # per-tenant counts come from the requests counter, never a window
    rows = {row["tenant"]: row["events"] for row in m.requests.top_tenants()}
    assert rows == {"t0": 2, "t1": 1}
    assert m.registry.now() == 10.4
    assert m.requests.total() == 3


def test_window_is_trailing_and_excludes_older_slices():
    m = fed(settled(10.0), settled(100.0))
    assert resolve_signal(m, "count:settled", 5) == 1  # trailing from now=100
    assert resolve_signal(m, "count:settled", 120) == 2
    # an explicit now re-anchors the window
    assert resolve_signal(m, "count:settled", 5, now=10.0) == 1


def test_events_older_than_the_ring_horizon_are_ignored():
    m = fed(settled(1000.0, "ok"), settled(100.0, "crashed"))
    # the horizon is now-600s: nothing to fold the stale one into
    assert m.requests.total() == 2
    assert resolve_signal(m, "count:settled:crashed", 120, now=100.0) == 0
    assert resolve_signal(m, "count:settled:ok", 4, now=1000.0) == 1


def test_ring_slices_are_recycled_not_accumulated():
    m = fed(*(settled(float(t)) for t in range(700)))
    # only the last 600 one-second slices can ever be counted
    assert resolve_signal(m, "count:settled", 600) == 600
    # and a longer window is refused, not silently truncated
    with pytest.raises(ValueError, match="horizon"):
        resolve_signal(m, "count:settled", 1000)


def test_windows_lose_no_update_under_concurrent_recording():
    import sys
    import threading

    from repro.obs.metrics import MetricsRegistry

    counter = MetricsRegistry(clock=lambda: 5.0).counter("c", "c", windowed=True)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def record(worker: int) -> None:
            for i in range(2_000):
                counter.inc(tenant="t%d" % (i % 7), outcome="ok" if worker % 2 else "no")

        threads = [threading.Thread(target=record, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            counter.window(30)  # readers merge while writers fold
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    cells = counter.window(30)
    assert sum(cell[0] for cell in cells.values()) == counter.total() == 16_000
    assert counter.window_keys() == 2


def test_rate_divides_by_window():
    m = fed(*(settled(float(t)) for t in range(10)))
    assert resolve_signal(m, "rate:settled:ok", 10, now=9.0) == pytest.approx(1.0)


# -- latency quantiles ---------------------------------------------------------


def test_quantile_returns_conservative_bucket_bound():
    m = fed(*(settled(float(t), latency_s=0.001) for t in range(10)))
    bound = quantile(m, 0.50, window_s=30)
    # smallest bucket bound covering the observation: never under-reports
    assert bound == LATENCY_BUCKETS[5]  # 1.024 ms, the first bound >= 1 ms
    assert bound >= 0.001
    assert quantile(m, 0.99, window_s=30) == bound


def test_quantile_overflow_and_empty():
    m = fed()
    assert quantile(m, 0.99, window_s=30) == 0.0  # no observations yet
    m = fed(
        *(settled(float(t), latency_s=0.001) for t in range(9)),
        settled(9.0, latency_s=1e9),
    )
    assert quantile(m, 0.50, window_s=30) == LATENCY_BUCKETS[5]
    assert math.isinf(quantile(m, 0.99, window_s=30))  # tail in overflow bucket


def test_quantile_validates_q():
    m = fed()
    with pytest.raises(ValueError):
        quantile(m, 0.0, window_s=30)
    with pytest.raises(ValueError):
        quantile(m, 1.5, window_s=30)


def test_latency_only_from_ok_settlements():
    m = fed(
        settled(1.0, "crashed", latency_s=50.0),
        settled(1.5, "ok", latency_s=0.001),
    )
    _counts, total, n = latency_stats(m, window_s=30)
    assert n == 1
    assert total == pytest.approx(0.001)
    assert resolve_signal(m, "latency_mean_s", 30) == pytest.approx(0.001)


def test_snapshot_shape():
    m = fed(
        ev(5.0, "admit", tenant="t0"),
        settled(5.5, latency_s=0.01),
    )
    snap = snapshot(m, window_s=30)
    assert snap["counts"]["settled"] == 1
    assert snap["counts"]["settled:ok"] == 1
    assert snap["counts"]["retry"] == 0
    # every key reads back as a count: signal
    for key, value in snap["counts"].items():
        assert resolve_signal(m, f"count:{key}", 30) == value
    assert m.requests.top_tenants()[0]["tenant"] == "t0"
    assert set(snap["latency_s"]) == {"p50", "p95", "p99", "mean"}
    assert snap["throughput_rps"] == pytest.approx(1 / 30)


# -- signals -------------------------------------------------------------------


def test_rejection_and_failure_ratios():
    events = []
    for t in range(8):
        events.append(ev(float(t), "admit", tenant="t0"))
        events.append(settled(float(t) + 0.1, "ok" if t < 6 else "crashed"))
    events.append(ev(8.0, "reject", tenant="t0", code="queue-full"))
    events.append(ev(8.1, "reject", tenant="t0", code="queue-full"))
    m = fed(*events)
    assert resolve_signal(m, "rejection_ratio", 30) == pytest.approx(2 / 10)
    assert resolve_signal(m, "failure_ratio", 30) == pytest.approx(2 / 8)
    assert resolve_signal(m, "count:reject:queue-full", 30) == 2.0
    assert resolve_signal(m, "rate:settled", 10, now=8.1) == pytest.approx(0.8)


def test_unknown_signal_rejected():
    with pytest.raises(ValueError, match="unknown SLO signal"):
        resolve_signal(fed(), "bogus_signal", 30)


# -- rules ---------------------------------------------------------------------


def test_threshold_rule_fires_and_carries_detail():
    rule = Rule.from_json({
        "name": "retries", "kind": "threshold", "signal": "count:retry",
        "op": ">=", "threshold": 3, "window_s": 60, "severity": "warn",
    })
    m = fed(*(ev(50.0 + t, "retry", tenant="t0") for t in range(3)))
    alert = rule.evaluate(m)
    assert alert is not None
    assert alert.rule == "retries" and alert.severity == "warn"
    assert alert.value == 3.0 and alert.threshold == 3.0
    assert "count:retry >= 3" in alert.detail
    # below threshold: no alert
    assert rule.evaluate(m, now=500.0) is None


def test_rule_parsing_rejects_bad_inputs():
    base = {"name": "r", "signal": "count:retry", "threshold": 1}
    with pytest.raises(ValueError, match="unknown kind"):
        Rule.from_json({**base, "kind": "gauge"})
    with pytest.raises(ValueError, match="severity"):
        Rule.from_json({**base, "severity": "apocalyptic"})
    with pytest.raises(ValueError, match="unknown op"):
        Rule.from_json({**base, "op": "!="})
    with pytest.raises(ValueError, match="'name' and 'signal'"):
        Rule.from_json({"kind": "threshold", "threshold": 1})
    with pytest.raises(ValueError, match="budget"):
        Rule.from_json({"name": "b", "kind": "burn_rate", "signal": "failure_ratio"})
    # a misspelled count kind would read 0 for ever and never fire
    with pytest.raises(ValueError, match="unknown SLO signal 'count:retyr'"):
        Rule.from_json({**base, "signal": "count:retyr"})
    # any other unknown signal is refused at load, not at the first tick
    with pytest.raises(ValueError, match="unknown SLO signal"):
        Rule.from_json({**base, "signal": "latency_p42_s"})
    for signal in ("count:retry:x", "rate:settled:", "count", "count:"):
        with pytest.raises(ValueError, match="unknown SLO signal"):
            Rule.from_json({**base, "signal": signal})
    # a window the registry does not hold is refused, not truncated
    with pytest.raises(ValueError, match="longer than the 600s"):
        Rule.from_json({**base, "window_s": 601})
    with pytest.raises(ValueError, match="longer than the 600s"):
        Rule.from_json({"name": "b", "kind": "burn_rate", "signal": "failure_ratio",
                        "budget": 0.1, "slow_window_s": 900})


BURN_RULE = Rule.from_json({
    "name": "burn", "kind": "burn_rate", "signal": "failure_ratio",
    "budget": 0.1, "fast_window_s": 10, "slow_window_s": 60,
    "fast_burn": 2.0, "slow_burn": 1.5, "severity": "page",
})


def test_burn_rate_fires_when_both_windows_burn():
    # sustained 50% failures: burns budget in both windows
    m = fed(*(settled(t + 0.5, "ok" if t % 2 else "crashed") for t in range(60)))
    alert = BURN_RULE.evaluate(m)
    assert alert is not None
    assert alert.severity == "page"
    assert "burn-rate" in alert.detail


def test_burn_rate_ignores_a_short_spike_the_slow_window_absorbs():
    m = fed(
        *(settled(i * 0.5, "ok") for i in range(100)),  # 50 s of clean traffic...
        # ...then a 10 s spike at 50% failures
        *(settled(50.0 + i, "crashed" if i < 5 else "ok") for i in range(10)),
    )
    # fast window burns (0.5 >= 0.2) but the slow window stays inside budget
    assert resolve_signal(m, "failure_ratio", 10) >= 0.2
    assert resolve_signal(m, "failure_ratio", 60) < 0.15
    assert BURN_RULE.evaluate(m) is None


# -- the engine: edge-triggered firing -----------------------------------------


RETRY_RULE = Rule.from_json({
    "name": "retries", "kind": "threshold", "signal": "count:retry",
    "op": ">=", "threshold": 1, "window_s": 30, "severity": "page",
})


def test_alerts_are_edge_triggered_incidents_not_ticks():
    replayed = EventReplay()
    m = replayed.metrics
    replayed.record(ev(50.0, "retry", tenant="t0"))
    engine = SLOEngine([RETRY_RULE])
    assert len(engine.evaluate(m, now=50.0)) == 1  # rising edge
    assert engine.evaluate(m, now=51.0) == []  # still breached: no new alert
    assert engine.evaluate(m, now=52.0) == []
    assert len(engine.alerts) == 1
    assert [a.rule for a in engine.firing] == ["retries"]

    # the window drains: falling edge is recorded, not alerted
    assert engine.evaluate(m, now=500.0) == []
    assert engine.firing == []
    [cleared] = engine.report()["cleared"]
    assert cleared == {"rule": "retries", "fired_at_s": 50.0, "cleared_at_s": 500.0}

    # a second breach is a second incident
    replayed.record(ev(600.0, "retry", tenant="t0"))
    assert len(engine.evaluate(m, now=600.0)) == 1
    assert len(engine.alerts) == 2


def test_firing_emits_an_alert_event_on_the_active_log():
    from repro.obs.events import enable_events

    log = enable_events(EventLog())
    m = fed(ev(10.0, "retry", tenant="t0"))
    engine = SLOEngine([RETRY_RULE])
    engine.evaluate(m)
    engine.evaluate(m)  # no second event: edge-triggered
    alert_events = [e for e in log.events() if e.kind == "alert"]
    assert len(alert_events) == 1
    assert alert_events[0].fields["rule"] == "retries"


def test_severity_ordering_and_gating():
    assert SEVERITIES.index(GATING_SEVERITY) == 2
    info = Alert(rule="r", severity="info", signal="s", value=1, threshold=1,
                 window_s=30, at_s=0)
    page = Alert(rule="r", severity="page", signal="s", value=1, threshold=1,
                 window_s=30, at_s=0)
    assert not info.gating
    assert page.gating

    engine = SLOEngine([])
    engine.alerts = [info, page]
    assert engine.worst_severity() == "page"
    assert [a.severity for a in engine.gating_alerts()] == ["page"]
    assert engine.report()["gating"] is True


# -- rule files ----------------------------------------------------------------


def test_load_rules_accepts_wrapped_and_bare_lists(tmp_path):
    import json

    rules = [{"name": "a", "signal": "count:retry", "threshold": 1}]
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"rules": rules, "_doc": "ignored"}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(rules))
    assert [r.name for r in load_rules(str(wrapped))] == ["a"]
    assert [r.name for r in load_rules(str(bare))] == ["a"]


def test_load_rules_rejects_duplicate_names(tmp_path):
    import json

    rules = [
        {"name": "a", "signal": "count:retry", "threshold": 1},
        {"name": "a", "signal": "count:settled", "threshold": 2},
    ]
    path = tmp_path / "dupes.json"
    path.write_text(json.dumps(rules))
    with pytest.raises(ValueError, match="duplicate"):
        load_rules(str(path))


def test_shipped_example_rules_parse():
    import pathlib

    path = pathlib.Path(__file__).parents[2] / "examples" / "slo_rules.json"
    rules = load_rules(str(path))
    assert len(rules) >= 5
    kinds = {r.kind for r in rules}
    assert kinds == {"threshold", "burn_rate"}
    severities = {r.severity for r in rules}
    assert "page" in severities and "info" in severities


# -- offline replay ------------------------------------------------------------


def _retry_stream() -> list[Event]:
    events = []
    for t in range(20):
        events.append(ev(float(t), "admit", tenant="t0"))
        events.append(settled(t + 0.4))
    events.append(ev(12.0, "retry", tenant="t0", attempt=1))
    return sorted(events, key=lambda e: e.ts_s)  # replay expects time order


def test_replay_is_deterministic():
    events = _retry_stream()
    first, _ = replay(events, [RETRY_RULE])
    second, _ = replay(events, [RETRY_RULE])
    assert first.report() == second.report()
    [alert] = first.alerts
    assert alert.rule == "retries"


def test_replay_matches_a_jsonl_roundtrip(tmp_path):
    """The offline `repro alerts` path must agree with in-memory evaluation."""

    class _Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = _Clock()
    log = EventLog(clock=clock)
    for event in _retry_stream():
        clock.now = event.ts_s
        log.emit(event.kind, **event.fields)
    path = tmp_path / "events.jsonl"
    log.write_jsonl(str(path))

    from repro.obs.events import read_jsonl

    _meta, from_file = read_jsonl(str(path))
    live, _ = replay(log.events(), [RETRY_RULE])
    offline, _ = replay(from_file, [RETRY_RULE])
    assert offline.report() == live.report()


def test_replay_evaluates_on_event_time_at_the_requested_cadence():
    events = _retry_stream()
    engine, m = replay(events, [RETRY_RULE], eval_every_s=1.0)
    [alert] = engine.alerts
    # fired at an evaluation tick shortly after the retry's event time,
    # regardless of wall-clock replay speed
    assert 12.0 <= alert.at_s <= 14.0
    assert m.registry.now() == events[-1].ts_s
