"""The metering gateway's request-lifecycle telemetry contract.

Every request transition (admit, reject, fault injection, retry, result
rejection, checkpoint, deadline, settle) leaves the same footprint in four
places: the structured event stream, the ``acctee_gateway_*`` metric
series, the request span's attributes and :meth:`resilience_stats`.  Event
JSONL consumers (the SLO replay, the drift auditor and
``repro explain``) depend on that footprint, so it is pinned here field
name by field name.

Each scenario runs one thread-pool gateway with events, metrics and
tracing on and serves its requests one at a time, so the emission order is
deterministic and can be asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.obs import disable_all, enable_metrics, get_registry
from repro.obs.context import trace_id_for
from repro.obs.events import EventLog, enable_events
from repro.obs.trace import Tracer, enable_tracing
from repro.service import FaultPlan, MeteringGateway, ResiliencePolicy
from repro.service.quota import AdmissionError, TenantQuota

MINIC_SQUARE = "int square(int x) { return x * x; }"
MINIC_LOOP = (
    "int f(int n) { int t = 0; "
    "for (int i = 0; i < n; i = i + 1) t = t + i; return t; }"
)


@dataclass
class Scenario:
    gateway_id: str
    events: list
    metrics: dict
    stats: dict
    spans: dict  # request_id -> gateway.request span attributes
    outcomes: list  # per submitted request: "ok", a failure code, or "rejected:<code>"


def _run(gw_kwargs: dict, tenants: list, requests: list) -> Scenario:
    disable_all()
    get_registry().reset()
    enable_metrics()
    log = enable_events(EventLog())
    tracer = enable_tracing(Tracer())
    outcomes = []
    try:
        with MeteringGateway(workers=2, pool="thread", **gw_kwargs) as gw:
            for tenant_id, source, quota in tenants:
                gw.register_tenant(tenant_id, minic=source, quota=quota)
            for tenant_id, export, args in requests:
                try:
                    future = gw.submit(tenant_id, export, *args)
                except AdmissionError as exc:
                    outcomes.append(f"rejected:{exc.code}")
                    continue
                try:
                    future.result(timeout=30)
                    outcomes.append("ok")
                except Exception as exc:  # noqa: BLE001 - the code is the outcome
                    outcomes.append(exc.code)
            stats = gw.resilience_stats()
            gateway_id = gw.gateway_id
        snapshot = get_registry().snapshot()
        spans = {
            s.attributes["request_id"]: dict(s.attributes)
            for s in tracer.finished()
            if s.name == "gateway.request" and "request_id" in s.attributes
        }
    finally:
        disable_all()
    metrics = {
        name: entry["values"]
        for name, entry in snapshot.items()
        if name.startswith("acctee_gateway_")
    }
    get_registry().reset()
    return Scenario(gateway_id, log.events(), metrics, stats, spans, outcomes)


SCENARIOS = {
    # every request crashes once (thread pool: InjectedCrash), then retries clean
    "crash": (
        dict(
            resilience=ResiliencePolicy(max_retries=2, backoff_base_s=0.01),
            fault_plan=FaultPlan.parse("crash:1"),
        ),
        [("alice", MINIC_SQUARE, None)],
        [("alice", "square", (3,)), ("alice", "square", (4,))],
    ),
    # the worker hangs past the wall-clock deadline
    "hang": (
        dict(
            resilience=ResiliencePolicy(deadline_s=0.15, max_retries=0),
            fault_plan=FaultPlan.parse("hang:1", hang_s=0.6),
        ),
        [("alice", MINIC_SQUARE, None)],
        [("alice", "square", (3,))],
    ),
    # a lying worker: implausible meter readings, never signed
    "corrupt": (
        dict(fault_plan=FaultPlan.parse("corrupt:1")),
        [("alice", MINIC_SQUARE, None)],
        [("alice", "square", (3,))],
    ),
    # a crash whose retry backoff would land past the deadline
    "deadline": (
        dict(
            resilience=ResiliencePolicy(
                deadline_s=0.2, max_retries=2, backoff_base_s=5.0, backoff_cap_s=5.0
            ),
            fault_plan=FaultPlan.parse("crash:1"),
        ),
        [("alice", MINIC_SQUARE, None)],
        [("alice", "square", (3,))],
    ),
    # budget-boundary preemption: checkpoint receipts per slice
    "preempt": (
        dict(preempt_after=200),
        [("alice", MINIC_LOOP, None)],
        [("alice", "f", (100,))],
    ),
    # over the instruction budget, plus a tenant that never registered
    "budget": (
        dict(),
        [("hog", MINIC_LOOP, TenantQuota(instruction_budget=50))],
        [("hog", "f", (100,)), ("hog", "f", (100,)), ("ghost", "f", (1,))],
    ),
}


@pytest.fixture(scope="module")
def runs() -> dict:
    return {name: _run(*spec) for name, spec in SCENARIOS.items()}


# -- event field names ---------------------------------------------------------

#: Exact field names per event kind (trace_id is always present on
#: request-scoped events; it is minted whenever the event log is on).
FIELDS = {
    "admit": {"gateway", "tenant", "request_id", "trace_id"},
    "reject": {"gateway", "tenant", "code"},
    "fault_injected": {"gateway", "tenant", "request_id", "fault", "trace_id"},
    "retry": {"gateway", "tenant", "request_id", "attempt", "trace_id"},
    "checkpoint": {
        "gateway", "tenant", "request_id", "checkpoint", "snapshot_bytes", "trace_id",
    },
    "settled": {
        "gateway", "tenant", "request_id", "outcome", "latency_s", "trace_id",
    },
    "result_rejected": {"gateway", "tenant", "request_id", "problems", "trace_id"},
    "receipt": {
        "gateway", "tenant", "request_id", "sequence", "weighted_instructions",
        "entry_hash", "trace_id",
    },
    "module_cache": {
        "gateway", "request_id", "trace_id", "outcome", "origin_pid", "worker_ts_s",
    },
    "fault_performed": {
        "gateway", "request_id", "trace_id", "fault", "arg", "origin_pid", "worker_ts_s",
    },
}


def test_every_event_kind_has_its_exact_field_names(runs):
    seen = set()
    for name, run in runs.items():
        for event in run.events:
            assert event.kind in FIELDS, (name, event.kind)
            assert set(event.fields) == FIELDS[event.kind], (name, event.kind)
            seen.add(event.kind)
    assert seen == set(FIELDS)


def test_request_scoped_events_carry_gateway_and_trace_identity(runs):
    for run in runs.values():
        for event in run.events:
            if "gateway" in event.fields:
                assert event.fields["gateway"] == run.gateway_id
            if "trace_id" in event.fields:
                base = int(str(event.fields["request_id"]).split("#")[0])
                assert event.fields["trace_id"] == trace_id_for(run.gateway_id, base)


# -- per-request order of kinds ------------------------------------------------

ORDER = {
    "crash": [
        "admit", "fault_injected", "retry", "module_cache", "receipt", "settled",
    ] * 2,
    "hang": ["admit", "fault_injected", "settled"],
    "corrupt": [
        "admit", "fault_injected", "fault_performed", "module_cache", "result_rejected",
        "settled",
    ],
    "deadline": ["admit", "fault_injected", "retry", "settled"],
    "preempt": ["admit"]
    + ["module_cache", "receipt", "checkpoint"] * 7
    + ["module_cache", "receipt", "settled"],
    "budget": ["admit", "module_cache", "receipt", "settled", "reject", "reject"],
}


@pytest.mark.parametrize("name", sorted(ORDER))
def test_order_of_kinds(runs, name):
    assert [e.kind for e in runs[name].events] == ORDER[name]


def _gateway_events(run, kind):
    return [e.fields for e in run.events if e.kind == kind]


def test_transition_field_values(runs):
    crash = runs["crash"]
    assert [f["fault"] for f in _gateway_events(crash, "fault_injected")] == ["crash"] * 2
    assert [f["attempt"] for f in _gateway_events(crash, "retry")] == [1, 1]
    assert [f["outcome"] for f in _gateway_events(crash, "settled")] == ["ok", "ok"]

    assert [f["outcome"] for f in _gateway_events(runs["hang"], "settled")] == [
        "deadline-exceeded"
    ]
    assert [f["fault"] for f in _gateway_events(runs["corrupt"], "fault_injected")] == [
        "corrupt"
    ]
    assert [f["outcome"] for f in _gateway_events(runs["corrupt"], "settled")] == [
        "result-rejected"
    ]
    assert [f["outcome"] for f in _gateway_events(runs["deadline"], "settled")] == [
        "deadline-exceeded"
    ]

    preempt = runs["preempt"]
    checkpoints = _gateway_events(preempt, "checkpoint")
    assert [f["checkpoint"] for f in checkpoints] == list(range(1, 8))
    assert all(f["snapshot_bytes"] > 0 for f in checkpoints)
    (rid,) = [f["request_id"] for f in _gateway_events(preempt, "admit")]
    receipt_ids = [f["request_id"] for f in _gateway_events(preempt, "receipt")]
    assert receipt_ids == [f"{rid}#cp{n}" for n in range(1, 8)] + [rid]

    budget = runs["budget"]
    rejects = _gateway_events(budget, "reject")
    assert [(f["tenant"], f["code"]) for f in rejects] == [
        ("hog", "instruction-budget-exhausted"),
        ("ghost", "unknown-tenant"),
    ]
    assert budget.outcomes == [
        "ok", "rejected:instruction-budget-exhausted", "rejected:unknown-tenant",
    ]


# -- metric series -------------------------------------------------------------


def _latency_counts(run) -> dict:
    return {
        labels: series["count"]
        for labels, series in run.metrics["acctee_gateway_request_latency_seconds"].items()
    }


A = '{tenant="alice"}'
HOG = '{tenant="hog"}'

SERIES = {
    "crash": {
        "acctee_gateway_requests": {'{outcome="ok",tenant="alice"}': 2.0},
        "acctee_gateway_retries": {A: 2.0},
        "acctee_gateway_faults_injected": {'{fault="crash",tenant="alice"}': 2.0},
        "acctee_gateway_queue_depth": {A: 0.0},
    },
    "hang": {
        "acctee_gateway_requests": {'{outcome="deadline-exceeded",tenant="alice"}': 1.0},
        "acctee_gateway_retries": {},
        "acctee_gateway_faults_injected": {'{fault="hang",tenant="alice"}': 1.0},
        "acctee_gateway_queue_depth": {A: 0.0},
    },
    "corrupt": {
        "acctee_gateway_requests": {'{outcome="result-rejected",tenant="alice"}': 1.0},
        "acctee_gateway_retries": {},
        "acctee_gateway_faults_injected": {'{fault="corrupt",tenant="alice"}': 1.0},
        "acctee_gateway_queue_depth": {A: 0.0},
    },
    "deadline": {
        "acctee_gateway_requests": {'{outcome="deadline-exceeded",tenant="alice"}': 1.0},
        "acctee_gateway_retries": {A: 1.0},
        "acctee_gateway_faults_injected": {'{fault="crash",tenant="alice"}': 1.0},
        "acctee_gateway_queue_depth": {A: 0.0},
    },
    "preempt": {
        "acctee_gateway_requests": {'{outcome="ok",tenant="alice"}': 1.0},
        "acctee_gateway_retries": {},
        "acctee_gateway_faults_injected": {},
        "acctee_gateway_queue_depth": {A: 0.0},
    },
    "budget": {
        "acctee_gateway_requests": {
            '{outcome="ok",tenant="hog"}': 1.0,
            '{outcome="rejected:instruction-budget-exhausted",tenant="hog"}': 1.0,
            '{outcome="rejected:unknown-tenant",tenant="ghost"}': 1.0,
        },
        "acctee_gateway_retries": {},
        "acctee_gateway_faults_injected": {},
        "acctee_gateway_queue_depth": {HOG: 0.0},
    },
}

#: Latency is observed only for requests that settle ``ok``.
LATENCY_COUNTS = {
    "crash": {A: 2},
    "hang": {},
    "corrupt": {},
    "deadline": {},
    "preempt": {A: 1},
    "budget": {HOG: 1},
}


@pytest.mark.parametrize("name", sorted(SERIES))
def test_gateway_metric_series(runs, name):
    run = runs[name]
    expected = SERIES[name]
    assert set(run.metrics) == set(expected) | {"acctee_gateway_request_latency_seconds"}
    for metric, values in expected.items():
        assert run.metrics[metric] == values, metric
    assert _latency_counts(run) == LATENCY_COUNTS[name]


def test_latency_exemplars_link_to_ok_request_traces(runs):
    for run in runs.values():
        ok_traces = {
            f["trace_id"] for f in _gateway_events(run, "settled") if f["outcome"] == "ok"
        }
        for series in run.metrics["acctee_gateway_request_latency_seconds"].values():
            exemplars = series.get("exemplars", {})
            assert exemplars
            assert {ex["trace_id"] for ex in exemplars.values()} <= ok_traces


# -- request span attributes -----------------------------------------------------


def test_request_span_attributes(runs):
    def attrs(run):
        """Admitted requests' span attributes, in request-id order."""
        return [
            {k: v for k, v in a.items() if k not in ("trace_id", "tenant", "export")}
            for _rid, a in sorted(run.spans.items())
        ]

    def admitted(run):
        return [f["request_id"] for f in _gateway_events(run, "admit")]

    crash = admitted(runs["crash"])
    assert attrs(runs["crash"]) == [
        {"request_id": rid, "injected_fault": "crash", "attempts": 2, "outcome": "ok"}
        for rid in crash
    ]
    (hang,) = admitted(runs["hang"])
    assert attrs(runs["hang"]) == [
        {"request_id": hang, "injected_fault": "hang", "outcome": "deadline-exceeded"},
    ]
    (corrupt,) = admitted(runs["corrupt"])
    assert attrs(runs["corrupt"]) == [
        {"request_id": corrupt, "injected_fault": "corrupt", "outcome": "result-rejected"},
    ]
    (deadline,) = admitted(runs["deadline"])
    assert attrs(runs["deadline"]) == [
        {
            "request_id": deadline, "injected_fault": "crash", "attempts": 2,
            "outcome": "deadline-exceeded",
        },
    ]
    (preempt,) = admitted(runs["preempt"])
    assert attrs(runs["preempt"]) == [
        {"request_id": preempt, "checkpoints": 7, "outcome": "ok"},
    ]
    (budget,) = admitted(runs["budget"])
    assert attrs(runs["budget"]) == [{"request_id": budget, "outcome": "ok"}]
    for run in runs.values():
        for rid, a in run.spans.items():
            assert a["trace_id"] == trace_id_for(run.gateway_id, rid)


# -- resilience_stats -------------------------------------------------------------

STATS = {
    "crash": dict(retries=2, deadline_exceeded=0, results_rejected=0, preemptions=0,
                  faults_injected={"crash": 2}),
    "hang": dict(retries=0, deadline_exceeded=1, results_rejected=0, preemptions=0,
                 faults_injected={"hang": 1}),
    "corrupt": dict(retries=0, deadline_exceeded=0, results_rejected=1, preemptions=0,
                    faults_injected={"corrupt": 1}),
    "deadline": dict(retries=1, deadline_exceeded=1, results_rejected=0, preemptions=0,
                     faults_injected={"crash": 1}),
    "preempt": dict(retries=0, deadline_exceeded=0, results_rejected=0, preemptions=7,
                    faults_injected={}),
    "budget": dict(retries=0, deadline_exceeded=0, results_rejected=0, preemptions=0,
                   faults_injected={}),
}


@pytest.mark.parametrize("name", sorted(STATS))
def test_resilience_stats(runs, name):
    assert runs[name].stats == dict(
        STATS[name], pool_rebuilds=0, backend_kind="wasm-thread"
    )
