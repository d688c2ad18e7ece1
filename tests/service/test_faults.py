"""Tests for the gateway's failure semantics and fault-injection harness.

Covers the resilience layer end to end: deterministic fault plans and
backoff, worker-result sanity validation, typed deadline / crash / corrupt
failures through a live gateway, the exactly-once billing invariant under
retries and races, pool rebuild after a real process crash, and the
fault-free differential (a gateway *with* a resilience policy stays
byte-identical to the serial baseline).
"""

import threading
from concurrent.futures import wait

import pytest

from repro.core.accounting_enclave import RawExecution
from repro.core.resource_log import ResourceUsageLog, ResourceVector
from repro.service import (
    DeadlineExceeded,
    DuplicateReceipt,
    FaultPlan,
    GatewayFailure,
    MeteringGateway,
    ResiliencePolicy,
    ResultRejected,
    validate_raw,
)
from repro.service.faults import corrupt_raw
from repro.service.load import (
    polybench_tenant_mix,
    serial_baseline_totals,
    _request_schedule,
)
from repro.service.ledger import BillingLedger
from repro.tcrypto.rsa import rsa_generate
from repro.wasm.memory import PAGE_SIZE

MINIC_SQUARE = "int square(int x) { return x * x; }"


# -- fault plans ---------------------------------------------------------------


def test_fault_plan_parse_and_determinism():
    a = FaultPlan.parse("crash:7,hang:13", seed=42)
    b = FaultPlan.parse("crash:7,hang:13", seed=42)
    assert a.describe() == b.describe()
    schedule_a = [a.fault_for(i) for i in range(200)]
    assert schedule_a == [b.fault_for(i) for i in range(200)]
    # density: every 7th request crashes, every 13th hangs (minus overlaps
    # the first-match rule resolves in favour of crash)
    assert schedule_a.count("crash") == len([i for i in range(200) if i % 7 == a.rules[0].phase])
    assert all(kind in (None, "crash", "hang") for kind in schedule_a)


def test_fault_plan_seed_shifts_phase():
    plans = [FaultPlan.parse("crash:97", seed=s) for s in range(8)]
    phases = {p.rules[0].phase for p in plans}
    assert len(phases) > 1  # the seed actually moves the residue class


def test_fault_plan_rejects_bad_specs():
    for spec in ("explode:3", "crash", "crash:0", "crash:x", ""):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


def test_fault_plan_args():
    plan = FaultPlan.parse("hang:2,slow:3", hang_s=1.5, slow_s=0.1)
    assert plan.fault_arg("hang") == 1.5
    assert plan.fault_arg("slow") == 0.1
    assert plan.fault_arg("crash") == 0.0


def test_backoff_deterministic_and_bounded():
    policy = ResiliencePolicy(backoff_base_s=0.05, backoff_cap_s=0.4, jitter_seed=7)
    series = [policy.backoff_s(request_id=11, attempt=a) for a in range(6)]
    assert series == [policy.backoff_s(request_id=11, attempt=a) for a in range(6)]
    for attempt, delay in enumerate(series):
        cap = min(0.4, 0.05 * 2**attempt)
        assert 0.5 * cap <= delay <= cap
    # different requests jitter differently (spread after a shared pool break)
    assert policy.backoff_s(11, 0) != policy.backoff_s(12, 0)


# -- worker-result validation --------------------------------------------------


def raw_reading(**overrides) -> RawExecution:
    base = dict(
        workload_hash=b"\x11" * 32,
        counter_value=1000,
        peak_memory_bytes=2 * PAGE_SIZE,
        initial_pages=1,
        grow_history=((40, 2),),
        io_bytes_in=0,
        io_bytes_out=0,
    )
    base.update(overrides)
    return RawExecution(**base)


def test_validate_raw_accepts_plausible_reading():
    assert validate_raw(raw_reading()) == []
    assert validate_raw(raw_reading(), max_instructions=1000) == []


def test_validate_raw_rejects_implausible_readings():
    cases = {
        "negative counter": raw_reading(counter_value=-5),
        "counter over limit": raw_reading(counter_value=5000),
        "negative io": raw_reading(io_bytes_in=-1),
        "peak below initial pages": raw_reading(peak_memory_bytes=PAGE_SIZE // 2),
        "grow indices backwards": raw_reading(grow_history=((50, 2), (40, 3))),
        "memory shrinks": raw_reading(grow_history=((40, 2), (50, 1))),
        "peak below final grown size": raw_reading(
            grow_history=((40, 4),), peak_memory_bytes=2 * PAGE_SIZE
        ),
    }
    for name, raw in cases.items():
        assert validate_raw(raw, max_instructions=1000), name


def test_corrupt_raw_is_always_caught():
    # whatever the honest reading, the corrupt fault must fail validation —
    # even with no instruction limit configured
    for counter in (0, 1, 123456):
        corrupted = corrupt_raw(raw_reading(counter_value=counter))
        assert validate_raw(corrupted), counter


# -- ledger exactly-once -------------------------------------------------------


def test_ledger_rejects_duplicate_request_id():
    key = rsa_generate(512, seed=301)
    ledger = BillingLedger()
    ledger.register_tenant("alice", key.public)
    log = ResourceUsageLog(key)
    vector = ResourceVector(
        weighted_instructions=100,
        peak_memory_bytes=PAGE_SIZE,
        memory_integral_page_instructions=0,
        io_bytes_in=0,
        io_bytes_out=0,
        label="req",
    )
    first = log.append(vector, b"alice" * 4, b"\x22" * 32)
    ledger.record("alice", first, request_id=5)
    second = log.append(vector, b"alice" * 4, b"\x22" * 32)
    with pytest.raises(DuplicateReceipt):
        ledger.record("alice", second, request_id=5)
    # nothing was appended by the rejected attempt, and the distinct-id
    # count the offline audit uses still matches the receipt count
    assert len(ledger.receipts("alice")) == 1
    assert ledger.billed_requests("alice") == 1
    ledger.record("alice", second, request_id=6)
    assert ledger.billed_requests() == 2


# -- typed failures through a live gateway -------------------------------------


def test_deadline_exceeded_is_typed_and_unbilled():
    gw = MeteringGateway(
        workers=2,
        pool="thread",
        resilience=ResiliencePolicy(deadline_s=0.15, max_retries=0),
        fault_plan=FaultPlan.parse("hang:1", hang_s=0.6),
    )
    with gw:
        gw.register_tenant("alice", minic=MINIC_SQUARE)
        future = gw.submit("alice", "square", 4)
        with pytest.raises(DeadlineExceeded) as exc:
            future.result(timeout=5)
        assert exc.value.code == "deadline-exceeded"
        assert gw.resilience_stats()["deadline_exceeded"] == 1
        # the slot settled even though no result ever arrived in time
        stats = gw.admission.stats("alice")
        assert stats["in_flight"] == 0
        assert stats["settled"] == stats["admitted"] == 1
        # the hung worker finishes *after* the deadline; its late result
        # must be dropped unbilled, so run a clean request and confirm the
        # epoch contains exactly that one receipt
        gw.fault_plan = None
        response = gw.execute("alice", "square", 4)
        assert response.result.value == 16
        assert len(gw.ledger.receipts("alice")) == 1
        assert gw.ledger.billed_requests("alice") == 1
        assert gw.verify_epoch(gw.seal_epoch()).ok


def test_crash_is_retried_and_billed_exactly_once():
    gw = MeteringGateway(
        workers=2,
        pool="thread",
        resilience=ResiliencePolicy(max_retries=2),
        fault_plan=FaultPlan.parse("crash:1"),  # every request crashes once
    )
    with gw:
        gw.register_tenant("alice", minic=MINIC_SQUARE)
        responses = [gw.execute("alice", "square", n) for n in range(1, 6)]
        assert [r.result.value for r in responses] == [1, 4, 9, 16, 25]
        # every request needed at least one retry, with the same request id
        assert gw.resilience_stats()["retries"] >= 5
        assert len(gw.ledger.receipts("alice")) == 5
        assert gw.ledger.billed_requests("alice") == 5
        assert gw.verify_epoch(gw.seal_epoch()).ok


def test_corrupt_result_is_rejected_before_signing():
    gw = MeteringGateway(
        workers=2,
        pool="thread",
        fault_plan=FaultPlan.parse("corrupt:1"),
    )
    with gw:
        gw.register_tenant("alice", minic=MINIC_SQUARE)
        future = gw.submit("alice", "square", 3)
        with pytest.raises(ResultRejected) as exc:
            future.result(timeout=10)
        assert exc.value.code == "result-rejected"
        assert gw.resilience_stats()["results_rejected"] == 1
        # a lying worker produces no receipt and frees its slot
        assert len(gw.ledger.receipts("alice")) == 0
        assert gw.admission.stats("alice")["in_flight"] == 0


def test_fault_free_gateway_with_policy_matches_serial_baseline():
    # the acceptance-critical differential: deadlines + retry budget armed,
    # zero faults injected — signed totals stay byte-identical to a serial
    # single-sandbox run, so resilience is invisible on the happy path
    mix = polybench_tenant_mix(("trisolv",))
    schedule = _request_schedule(mix, 4)
    policy = ResiliencePolicy(deadline_s=30.0, max_retries=3)
    with MeteringGateway(workers=2, pool="thread", resilience=policy) as gw:
        for tenant_id, module, _run in mix:
            gw.register_tenant(tenant_id, module=module.clone())
        for tenant_id, export, args in schedule:
            gw.execute(tenant_id, export, *args)
        stats = gw.resilience_stats()
        assert stats["retries"] == 0
        assert stats["deadline_exceeded"] == 0
        gateway_totals = gw.totals().to_json()
        assert gw.verify_epoch(gw.seal_epoch()).ok
    assert gateway_totals == serial_baseline_totals(mix, schedule).to_json()


# -- admission accounting under concurrent failures ----------------------------


def test_admission_settles_under_concurrent_failures():
    """Hammer admit/settle from many threads while workers crash and lie:
    every admitted request must settle exactly once, whatever its fate."""
    gw = MeteringGateway(
        workers=4,
        pool="thread",
        resilience=ResiliencePolicy(max_retries=0, backoff_base_s=0.0),
        fault_plan=FaultPlan.parse("crash:3,corrupt:4"),
    )
    outcomes: dict[str, int] = {"ok": 0, "failed": 0}
    outcomes_lock = threading.Lock()
    with gw:
        gw.register_tenant("alice", minic=MINIC_SQUARE)

        def client(n: int) -> None:
            futures = [gw.submit("alice", "square", i) for i in range(6)]
            for future in futures:
                try:
                    future.result(timeout=30)
                    key = "ok"
                except GatewayFailure:
                    key = "failed"
                with outcomes_lock:
                    outcomes[key] += 1

        threads = [threading.Thread(target=client, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stats = gw.admission.stats("alice")
        assert stats["in_flight"] == 0
        assert stats["settled"] == stats["admitted"] == 36
        assert outcomes["ok"] + outcomes["failed"] == 36
        assert outcomes["failed"] > 0  # the plan really did inject faults
        # exactly-once billing: one receipt per successful response, each
        # with a distinct request id, and the epoch audits clean
        assert len(gw.ledger.receipts("alice")) == outcomes["ok"]
        assert gw.ledger.billed_requests("alice") == outcomes["ok"]
        assert gw.verify_epoch(gw.seal_epoch()).ok


def test_process_pool_survives_real_worker_crash():
    """A crashed worker process must no longer brick the gateway: the pool
    rebuilds in place and later requests on the same gateway succeed."""
    gw = MeteringGateway(
        workers=2,
        pool="process",
        resilience=ResiliencePolicy(max_retries=4, backoff_base_s=0.01),
        fault_plan=FaultPlan.parse("crash:3"),  # ≥2 crashes in any 6 requests
    )
    with gw:
        if gw.backend.kind != "wasm-process":
            pytest.skip("process pool unavailable in this environment")
        gw.register_tenant("alice", minic=MINIC_SQUARE)
        futures = [gw.submit("alice", "square", n) for n in range(1, 7)]
        wait(futures, timeout=120)
        results = [f.result(timeout=1).result.value for f in futures]
        assert results == [1, 4, 9, 16, 25, 36]
        assert gw.backend.pool.rebuilds >= 1
        # a fresh request after the rebuild(s) works too
        assert gw.execute("alice", "square", 9).result.value == 81
        assert len(gw.ledger.receipts("alice")) == 7
        assert gw.ledger.billed_requests("alice") == 7
        assert gw.verify_epoch(gw.seal_epoch()).ok
        assert gw.stats()["resilience"]["pool_rebuilds"] == gw.backend.pool.rebuilds


# -- chaos loadtest smoke ------------------------------------------------------


def test_run_loadtest_chaos_mode():
    from repro.service.load import run_loadtest

    result = run_loadtest(
        worker_counts=(2,),
        requests=8,
        pool="thread",
        kernels=("trisolv",),
        faults="crash:3,slow:5",
        fault_seed=1,
        deadline_s=30.0,
    )
    assert result["fault_plan"]["rules"]
    point = result["sweep"][0]
    assert point["epoch_ok"] is True
    billing = point["billing"]
    assert billing["exactly_once"] is True
    assert billing["receipts"] == billing["distinct_requests_billed"]
    assert point["faults"]["faults_injected"]  # the plan fired at least once
