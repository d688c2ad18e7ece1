"""End-to-end tests for the multi-tenant metering gateway.

The thread pool keeps the suite fast; one test exercises the process pool
for real.  The acceptance-critical property — gateway totals byte-identical
to a serial single-sandbox run of the same requests — is checked on the
mixed PolyBench tenant set.
"""

import pytest

from repro.core.policy import MemoryPolicy
from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.service import (
    InstructionBudgetExhausted,
    MeteringGateway,
    QueueFull,
    TenantQuota,
    UnknownTenant,
)
from repro.service.backends import SimulatedFaaSBackend
from repro.service.faults import FaultPlan, FaultRule
from repro.sgx.attestation import AttestationError, QuotingEnclave
from repro.service.load import (
    polybench_tenant_mix,
    run_loadtest,
    serial_baseline_totals,
    _request_schedule,
)

MINIC_SQUARE = "int square(int x) { return x * x; }"
MINIC_SUM = "int total(int n) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"


@pytest.fixture
def gateway():
    gw = MeteringGateway(workers=2, pool="thread")
    yield gw
    gw.shutdown()


def test_single_tenant_roundtrip(gateway):
    gateway.register_tenant("alice", minic=MINIC_SQUARE)
    response = gateway.execute("alice", "square", 12)
    assert response.result.value == 144
    assert response.result.vector.weighted_instructions > 0
    assert response.receipt.tenant_id == "alice"
    assert response.latency_s > 0


def test_receipts_signed_by_tenant_ae(gateway):
    gateway.register_tenant("alice", minic=MINIC_SQUARE)
    gateway.register_tenant("bob", minic=MINIC_SUM)
    gateway.execute("alice", "square", 3)
    gateway.execute("bob", "total", 10)
    # each tenant's chain verifies under their own AE key, not the other's
    for tenant, other in (("alice", "bob"), ("bob", "alice")):
        ae = gateway._tenants[tenant].ae
        assert ae.log.verify(ae.log_public_key)
        assert not ae.log.verify(gateway._tenants[other].ae.log_public_key)


def test_tenant_isolation_of_logs(gateway):
    gateway.register_tenant("alice", minic=MINIC_SQUARE)
    gateway.register_tenant("bob", minic=MINIC_SUM)
    gateway.execute("alice", "square", 5)
    gateway.execute("alice", "square", 6)
    gateway.execute("bob", "total", 4)
    assert len(gateway.ledger.receipts("alice")) == 2
    assert len(gateway.ledger.receipts("bob")) == 1


@pytest.mark.parametrize("distrust", ["revoke", "mark_tcb_outdated", "unprovisioned"])
def test_tenant_whose_ae_fails_attestation_is_refused(distrust):
    gw = MeteringGateway(workers=1, pool="thread")
    try:
        if distrust == "unprovisioned":
            gw.qe = QuotingEnclave(seed=0xBAD)
            gw.platform.launch(gw.qe)
        else:
            getattr(gw.attestation_service, distrust)(gw.qe)
        with pytest.raises(AttestationError):
            gw.register_tenant("alice", minic=MINIC_SQUARE)
        assert gw.ledger.tenants() == []
        with pytest.raises(UnknownTenant):
            gw.execute("alice", "square", 3)
    finally:
        gw.shutdown()


def test_refused_registrations_leave_no_enclave_behind():
    gw = MeteringGateway(workers=1, pool="thread")
    try:
        gw.attestation_service.revoke(gw.qe)
        for tenant in ("alice", "bob", "carol"):
            with pytest.raises(AttestationError):
                gw.register_tenant(tenant, minic=MINIC_SQUARE)
        assert gw.platform.enclaves == [gw.ie, gw.qe]
    finally:
        gw.shutdown()


def test_unknown_tenant(gateway):
    with pytest.raises(UnknownTenant):
        gateway.submit("nobody", "f")


def test_duplicate_registration_rejected(gateway):
    gateway.register_tenant("alice", minic=MINIC_SQUARE)
    with pytest.raises(ValueError):
        gateway.register_tenant("alice", minic=MINIC_SQUARE)


def test_instruction_budget_rejection_is_typed(gateway):
    gateway.register_tenant(
        "cheap", minic=MINIC_SUM, quota=TenantQuota(instruction_budget=10)
    )
    gateway.execute("cheap", "total", 100)  # first request spends the budget
    with pytest.raises(InstructionBudgetExhausted) as exc:
        gateway.execute("cheap", "total", 100)
    assert exc.value.code == "instruction-budget-exhausted"
    # sealing the epoch resets the budget
    gateway.seal_epoch()
    gateway.execute("cheap", "total", 100)


def test_queue_depth_rejection():
    # every dispatched request hangs in its worker before executing, so the
    # first is still in flight when the second is submitted, however fast
    # the engine runs the workload
    plan = FaultPlan((FaultRule("hang", every=1, phase=0),), hang_s=1.0)
    with MeteringGateway(workers=2, pool="thread", fault_plan=plan) as gateway:
        gateway.register_tenant(
            "queued", minic=MINIC_SUM, quota=TenantQuota(max_queue_depth=1)
        )
        held = gateway.submit("queued", "total", 50)
        try:
            with pytest.raises(QueueFull):
                gateway.submit("queued", "total", 50)
        finally:
            assert held.result().result.value == sum(range(50))


def test_cache_shared_across_tenants(gateway):
    # two tenants submitting the same module: second registration hits
    gateway.register_tenant("a1", minic=MINIC_SQUARE)
    gateway.register_tenant("a2", minic=MINIC_SQUARE)
    stats = gateway.cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1


def test_epoch_seal_and_offline_verify(gateway):
    gateway.register_tenant("alice", minic=MINIC_SQUARE)
    gateway.register_tenant("bob", minic=MINIC_SUM)
    for i in range(3):
        gateway.execute("alice", "square", i)
        gateway.execute("bob", "total", i)
    seal = gateway.seal_epoch()
    verdict = gateway.verify_epoch(seal)
    assert verdict.ok, verdict.errors
    assert verdict.receipts_checked == 6
    # and a second epoch chains on
    gateway.execute("alice", "square", 9)
    second = gateway.seal_epoch()
    assert second.previous_seal_hash == seal.seal_hash()
    assert gateway.verify_epoch(second).ok


def test_trapping_workload_still_metered(gateway):
    wat = """
    (module
      (func (export "boom") (result i32)
        (i32.div_u (i32.const 1) (i32.const 0))))
    """
    gateway.register_tenant("trapper", wat=wat)
    response = gateway.execute("trapper", "boom")
    assert response.result.trapped
    assert "divide by zero" in response.result.trap_message
    # the trap still produced a signed receipt on the tenant's chain
    assert len(gateway.ledger.receipts("trapper")) == 1
    assert gateway.verify_epoch(gateway.seal_epoch()).ok


def test_parallel_totals_match_serial_sandbox_thread_pool():
    mix = polybench_tenant_mix(("atax", "trisolv", "gesummv"))
    schedule = _request_schedule(mix, 9)
    with MeteringGateway(workers=4, pool="thread") as gw:
        for tenant_id, module, _run in mix:
            gw.register_tenant(tenant_id, module=module.clone())
        responses = [
            gw.submit(tenant_id, export, *args).result()
            for tenant_id, export, args in schedule
        ]
        assert len(responses) == 9
        gateway_totals = gw.totals().to_json()
        assert gw.verify_epoch(gw.seal_epoch()).ok
    serial_totals = serial_baseline_totals(mix, schedule).to_json()
    assert gateway_totals == serial_totals


def test_parallel_totals_match_serial_sandbox_process_pool():
    mix = polybench_tenant_mix(("trisolv",))
    schedule = _request_schedule(mix, 4)
    with MeteringGateway(workers=2, pool="process") as gw:
        if gw.backend.kind != "wasm-process":
            pytest.skip("process pool unavailable in this environment")
        for tenant_id, module, _run in mix:
            gw.register_tenant(tenant_id, module=module.clone())
        responses = [
            gw.submit(tenant_id, export, *args).result()
            for tenant_id, export, args in schedule
        ]
        assert all(not r.result.trapped for r in responses)
        gateway_totals = gw.totals().to_json()
        assert gw.verify_epoch(gw.seal_epoch()).ok
    assert gateway_totals == serial_baseline_totals(mix, schedule).to_json()


def test_gateway_totals_engine_invariant():
    """Signed aggregates are engine-invariant: a gateway on the compile or
    pre-decoded engine settles to byte-identical ResourceVector totals, each
    also matching its own serial single-sandbox baseline."""
    mix = polybench_tenant_mix(("atax", "trisolv"))
    schedule = _request_schedule(mix, 6)
    totals = {}
    for engine in ("predecode", "compile"):
        config = SandboxConfig(engine=engine)
        with MeteringGateway(workers=2, pool="thread", config=config) as gw:
            for tenant_id, module, _run in mix:
                gw.register_tenant(tenant_id, module=module.clone())
            for tenant_id, export, args in schedule:
                gw.submit(tenant_id, export, *args).result()
            totals[engine] = gw.totals().to_json()
            assert gw.verify_epoch(gw.seal_epoch()).ok
        serial = serial_baseline_totals(mix, schedule, engine=engine)
        assert totals[engine] == serial.to_json()
    assert totals["compile"] == totals["predecode"]


def test_integral_memory_policy_matches_serial():
    mix = polybench_tenant_mix(("mvt",))
    schedule = _request_schedule(mix, 3)
    config = SandboxConfig(memory_policy=MemoryPolicy.INTEGRAL)
    with MeteringGateway(workers=2, pool="thread", config=config) as gw:
        for tenant_id, module, _run in mix:
            gw.register_tenant(tenant_id, module=module.clone())
        for tenant_id, export, args in schedule:
            gw.execute(tenant_id, export, *args)
        gateway_totals = gw.totals().to_json()

    sandbox = TwoWaySandbox.deploy(SandboxConfig(memory_policy=MemoryPolicy.INTEGRAL))
    modules = {tenant_id: module for tenant_id, module, _run in mix}
    for tenant_id, export, args in schedule:
        sandbox.submit_module(modules[tenant_id].clone()).invoke(export, *args)
    assert gateway_totals == sandbox.totals().to_json()


def test_simulated_backend_serves_and_verifies():
    backend = SimulatedFaaSBackend(workers=2, time_scale=0.0)
    with MeteringGateway(backend=backend) as gw:
        gw.register_tenant("alice", minic=MINIC_SQUARE)
        first = gw.execute("alice", "square", 7)
        second = gw.execute("alice", "square", 7)
        # paced replay: identical calibrated meter readings, real receipts
        assert first.result.vector.weighted_instructions == (
            second.result.vector.weighted_instructions
        )
        assert gw.verify_epoch(gw.seal_epoch()).ok


def test_run_loadtest_structure():
    result = run_loadtest(
        worker_counts=(1, 2),
        requests=4,
        pool="thread",
        kernels=("trisolv",),
        verify_serial=True,
        quota_probe=True,
    )
    assert result["serial_totals_match"] is True
    for point in result["sweep"]:
        assert point["epoch_ok"] is True
        assert point["quota_rejection"]["code"] == "instruction-budget-exhausted"
        assert set(point["latency_s"]) == {"p50", "p95", "p99", "mean"}
        assert point["throughput_rps"] > 0


def test_gateway_stats(gateway):
    gateway.register_tenant("alice", minic=MINIC_SQUARE)
    gateway.execute("alice", "square", 2)
    stats = gateway.stats()
    assert stats["tenants"] == 1
    assert stats["requests"] == 1
    assert stats["admission"]["alice"]["admitted"] == 1
