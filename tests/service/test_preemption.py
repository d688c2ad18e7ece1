"""Preemptible jobs through the gateway: checkpoint billing, exactly-once.

A gateway with ``preempt_after`` suspends every request at its slice
budget, bills a checkpoint receipt for the consumed delta under the
derived id ``<id>#cpN``, and re-dispatches the snapshot.  Nothing about
billing may change: per-tenant totals stay byte-identical to an
unpreempted gateway, the sealed epoch verifies, the drift auditor stays
clean, and checkpoint-id replay trips :class:`DuplicateReceipt`.
"""

from dataclasses import replace

import pytest

from repro.core.accounting_enclave import WorkloadCheckpoint
from repro.core.slices import apply_slice
from repro.core.policy import MemoryPolicy
from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.service import MeteringGateway
from repro.service.load import run_loadtest
from repro.service.ledger import DuplicateReceipt
from repro.service.worker import ExecutionTask, execute_task
from repro.wasm.binary import encode_module
from repro.wasm.engines import ENGINE_ENV_VAR
from repro.obs.context import ALL_SINKS, trace_id_for
from repro.obs.trace import Tracer, disable_tracing, enable_tracing
from repro.wasm.snapshot import SnapshotError, decode_snapshot
from repro.wasm.wat_parser import parse_wat
from repro.tcrypto.hashing import sha256

MINIC_SUM = (
    "int total(int n) { int s; int i; s = 0; "
    "for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
)


def drive(preempt_after, requests=4):
    gw = MeteringGateway(workers=2, pool="thread", preempt_after=preempt_after)
    try:
        gw.register_tenant("alice", minic=MINIC_SUM)
        responses = [gw.execute("alice", "total", 40) for _ in range(requests)]
        seal = gw.seal_epoch()
        verdict = gw.verify_epoch(seal)
        receipts = gw.ledger.receipts("alice")
        return responses, verdict, receipts, gw.totals("alice"), gw.resilience_stats()
    finally:
        gw.shutdown()


class TestGatewayPreemption:
    def test_preempted_totals_match_unpreempted(self):
        _r0, v0, rec0, totals0, _s0 = drive(preempt_after=None)
        r1, v1, rec1, totals1, stats1 = drive(preempt_after=150)
        assert v0.ok and v1.ok
        assert stats1["preemptions"] > 0
        assert len(rec1) > len(rec0)  # checkpoint receipts joined the chain
        assert totals1 == totals0  # ...without changing what is billed
        for response in r1:
            assert response.result.value == sum(range(40))

    def test_checkpoint_receipts_use_derived_ids(self):
        responses, _v, receipts, _t, stats = drive(preempt_after=150, requests=2)
        finals = [r for r in receipts if isinstance(r.request_id, int)]
        checkpoints = [r for r in receipts if isinstance(r.request_id, str)]
        assert len(finals) == len(responses)
        assert len(checkpoints) == stats["preemptions"]
        for receipt in checkpoints:
            base, _, n = receipt.request_id.partition("#cp")
            assert int(base) in {r.request_id for r in finals}
            assert int(n) >= 1
            assert receipt.entry.vector.label.startswith("checkpoint:")

    def test_checkpoint_id_replay_is_rejected(self):
        gw = MeteringGateway(workers=1, pool="thread", preempt_after=150)
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            gw.execute("alice", "total", 40)
            receipts = gw.ledger.receipts("alice")
            replayed = next(
                r for r in receipts if isinstance(r.request_id, str)
            )
            with pytest.raises(DuplicateReceipt):
                gw.ledger.record(
                    "alice", receipts[-1].entry, request_id=replayed.request_id
                )
        finally:
            gw.shutdown()

    def test_warm_pool_preemption_still_exact(self):
        # every slice, fresh or resumed, runs on a pooled instance reset for
        # it: reuse across hops and requests must not move the totals
        from repro.obs.instruments import WARM_POOL_HITS
        from repro.obs.metrics import disable_metrics, enable_metrics, metrics_enabled

        was_enabled = metrics_enabled()
        enable_metrics()
        try:
            hits_before = WARM_POOL_HITS.total()
            _r0, _v0, _rec0, totals0, _s0 = drive(preempt_after=None)
            _r1, v1, _rec1, totals1, stats1 = drive(preempt_after=200)
            hits = WARM_POOL_HITS.total() - hits_before
        finally:
            if not was_enabled:
                disable_metrics()
        assert v1.ok
        assert stats1["preemptions"] > 0
        assert hits > stats1["preemptions"]
        assert totals1 == totals0


    @pytest.mark.parametrize("preempt_after", (0, -5))
    def test_slice_below_one_is_rejected(self, preempt_after):
        # a slice that executes nothing would re-capture at the same point
        # forever, signing zero-usage checkpoints without progress
        with pytest.raises(ValueError, match="preempt_after"):
            MeteringGateway(workers=1, pool="thread", preempt_after=preempt_after)


def sum_task(**fields) -> ExecutionTask:
    sandbox = TwoWaySandbox.deploy(SandboxConfig())
    workload = sandbox.submit_minic(MINIC_SUM)
    module_bytes = encode_module(workload.module)
    return ExecutionTask(
        module_bytes=module_bytes,
        module_hash=sha256(module_bytes),
        counter_global_index=workload.evidence.counter_global_index,
        export="total",
        args=(40,),
        **fields,
    )


def run_preempted(task: ExecutionTask) -> list:
    """Dispatch ``task`` and its resumes until the job finishes."""
    results = [execute_task(task)]
    while results[-1].snapshot is not None:
        results.append(execute_task(replace(task, snapshot=results[-1].snapshot)))
    return results


class TestWorkerResume:
    def test_resume_slices_are_relative(self):
        # each dispatched slice runs the same budget of further instructions
        sandbox = TwoWaySandbox.deploy(SandboxConfig())
        workload = sandbox.submit_minic(MINIC_SUM)
        module_bytes = encode_module(workload.module)
        task = ExecutionTask(
            module_bytes=module_bytes,
            module_hash=sha256(module_bytes),
            counter_global_index=workload.evidence.counter_global_index,
            export="total",
            args=(40,),
            snapshot_at=100,
        )
        result = execute_task(task)
        assert result.snapshot is not None
        first = decode_snapshot(result.snapshot)
        assert first.executed == 100

        result = execute_task(ExecutionTask(
            module_bytes=module_bytes,
            module_hash=task.module_hash,
            counter_global_index=task.counter_global_index,
            export="total",
            args=(40,),
            snapshot_at=100,
            snapshot=result.snapshot,
        ))
        assert result.snapshot is not None
        assert decode_snapshot(result.snapshot).executed == 200

    @pytest.mark.parametrize("engine", ("predecode", "compile"))
    def test_module_encoded_once_per_decode(self, engine, monkeypatch):
        # the digest behind the compiled-code key, capture and the restore
        # check is computed once per decoded module, not once per dispatch
        import repro.service.worker as worker
        import repro.wasm.binary as binary
        import repro.wasm.snapshot.restore as restore

        task = sum_task(engine=engine, snapshot_at=100)
        worker.MODULE_CACHE.clear()
        encodes = []
        real = binary.encode_module

        def counting(module):
            encodes.append(module)
            return real(module)

        for target in (binary, worker, restore):
            monkeypatch.setattr(target, "encode_module", counting)
        results = run_preempted(task)
        assert len(results) > 3
        assert results[-1].raw.value == sum(range(40))
        assert len(encodes) == 1

    def test_resume_into_another_module_is_refused(self):
        snapshot = execute_task(sum_task(snapshot_at=100)).snapshot
        other = encode_module(
            parse_wat('(module (global (mut i64) (i64.const 0)) '
                      '(func (export "total") (param i32) (result i32) (i32.const 1)))')
        )
        task = replace(
            sum_task(), module_bytes=other, module_hash=sha256(other),
            counter_global_index=0, snapshot=snapshot,
        )
        with pytest.raises(SnapshotError, match="module hash mismatch"):
            execute_task(task)

    @pytest.mark.parametrize(
        "engine,armed,expected",
        [
            ("compile", False, "compile"),
            ("compile", True, "compile"),
            ("predecode", True, "predecode"),
            (None, True, "compile"),
        ],
    )
    def test_invoke_spans_name_the_engine_that_ran(
        self, engine, armed, expected, monkeypatch
    ):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        trace = (trace_id_for("gw-t", 1), 7, ALL_SINKS, 1)
        task = sum_task(engine=engine, snapshot_at=100 if armed else None, trace=trace)
        results = run_preempted(task)
        if armed:
            assert len(results) > 1
        # the spans the gateway rebuilds from each hop's slice record
        tracer = enable_tracing(Tracer())
        try:
            for result in results:
                apply_slice(result.record, trace_id=trace[0], export="total", hop=1)
        finally:
            disable_tracing()
        spans = [
            span
            for span in tracer.finished()
            if span.name in ("worker.invoke", "worker.resume_invoke")
        ]
        assert len(spans) == len(results)
        assert {span.attributes["exec_engine"] for span in spans} == {expected}
        # always on, tracing or not: every result names the engine
        assert {result.exec_engine for result in results} == {expected}

    def test_pool_exec_wall_is_labelled_by_the_engine_that_ran(self):
        from repro.obs.instruments import POOL_EXEC_WALL
        from repro.obs.metrics import disable_metrics, enable_metrics, metrics_enabled
        from repro.service.worker import WorkerPool

        was_enabled = metrics_enabled()
        enable_metrics()
        try:
            before = POOL_EXEC_WALL.count(engine="compile")
            with WorkerPool(workers=1, kind="thread") as pool:
                result = pool.submit(sum_task(engine="compile", snapshot_at=100)).result()
                assert result.exec_engine == "compile"
                resume = replace(sum_task(engine="compile"), snapshot=result.snapshot)
                pool.submit(resume).result()
            # shutdown joined the pool threads, so both done-callbacks ran
            assert POOL_EXEC_WALL.count(engine="compile") == before + 2
        finally:
            if not was_enabled:
                disable_metrics()

    def test_loadtest_serial_gate_holds_under_preemption(self):
        report = run_loadtest(
            worker_counts=(2,),
            requests=4,
            pool="thread",
            kernels=("trisolv",),
            quota_probe=False,
            preempt_after=400,
        )
        point = report["sweep"][0]
        assert report["serial_totals_match"] is True
        assert point["epoch_ok"] is True
        assert point["preemption"]["preemptions"] > 0

    def test_chaos_loadtest_exactly_once_with_checkpoints(self):
        report = run_loadtest(
            worker_counts=(2,),
            requests=6,
            pool="thread",
            kernels=("trisolv",),
            faults="crash:3",
            preempt_after=500,
            pipeline=True,
        )
        point = report["sweep"][0]
        billing = point["billing"]
        assert billing["exactly_once"] is True
        assert billing["final_receipts"] == billing["ok_responses"]
        assert billing["receipts"] > billing["final_receipts"]
        assert point["drift"]["ok"] is True


MINIC_ARRAY = """
int a[64];
int work(int n) {
  int i; int acc;
  acc = 0;
  for (i = 0; i < n; i = i + 1) {
    a[i - (i / 64) * 64] = a[i - (i / 64) * 64] + i;
    acc = acc + a[i - (i / 64) * 64];
  }
  return acc;
}
"""


@pytest.mark.parametrize("engine", ("predecode", "compile"))
def test_ae_and_gateway_sign_the_same_receipt_sequence(engine):
    # one workload preempted at the same slice size in the AE itself and
    # through gateway workers: both run run_slice, so the signed vectors
    # agree entry by entry, checkpoint labels included.  The workload has
    # linear memory, so the capture-time readings carry real peak memory;
    # flow-based counting moves the counter (and the label) every slice.
    config = SandboxConfig(
        engine=engine, level="flow-based", memory_policy=MemoryPolicy.INTEGRAL
    )
    sandbox = TwoWaySandbox.deploy(config)
    sandbox.submit_minic(MINIC_ARRAY)
    outcome = sandbox.snapshot("work", 100, snapshot_at=150)
    while isinstance(outcome, WorkloadCheckpoint):
        outcome = sandbox.resume(outcome, snapshot_at=150)
    serial = sandbox.log.entries

    with MeteringGateway(
        workers=2, pool="thread", preempt_after=150, config=config
    ) as gw:
        gw.register_tenant("alice", minic=MINIC_ARRAY)
        response = gw.execute("alice", "work", 100)
        gateway = [r.entry for r in gw.ledger.receipts("alice")]

    labels = [e.vector.label for e in serial]
    assert len(set(labels)) == len(labels) > 3
    assert serial[-1].vector.memory_integral_page_instructions > 0
    assert response.result.value == outcome.value
    # the signed bodies (vector, hashes, sequence, chain link), byte for byte
    assert [e.body() for e in gateway] == [e.body() for e in serial]


class TestSandboxResume:
    def test_trap_after_resume_is_still_billed(self):
        # a workload that traps *after* being checkpointed: the final
        # receipt records the trap, checkpoints stay on the chain
        wat = """
        (module
          (memory 1)
          (func (export "boom") (param i32) (result i32)
            (local i32)
            (loop $top
              (local.set 1 (i32.add (local.get 1) (i32.const 1)))
              (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
            (i32.load (i32.const 999999999))))
        """
        sandbox = TwoWaySandbox.deploy(SandboxConfig())
        sandbox.submit_wat(wat)
        outcome = sandbox.snapshot("boom", 200, snapshot_at=150, label="boom")
        assert isinstance(outcome, WorkloadCheckpoint)
        while isinstance(outcome, WorkloadCheckpoint):
            outcome = sandbox.resume(outcome, snapshot_at=400)
        assert outcome.trapped
        assert len(sandbox.log.entries) >= 2
        assert sandbox.verify_log()
