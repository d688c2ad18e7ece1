"""Preemptible jobs through the gateway: checkpoint billing, exactly-once.

A gateway with ``preempt_after`` suspends every request at its slice
budget, bills a checkpoint receipt for the consumed delta under the
derived id ``<id>#cpN``, and re-dispatches the snapshot.  Nothing about
billing may change: per-tenant totals stay byte-identical to an
unpreempted gateway, the sealed epoch verifies, the drift auditor stays
clean, and checkpoint-id replay trips :class:`DuplicateReceipt`.
"""

import pytest

from repro.core.accounting_enclave import WorkloadCheckpoint
from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.service import MeteringGateway
from repro.service.load import run_loadtest
from repro.service.ledger import DuplicateReceipt
from repro.service.worker import ExecutionTask, execute_task
from repro.wasm.binary import encode_module
from repro.wasm.snapshot import decode_snapshot
from repro.tcrypto.hashing import sha256

MINIC_SUM = (
    "int total(int n) { int s; int i; s = 0; "
    "for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
)


def drive(preempt_after, warm_pool=False, requests=4):
    gw = MeteringGateway(
        workers=2, pool="thread", preempt_after=preempt_after, warm_pool=warm_pool
    )
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
        _r0, _v0, _rec0, totals0, _s0 = drive(preempt_after=None)
        _r1, v1, _rec1, totals1, stats1 = drive(preempt_after=200, warm_pool=True)
        assert v1.ok
        assert stats1["preemptions"] > 0
        assert totals1 == totals0


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

    def test_loadtest_serial_gate_holds_under_preemption(self):
        report = run_loadtest(
            worker_counts=(2,),
            requests=4,
            pool="thread",
            kernels=("trisolv",),
            quota_probe=False,
            preempt_after=400,
            warm_pool=True,
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
