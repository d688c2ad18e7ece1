"""Tests for the instrumentation enclave and the accounting enclave."""

from dataclasses import replace

import pytest

from repro.core.accounting_enclave import AccountingEnclave, WorkloadRejected
from repro.core.instrumentation_enclave import InstrumentationEnclave, verify_evidence
from repro.core.policy import MemoryPolicy
from repro.instrument.weights import UNIT_WEIGHTS, cycle_weight_table
from repro.minic import compile_source
from repro.wasm.interpreter import ExecutionLimits, Trap
from repro.wasm.wat_parser import parse_wat

# a start function that loops 1,000 times before any export is called
START_LOOP = """
(module
  (global $n (mut i32) (i32.const 0))
  (func $spin
    (loop $again
      (global.set $n (i32.add (global.get $n) (i32.const 1)))
      (br_if $again (i32.lt_u (global.get $n) (i32.const 1000)))))
  (func (export "count") (result i32) (global.get $n))
  (start $spin))
"""

# a start function that writes two bytes to the host channel
START_WRITES = """
(module
  (import "env" "io_write" (func $write (param i32 i32) (result i32)))
  (memory 1)
  (data (i32.const 0) "hi")
  (func $greet (drop (call $write (i32.const 0) (i32.const 2))))
  (func (export "seven") (result i32) (i32.const 7))
  (start $greet))
"""


@pytest.fixture(scope="module")
def ie():
    return InstrumentationEnclave(level="loop-based")


@pytest.fixture(scope="module")
def workload_module():
    return compile_source("""
    extern int io_read(int ptr, int len);
    extern int io_write(int ptr, int len);
    int buf[64];
    int work(int n) {
        int got = io_read(&buf[0], n);
        int total = 0;
        for (int i = 0; i < got; i = i + 1) total = total + i;
        io_write(&buf[0], 8);
        return total;
    }
    int spin(void) { while (1) { } return 0; }
    int grower(int pages) {
        int i = 0;
        while (i < pages) { buf[0] = buf[0] + grow_one(); i = i + 1; }
        return buf[0];
    }
    int grow_one(void) { return 1; }
    """)


def make_ae(ie, **kwargs) -> AccountingEnclave:
    return AccountingEnclave(
        ie_public_key=ie.evidence_public_key,
        ie_measurement=ie.mrenclave,
        weight_table=ie.weight_table,
        **kwargs,
    )


class TestInstrumentationEnclave:
    def test_evidence_verifies(self, ie, workload_module):
        result, evidence = ie.instrument(workload_module)
        assert verify_evidence(evidence, result.module, ie.evidence_public_key, ie.mrenclave)

    def test_evidence_binds_module_bytes(self, ie, workload_module):
        result, evidence = ie.instrument(workload_module)
        other_result, _ = ie.instrument(compile_source("int f(void) { return 1; }"))
        assert not verify_evidence(
            evidence, other_result.module, ie.evidence_public_key, ie.mrenclave
        )

    def test_evidence_signature_tamper_detected(self, ie, workload_module):
        result, evidence = ie.instrument(workload_module)
        forged = replace(evidence, level="naive")
        assert not verify_evidence(forged, result.module, ie.evidence_public_key, ie.mrenclave)

    def test_measurement_covers_weight_table(self):
        unit = InstrumentationEnclave(weight_table=UNIT_WEIGHTS)
        weighted = InstrumentationEnclave(weight_table=cycle_weight_table())
        assert unit.mrenclave != weighted.mrenclave

    def test_measurement_covers_level(self):
        assert (
            InstrumentationEnclave(level="naive").mrenclave
            != InstrumentationEnclave(level="loop-based").mrenclave
        )


class TestAccountingEnclave:
    def test_accepts_and_meters_workload(self, ie, workload_module):
        ae = make_ae(ie)
        result, evidence = ie.instrument(workload_module)
        ae.load_workload(result.module, evidence)
        outcome = ae.invoke("work", 32, input_data=b"z" * 32)
        assert not outcome.trapped
        assert outcome.vector.weighted_instructions > 0
        assert outcome.vector.io_bytes_in == 32
        assert outcome.vector.io_bytes_out == 8
        assert ae.log.verify(ae.log_public_key)

    def test_rejects_unevidenced_module(self, ie, workload_module):
        ae = make_ae(ie)
        _, evidence = ie.instrument(workload_module)
        tampered = compile_source("int work(int n) { return n; }")
        with pytest.raises(WorkloadRejected, match="evidence"):
            ae.load_workload(tampered, evidence)

    def test_rejects_evidence_from_unknown_ie(self, workload_module):
        ie_a = InstrumentationEnclave(key_seed=1)
        ie_b = InstrumentationEnclave(key_seed=2)
        ae = make_ae(ie_a)
        result, evidence = ie_b.instrument(workload_module)
        with pytest.raises(WorkloadRejected):
            ae.load_workload(result.module, evidence)

    def test_rejects_wrong_weight_table(self, workload_module):
        ie_weighted = InstrumentationEnclave(weight_table=cycle_weight_table())
        ae = AccountingEnclave(
            ie_public_key=ie_weighted.evidence_public_key,
            ie_measurement=ie_weighted.mrenclave,
            weight_table=UNIT_WEIGHTS,  # disagrees with the IE's table
        )
        result, evidence = ie_weighted.instrument(workload_module)
        with pytest.raises(WorkloadRejected, match="weight table"):
            ae.load_workload(result.module, evidence)

    def test_invoke_without_workload_rejected(self, ie):
        ae = make_ae(ie)
        with pytest.raises(WorkloadRejected, match="no workload"):
            ae.invoke("work", 1)

    def test_trap_still_produces_accounting(self, ie):
        module = compile_source("""
        int boom(int d) { return 10 / d; }
        """)
        ae = make_ae(ie)
        result, evidence = ie.instrument(module)
        ae.load_workload(result.module, evidence)
        outcome = ae.invoke("boom", 0)
        assert outcome.trapped
        assert "zero" in outcome.trap_message
        # partial work is still billed: the log has the entry
        assert len(ae.log.entries) == 1

    def test_instruction_budget_enforced(self, ie, workload_module):
        ae = make_ae(ie, limits=ExecutionLimits(max_instructions=50_000))
        result, evidence = ie.instrument(workload_module)
        ae.load_workload(result.module, evidence)
        outcome = ae.invoke("spin")
        assert outcome.trapped and "budget" in outcome.trap_message

    def test_start_function_runs_under_the_invocation_budget(self, ie):
        # the pooled instance's start function is built under the slice's
        # limits: a start loop past the budget raises out of invoke
        result, evidence = ie.instrument(parse_wat(START_LOOP))
        ae = make_ae(ie, limits=ExecutionLimits(max_instructions=100))
        ae.load_workload(result.module, evidence)
        with pytest.raises(Trap, match="budget"):
            ae.invoke("count")
        roomy = make_ae(ie, limits=ExecutionLimits(max_instructions=100_000))
        roomy.load_workload(result.module, evidence)
        assert roomy.invoke("count").value == 1000

    def test_start_function_cannot_perform_host_io(self, ie):
        # the instance is bound to its I/O channel only once the start
        # function returned, so no start-function I/O goes unbilled
        result, evidence = ie.instrument(parse_wat(START_WRITES))
        ae = make_ae(ie)
        ae.load_workload(result.module, evidence)
        with pytest.raises(Trap, match="io_write requires an instantiated module"):
            ae.invoke("seven")
        assert ae.log.entries == []

    def test_log_entries_accumulate_across_invocations(self, ie, workload_module):
        ae = make_ae(ie)
        result, evidence = ie.instrument(workload_module)
        ae.load_workload(result.module, evidence)
        ae.invoke("work", 4, input_data=b"abcd")
        ae.invoke("work", 4, input_data=b"wxyz")
        assert len(ae.log.entries) == 2
        assert ae.log.verify(ae.log_public_key)
        assert ae.log.entries[0].vector.weighted_instructions == (
            ae.log.entries[1].vector.weighted_instructions
        )

    def test_counter_resets_per_invocation(self, ie):
        module = compile_source("int f(int n) { int t = 0; for (int i = 0; i < n; i = i + 1) t = t + i; return t; }")
        ae = make_ae(ie)
        result, evidence = ie.instrument(module)
        ae.load_workload(result.module, evidence)
        small = ae.invoke("f", 2).vector.weighted_instructions
        small_again = ae.invoke("f", 2).vector.weighted_instructions
        assert small == small_again  # fresh instance per request

    def test_report_data_binding_is_key_fingerprint(self, ie):
        ae = make_ae(ie)
        assert ae.report_data_binding() == ae.log_public_key.fingerprint()
