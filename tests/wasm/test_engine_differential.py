"""Differential pinning: the compiled engine vs. the predecode reference.

The Wasm->Python compilation engine (:mod:`repro.wasm.compile_engine`) must
be an *observationally identical* replacement for the pre-decoded reference
engine (:mod:`repro.wasm.predecode`): same return values, same traps, and
byte-identical :class:`~repro.wasm.interpreter.ExecutionStats` — the stats
are AccTEE's accounting ground truth, so any divergence is a billing bug,
not just a perf bug.  The predecode closures and the translator's emitted
code are two independently written semantics.  This suite runs every
workload entry point in :mod:`repro.workloads` under both engines (raw and
at every instrumentation level) and compares the full stats record.

Cycle totals are compared exactly: all per-instruction cycle weights are
dyadic rationals (x.0 / x.5), so floating-point accumulation is exact and
independent of summation order.  The cache-hierarchy model introduces one
non-dyadic constant (the store-miss write-allocate term), so the hierarchy
run asserts exact equality of everything except cycles, which must agree to
1 ulp-scale relative tolerance, plus exact per-level hit/miss counts.
"""

import math

import pytest

from repro.instrument import instrument_module
from repro.wasm.costmodel import CostModel, MemoryHierarchy
from repro.wasm.engines import ENGINE_NAMES
from repro.wasm.interpreter import ExecutionStats, Instance
from repro.wasm.runtime import HostEnvironment, IOChannel
from repro.workloads import (
    DARKNET,
    ECHO,
    MSIEVE,
    PC_ALGORITHM,
    POLYBENCH_KERNELS,
    RESIZE,
    SUBSET_SUM,
)
from repro.workloads.imaging import synthetic_image

ALL_WORKLOADS = {
    **POLYBENCH_KERNELS,
    MSIEVE.name: MSIEVE,
    PC_ALGORITHM.name: PC_ALGORITHM,
    SUBSET_SUM.name: SUBSET_SUM,
    DARKNET.name: DARKNET,
    ECHO.name: ECHO,
    RESIZE.name: RESIZE,
}

#: The semantics reference every other engine is pinned against.
REFERENCE = "predecode"

#: Engines checked against :data:`REFERENCE`.
CHECKED = [engine for engine in ENGINE_NAMES if engine != REFERENCE]

#: Representative subset for the (3 levels x engines) instrumented sweep
#: and the cost-model sweep — one linalg kernel, one stencil, one solver,
#: one branchy domain workload and one I/O workload.
REPRESENTATIVE = ["gemm", "jacobi-1d", "trisolv", "subset-sum", "echo"]

LEVELS = ["naive", "flow-based", "loop-based"]


def _stats_record(stats: ExecutionStats) -> dict:
    """Every observable field of the stats, for exact comparison."""
    return {
        "visits": stats.visits,
        "executed": stats.executed,
        "cycles": stats.cycles,
        "loads": stats.loads,
        "stores": stats.stores,
        "bytes_loaded": stats.bytes_loaded,
        "bytes_stored": stats.bytes_stored,
        "calls": stats.calls,
        "host_calls": stats.host_calls,
        "grow_history": stats.grow_history,
    }


def _run(spec, engine: str, level: str | None = None, cost_model=None):
    module = spec.compile().clone()
    if level is not None:
        module = instrument_module(module, level).module
    if spec.uses_io:
        data = synthetic_image(64) if spec.name == "resize" else b"differential body"
        env = HostEnvironment(IOChannel(input_data=data))
        instance = env.instantiate(module, engine=engine, cost_model=cost_model)
    else:
        instance = Instance(module, engine=engine, cost_model=cost_model)
    for name, args in spec.setup:
        instance.invoke(name, *args)
    value = instance.invoke(spec.run[0], *spec.run[1])
    return value, instance


@pytest.mark.parametrize("engine", CHECKED)
@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_raw_stats_identical(name, engine):
    spec = ALL_WORKLOADS[name]
    value_ref, inst_ref = _run(spec, REFERENCE)
    value_eng, inst_eng = _run(spec, engine)
    assert value_eng == value_ref
    assert _stats_record(inst_eng.stats) == _stats_record(inst_ref.stats)


@pytest.mark.parametrize("engine", CHECKED)
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", REPRESENTATIVE)
def test_instrumented_stats_identical(name, level, engine):
    """All engines agree on every instrumentation level's injected counters
    *and* on the visit counts of the instrumented module itself."""
    spec = ALL_WORKLOADS[name]
    value_ref, inst_ref = _run(spec, REFERENCE, level=level)
    value_eng, inst_eng = _run(spec, engine, level=level)
    assert value_eng == value_ref
    assert _stats_record(inst_eng.stats) == _stats_record(inst_ref.stats)
    # the injected counter (an exported global) must also agree
    counters_ref = [g.value for g in inst_ref.globals]
    counters_eng = [g.value for g in inst_eng.globals]
    assert counters_eng == counters_ref


@pytest.mark.parametrize("engine", CHECKED)
@pytest.mark.parametrize("name", REPRESENTATIVE)
def test_cycle_accounting_identical(name, engine):
    """With the (dyadic) cycle table charged, cycles are byte-identical."""
    spec = ALL_WORKLOADS[name]
    _, inst_ref = _run(spec, REFERENCE, cost_model=CostModel())
    _, inst_eng = _run(spec, engine, cost_model=CostModel())
    assert _stats_record(inst_eng.stats) == _stats_record(inst_ref.stats)
    assert inst_eng.stats.cycles > 0


@pytest.mark.parametrize("engine", CHECKED)
def test_cache_hierarchy_accounting_agrees(engine):
    """With the full memory hierarchy, per-level hit/miss counts are exact
    and cycle totals agree to float-accumulation tolerance."""
    spec = ALL_WORKLOADS["gemm"]
    _, inst_ref = _run(spec, REFERENCE, cost_model=CostModel(hierarchy=MemoryHierarchy()))
    _, inst_eng = _run(spec, engine, cost_model=CostModel(hierarchy=MemoryHierarchy()))
    ref_record = _stats_record(inst_ref.stats)
    eng_record = _stats_record(inst_eng.stats)
    ref_cycles = ref_record.pop("cycles")
    eng_cycles = eng_record.pop("cycles")
    assert eng_record == ref_record
    assert math.isclose(eng_cycles, ref_cycles, rel_tol=1e-12)
    assert (
        inst_eng.cost_model.hierarchy.stats == inst_ref.cost_model.hierarchy.stats
    )


def test_mid_segment_trap_stats_identical():
    """A trap inside a batched segment rolls back the uncharged suffix."""
    from repro.wasm.interpreter import Trap
    from repro.wasm.wat_parser import parse_wat

    wat = """
    (module (func (export "boom") (param i32) (result i32)
      (local i32)
      (local.set 1 (i32.const 40))
      (local.set 1 (i32.add (local.get 1) (i32.const 2)))
      (local.set 1 (i32.div_u (local.get 1) (local.get 0)))
      (local.set 1 (i32.mul (local.get 1) (i32.const 7)))
      (local.get 1)))
    """
    records = {}
    for engine in ENGINE_NAMES:
        inst = Instance(parse_wat(wat), engine=engine)
        with pytest.raises(Trap, match="divide by zero"):
            inst.invoke("boom", 0)
        records[engine] = _stats_record(inst.stats)
    for engine in CHECKED:
        assert records[engine] == records[REFERENCE]
    # the trapping division was charged, the instructions after it never
    assert records[REFERENCE]["visits"]["i32.div_u"] == 1
    assert "i32.mul" not in records[REFERENCE]["visits"]
