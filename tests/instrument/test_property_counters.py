"""Property-based verification of instrumentation exactness.

Hypothesis generates random MiniC programs (expressions, branches, loops
over parameters), compiles them, and checks the core AccTEE invariant: for
every instrumentation level, the injected counter after execution equals the
interpreter's ground-truth visit count of the uninstrumented module — and
the computed result is unchanged.  The same invariant is checked on both
engines, whose stats must also agree byte for byte.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.instrument import instrument_module
from repro.instrument.weights import UNIT_WEIGHTS, cycle_weight_table
from repro.minic import compile_source
from repro.wasm.costmodel import CostModel
from repro.wasm.engines import ENGINE_NAMES
from repro.wasm.interpreter import ExecutionLimits, Instance, Trap
from repro.wasm.validate import validate
from tests.minic_programs import programs

# ---------------------------------------------------------------------------
# The invariant
# ---------------------------------------------------------------------------


def _run_with_budget(module, *args, **instance_kwargs):
    instance = Instance(
        module, limits=ExecutionLimits(max_instructions=300_000), **instance_kwargs
    )
    value = instance.invoke("f", *args)
    return instance, value


@settings(max_examples=60, deadline=None)
@given(programs(), st.integers(-10, 10), st.integers(-10, 10))
def test_counter_equals_ground_truth_on_random_programs(source, a, b):
    module = compile_source(source)
    base, expected = _run_with_budget(module.clone(), a, b)
    truth = base.stats.total_visits
    for level in ("naive", "flow-based", "loop-based"):
        result = instrument_module(module, level, UNIT_WEIGHTS)
        validate(result.module)
        instance, value = _run_with_budget(result.module, a, b)
        counter = instance.global_value(result.counter_export)
        assert value == expected, f"{level} changed program behaviour"
        assert counter == truth, (
            f"{level}: counter={counter} truth={truth}\nprogram:\n{source}"
        )


def _stats_record(stats) -> tuple:
    return (
        sorted(stats.visits.items()), stats.executed, stats.cycles, stats.loads,
        stats.stores, stats.bytes_loaded, stats.bytes_stored, stats.calls,
        stats.host_calls, stats.grow_history,
    )


#: arguments near zero, and at the i32 boundaries where arithmetic wraps
ARGUMENTS = st.one_of(
    st.integers(-10, 10),
    st.sampled_from([2**31 - 1, -(2**31), 2**31 - 2, -(2**31) + 1, 2**16, -(2**16)]),
)


@settings(max_examples=40, deadline=None)
@given(programs(), ARGUMENTS, ARGUMENTS)
def test_every_engine_counts_exactly_on_random_programs(source, a, b):
    """Per engine and level: counter == that engine's ground-truth visits;
    with a cost model, every engine's stats are byte-identical."""
    module = compile_source(source)
    levels = ("naive", "flow-based", "loop-based")
    results = [instrument_module(module, level, UNIT_WEIGHTS) for level in levels]
    records = {}
    for engine in ENGINE_NAMES:
        base, expected = _run_with_budget(
            module.clone(), a, b, engine=engine, cost_model=CostModel()
        )
        record = [(expected, _stats_record(base.stats))]
        for level, result in zip(levels, results):
            instance, value = _run_with_budget(
                result.module.clone(), a, b, engine=engine, cost_model=CostModel()
            )
            counter = instance.global_value(result.counter_export)
            assert value == expected, f"{engine}/{level} changed program behaviour"
            assert counter == base.stats.total_visits, (
                f"{engine}/{level}: counter={counter} "
                f"truth={base.stats.total_visits}\nprogram:\n{source}"
            )
            record.append((value, counter, _stats_record(instance.stats)))
        records[engine] = repr(record)
    assert len(set(records.values())) == 1, f"engines disagree on:\n{source}"


@settings(max_examples=25, deadline=None)
@given(programs(), st.integers(-5, 5))
def test_weighted_counter_matches_weighted_visits(source, a):
    weights = cycle_weight_table()
    module = compile_source(source)
    base, expected = _run_with_budget(module.clone(), a, 2)
    truth = sum(weights.weight(name) * n for name, n in base.stats.visits.items())
    result = instrument_module(module, "loop-based", weights)
    instance, value = _run_with_budget(result.module, a, 2)
    assert value == expected
    assert instance.global_value(result.counter_export) == truth


@settings(max_examples=25, deadline=None)
@given(programs())
def test_instrumented_modules_always_validate(source):
    module = compile_source(source)
    for level in ("naive", "flow-based", "loop-based"):
        validate(instrument_module(module, level, UNIT_WEIGHTS).module)


@settings(max_examples=20, deadline=None)
@given(programs(), st.integers(-5, 5))
def test_levels_agree_with_each_other(source, a):
    module = compile_source(source)
    counters = []
    for level in ("naive", "flow-based", "loop-based"):
        result = instrument_module(module, level, UNIT_WEIGHTS)
        instance, _ = _run_with_budget(result.module, a, 1)
        counters.append(instance.global_value(result.counter_export))
    assert counters[0] == counters[1] == counters[2]
