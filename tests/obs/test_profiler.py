"""Profiler: function/segment attribution in both engines, flamegraph output."""

import pytest

from repro.instrument import instrument_module
from repro.obs.profiler import (
    Profiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
    profile,
)
from repro.wasm.interpreter import ENGINES, ExecutionLimits, Instance, Trap, function_labels
from repro.wasm.wat_parser import parse_wat
from repro.workloads import POLYBENCH_KERNELS

FIB_WAT = """
(module
  (func $fib (export "fib") (param $n i32) (result i32)
    (if (result i32) (i32.lt_s (local.get $n) (i32.const 2))
      (then (local.get $n))
      (else
        (i32.add
          (call $fib (i32.sub (local.get $n) (i32.const 1)))
          (call $fib (i32.sub (local.get $n) (i32.const 2)))))))
  (func $helper (result i32) (i32.const 7))
  (func (export "entry") (result i32)
    (i32.add (call $fib (i32.const 6)) (call $helper))))
"""


#: the PolyBench kernels the serving benchmark's faas-small, faas-heavy and
#: faas-preempt workloads run
FAAS_KERNELS = (
    "atax", "bicg", "mvt", "trisolv", "gesummv", "jacobi-1d", "gemm", "2mm", "jacobi-2d",
)


@pytest.fixture(autouse=True)
def _profiling_off():
    disable_profiling()
    yield
    disable_profiling()


def test_switch_roundtrip():
    assert active_profiler() is None
    prof = enable_profiling()
    assert active_profiler() is prof
    disable_profiling()
    assert active_profiler() is None


def test_profile_context_manager():
    with profile() as prof:
        assert active_profiler() is prof
    assert active_profiler() is None


def test_function_labels_prefer_export_then_identifier():
    module = parse_wat(FIB_WAT)
    labels = function_labels(module)
    assert labels[0] == "fib"       # export name wins
    assert labels[1] == "helper"    # WAT $identifier
    assert labels[2] == "entry"     # export-only function


@pytest.mark.parametrize("engine", ENGINES)
def test_function_attribution_names_real_functions(engine):
    module = parse_wat(FIB_WAT)
    with profile() as prof:
        instance = Instance(module, engine=engine)
        assert instance.invoke("entry") == 8 + 7
    assert set(prof.functions) == {"fib", "helper", "entry"}
    fib = dict(zip(
        ("calls", "incl_wall", "excl_wall", "incl_visits", "excl_visits",
         "incl_cycles", "excl_cycles"),
        prof.functions["fib"],
    ))
    assert fib["calls"] == 25  # fib(6) call tree
    assert prof.functions["helper"][0] == 1
    assert prof.functions["entry"][0] == 1
    # entry's inclusive visits cover its callees; exclusive visits do not
    entry = prof.functions["entry"]
    assert entry[3] > entry[4] > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_profiling_does_not_perturb_stats(engine):
    module = parse_wat(FIB_WAT)
    plain = Instance(module, engine=engine)
    plain.invoke("entry")
    with profile():
        profiled = Instance(module, engine=engine)
        profiled.invoke("entry")
    assert profiled.stats.executed == plain.stats.executed
    assert profiled.stats.visits == plain.stats.visits
    assert profiled.stats.cycles == plain.stats.cycles


@pytest.mark.parametrize("engine", ENGINES)
def test_segment_attribution_covers_basic_blocks(engine):
    module = parse_wat(FIB_WAT)
    with profile() as prof:
        Instance(module, engine=engine).invoke("fib", 6)
    segs = prof.top_segments(100)
    assert segs, f"{engine} must report basic-block segments"
    assert all(row["function"] == "fib" for row in segs)
    # a segment is a basic block: some segment covers >1 instruction per entry
    assert any(row["instructions"] > row["entries"] for row in segs)


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_agree_on_instruction_attribution(engine):
    """Per-function instruction totals match the engine-neutral stats."""
    module = parse_wat(FIB_WAT)
    with profile() as prof:
        instance = Instance(module, engine=engine)
        instance.invoke("entry")
    total_excl_visits = sum(stat[4] for stat in prof.functions.values())
    assert total_excl_visits == instance.stats.executed


def test_collapsed_stacks_format():
    module = parse_wat(FIB_WAT)
    with profile() as prof:
        Instance(module).invoke("entry")
    text = prof.collapsed_stacks()
    lines = text.strip().splitlines()
    assert lines
    for line in lines:
        path, count = line.rsplit(" ", 1)
        assert int(count) >= 1
        assert all(frame for frame in path.split(";"))
    # recursion produces deepening fib chains under entry
    assert any(line.startswith("entry;fib;fib ") for line in lines)


def test_report_and_json():
    module = parse_wat(FIB_WAT)
    with profile() as prof:
        Instance(module).invoke("entry")
    report = prof.report(5)
    assert "hot functions" in report
    assert "fib" in report
    assert "hot basic-block segments" in report
    doc = prof.to_json()
    assert {row["function"] for row in doc["functions"]} == {"fib", "helper", "entry"}
    assert doc["segments"]


def test_top_functions_sorted_by_exclusive_wall():
    prof = Profiler()
    prof.functions["slow"] = [1, 100, 90, 10, 10, 0.0, 0.0]
    prof.functions["fast"] = [1, 50, 10, 5, 5, 0.0, 0.0]
    rows = prof.top_functions(2)
    assert [r["function"] for r in rows] == ["slow", "fast"]


def _segments(module, engine: str, calls) -> dict:
    with profile() as prof:
        instance = Instance(module.clone(), engine=engine)
        for export, args in calls:
            instance.invoke(export, *args)
    return prof.segments


def test_engines_report_identical_segments_for_fib():
    """``compile`` counts block entries in its batch counters and reports
    them where it settles those; ``predecode`` reports each entry as it
    happens.  The totals must be the same table."""
    module = parse_wat(FIB_WAT)
    calls = [("entry", ()), ("fib", (9,))]
    reference = _segments(module, "predecode", calls)
    assert reference
    assert _segments(module, "compile", calls) == reference


@pytest.mark.parametrize("kernel", FAAS_KERNELS)
def test_engines_report_identical_segments_for_served_kernels(kernel):
    spec = POLYBENCH_KERNELS[kernel]
    module = instrument_module(spec.compile().clone(), "loop-based").module
    calls = list(spec.setup) + [spec.run]
    reference = _segments(module, "predecode", calls)
    assert reference
    assert _segments(module, "compile", calls) == reference


#: a loop whose block stores one word further each round until a store
#: falls past the end of memory, mid-block
RUNAWAY_WAT = """
(module (memory 1)
  (func (export "run") (param i32) (result i32)
    (local i32)
    (loop $top
      (i32.store (local.get 1) (local.get 1))
      (i32.store (i32.add (local.get 1) (local.get 0)) (i32.const 7))
      (local.set 1 (i32.add (local.get 1) (local.get 0)))
      (br $top))
    (local.get 1)))
"""


@pytest.mark.parametrize("interval", [None, 1, 7])
def test_engines_report_identical_segments_through_traps_and_slow_paths(interval):
    """Block entries reach the profiler from the trap path (a store past
    the end) and from the per-instruction slow path (progress boundaries)
    as they do from the fast path."""
    tables = {}
    for engine in ENGINES:
        limits = ExecutionLimits(
            progress_interval=interval, progress_callback=lambda stats: None
        )
        with profile() as prof:
            instance = Instance(parse_wat(RUNAWAY_WAT), engine=engine, limits=limits)
            with pytest.raises(Trap, match="out of bounds"):
                instance.invoke("run", 4096)
        tables[engine] = prof.segments
    assert tables["predecode"]
    assert tables["compile"] == tables["predecode"]
