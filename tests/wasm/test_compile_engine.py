"""Compile-engine specifics: fallback, code cache, and hard accounting edges.

The broad byte-identical contract lives in
``tests/wasm/test_engine_differential.py`` (full workloads) and
``tests/wasm/test_limits_edges.py`` (budget/progress boundaries).  This file
pins the behaviours unique to :mod:`repro.wasm.compile_engine`:

* graceful per-function fallback to the pre-decoded engine for bodies the
  translator declines (nesting beyond Python's indentation budget,
  multi-value results), with stats still byte-identical — and no such
  fallback for any module in :mod:`repro.workloads`, raw or instrumented;
* the process-wide code cache keyed on (module digest, cost signature),
  whose hits skip translation, and one generated form per function, which
  fresh calls, captures and resumes all run;
* ``memory.grow`` inside compiled loops, where deferred visit batching must
  still stamp ``grow_history`` with exact visit totals;
* budget traps landing on memory instructions mid-segment, exercising the
  rollback of the deferred load/store counters;
* slow paths only where a boundary falls: the threshold is re-armed after
  each, after calls and after a resume's seek.
"""

import pytest

from repro.instrument import instrument_module
from repro.wasm import compile_engine
from repro.wasm.compile_engine import CODE_CACHE, CompiledEngine
from repro.wasm.costmodel import CostModel
from repro.wasm.interpreter import ENGINES, ExecutionLimits, Instance, Trap
from repro.wasm.interpreter import SnapshotCaptured
from repro.wasm.runtime import HostEnvironment, IOChannel
from repro.wasm.snapshot import WarmPool, restore_instance, resume_invoke
from repro.wasm.wat_parser import parse_wat
from repro.workloads import (
    DARKNET,
    ECHO,
    MSIEVE,
    PC_ALGORITHM,
    POLYBENCH_KERNELS,
    RESIZE,
    SUBSET_SUM,
)


def _stats_record(stats) -> dict:
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


# Grows memory by one page per iteration from inside a loop, touching the
# newly grown page each time so load/store accounting rides along.
GROW_LOOP = """
(module
  (memory 1)
  (func (export "grow_n") (param i32) (result i32)
    (local i32)
    (loop $top
      (drop (memory.grow (i32.const 1)))
      (i32.store (i32.const 8) (local.get 1))
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (memory.size)))
"""

# A tight store/load loop: budget traps land on the memory instructions
# inside a batched block, forcing the deferred-counter rollback path.
MEM_LOOP = """
(module
  (memory 1)
  (func (export "churn") (param i32) (result i32)
    (local i32 i32)
    (loop $top
      (i32.store (i32.const 16) (local.get 1))
      (local.set 2 (i32.add (local.get 2) (i32.load (i32.const 16))))
      (i64.store (i32.const 32) (i64.extend_i32_u (local.get 2)))
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (local.get 2)))
"""


def _deeply_nested_wat(depth: int) -> str:
    """A function body with ``depth`` nested ifs — each conditional adds one
    level of generated-Python indentation, so past the translator's budget it
    declines the function and falls back."""
    body = "(local.set 1 (i32.add (local.get 1) (i32.const 1)))"
    for _ in range(depth):
        body = f"(if (i32.lt_u (local.get 1) (local.get 0)) (then {body}))"
    return f"""
(module
  (func (export "deep") (param i32) (result i32)
    (local i32)
    (loop $top
      {body}
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (local.get 1))
  (func (export "shallow") (result i32) (i32.const 7)))
"""


class TestGrowInCompiledLoops:
    @pytest.mark.parametrize("pages", [1, 3, 7])
    def test_grow_history_identical_across_engines(self, pages):
        records = {}
        for engine in ENGINES:
            inst = Instance(parse_wat(GROW_LOOP), engine=engine)
            assert inst.invoke("grow_n", pages) == 1 + pages
            records[engine] = _stats_record(inst.stats)
        assert records["compile"] == records["predecode"]
        assert len(records["compile"]["grow_history"]) == pages

    def test_grow_with_cost_model_identical(self):
        records = {}
        for engine in ENGINES:
            inst = Instance(
                parse_wat(GROW_LOOP), engine=engine, cost_model=CostModel()
            )
            inst.invoke("grow_n", 4)
            records[engine] = _stats_record(inst.stats)
        assert records["compile"] == records["predecode"]


class TestMidSegmentMemoryTrap:
    @pytest.mark.parametrize("budget", list(range(1, 40)))
    def test_budget_trap_on_memory_ops_identical(self, budget):
        """Sweep the trap position across the whole loop body so it lands on
        every store/load at least once; deferred counters must roll back to
        the predecode reference's exact prefix."""
        records = {}
        for engine in ENGINES:
            inst = Instance(
                parse_wat(MEM_LOOP),
                engine=engine,
                limits=ExecutionLimits(max_instructions=budget),
            )
            with pytest.raises(Trap, match="instruction budget exhausted"):
                inst.invoke("churn", 1_000_000)
            records[engine] = _stats_record(inst.stats)
        assert records["compile"] == records["predecode"]
        assert records["predecode"]["executed"] == budget + 1

    def test_progress_callback_sees_flushed_memory_stats(self):
        """At every callback the deferred load/store batches must already be
        applied — the callback's snapshot is an observation point."""
        snapshots = {}
        for engine in ENGINES:
            seen = []
            inst = Instance(
                parse_wat(MEM_LOOP),
                engine=engine,
                limits=ExecutionLimits(
                    progress_interval=5,
                    progress_callback=lambda s: seen.append(
                        (s.executed, s.loads, s.stores, s.bytes_stored)
                    ),
                ),
            )
            inst.invoke("churn", 30)
            snapshots[engine] = seen
        assert snapshots["compile"] == snapshots["predecode"]
        executed = [seen[0] for seen in snapshots["predecode"]]
        assert executed == list(range(5, 5 * len(executed) + 1, 5))


class TestFallback:
    def test_deep_nesting_falls_back_per_function(self):
        module = parse_wat(_deeply_nested_wat(120))
        inst = Instance(module, engine="compile")
        engine = inst._engine
        assert isinstance(engine, CompiledEngine)
        assert len(engine.fallback_functions) == 1
        # the shallow sibling still runs compiled
        assert len(engine.fallback_functions) < len(module.funcs)

    def test_fallback_function_stats_identical(self):
        records = {}
        for engine in ENGINES:
            inst = Instance(parse_wat(_deeply_nested_wat(120)), engine=engine)
            assert inst.invoke("deep", 5) == 5
            assert inst.invoke("shallow") == 7
            records[engine] = _stats_record(inst.stats)
        assert records["compile"] == records["predecode"]

    def test_fallback_respects_budget(self):
        inst = Instance(
            parse_wat(_deeply_nested_wat(120)),
            engine="compile",
            limits=ExecutionLimits(max_instructions=50),
        )
        with pytest.raises(Trap, match="instruction budget exhausted"):
            inst.invoke("deep", 1_000_000)
        assert inst.stats.executed == 51

    def test_shallow_nesting_compiles_everything(self):
        inst = Instance(parse_wat(_deeply_nested_wat(10)), engine="compile")
        assert inst._engine.fallback_functions == ()
        assert inst.invoke("deep", 3) == 3

    @pytest.mark.parametrize("level", [None, "naive", "flow-based", "loop-based"])
    def test_every_workload_translates_wholly(self, level):
        # compile is the serving default: a function it declined would run
        # on the predecode reference, several times slower, with no error
        specs = [*POLYBENCH_KERNELS.values(), MSIEVE, PC_ALGORITHM, SUBSET_SUM,
                 DARKNET, ECHO, RESIZE]
        for spec in specs:
            module = spec.compile().clone()
            if level is not None:
                module = instrument_module(module, level).module
            env = HostEnvironment(IOChannel())
            inst = env.instantiate(module, engine="compile")
            assert inst._engine.fallback_functions == (), (spec.name, level)


class TestCodeCache:
    def test_second_instance_hits_the_cache(self):
        CODE_CACHE.clear()
        module = parse_wat(MEM_LOOP)
        Instance(module.clone(), engine="compile")
        after_first = CODE_CACHE.stats()
        assert after_first["misses"] >= 1
        assert after_first["entries"] >= 1
        hits_before = after_first["hits"]
        Instance(module.clone(), engine="compile")
        after_second = CODE_CACHE.stats()
        assert after_second["hits"] == hits_before + 1
        assert after_second["misses"] == after_first["misses"]

    def test_cost_model_is_part_of_the_key(self):
        CODE_CACHE.clear()
        module = parse_wat(MEM_LOOP)
        Instance(module.clone(), engine="compile")
        Instance(module.clone(), engine="compile", cost_model=CostModel())
        stats = CODE_CACHE.stats()
        assert stats["misses"] == 2
        assert stats["entries"] == 2
        # same cost signature → hit, not a third entry
        Instance(module.clone(), engine="compile", cost_model=CostModel())
        stats = CODE_CACHE.stats()
        assert stats["hits"] == 1
        assert stats["entries"] == 2

    def test_clear_resets_counters_and_entries(self):
        module = parse_wat(MEM_LOOP)
        Instance(module.clone(), engine="compile")
        CODE_CACHE.clear()
        stats = CODE_CACHE.stats()
        assert stats["entries"] == 0
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0

    def test_cached_code_still_executes_correctly(self):
        CODE_CACHE.clear()
        module = parse_wat(MEM_LOOP)
        first = Instance(module.clone(), engine="compile")
        second = Instance(module.clone(), engine="compile")
        assert first.invoke("churn", 10) == second.invoke("churn", 10)
        assert _stats_record(first.stats) == _stats_record(second.stats)

    def test_capture_and_resume_translate_nothing_once_cached(self, monkeypatch):
        # fresh calls and resumes enter the same generated function, and
        # the slow paths step the reference's closures: once a module's
        # code is cached, no capture or resume translates anything
        CODE_CACHE.clear()
        module = parse_wat(MEM_LOOP)
        expected = Instance(module, engine="compile").invoke("churn", 20)
        translate = compile_engine._Translator.translate
        translated = []

        def counting(translator):
            translated.append(translator.fidx)
            return translate(translator)

        monkeypatch.setattr(compile_engine._Translator, "translate", counting)
        armed = Instance(
            module, engine="compile", limits=ExecutionLimits(snapshot_at=37)
        )
        with pytest.raises(SnapshotCaptured) as captured:
            armed.invoke("churn", 20)
        snap = captured.value.snapshot
        fresh = restore_instance(snap, module, engine="compile")
        assert resume_invoke(fresh, snap) == expected
        pool = WarmPool(module=module, engine="compile")
        handle = pool.acquire()
        assert handle.instance.invoke("churn", 20) == expected
        pool.release(handle)
        pooled = pool.acquire(snapshot=snap)
        assert pool.stats()["hits"] == 1
        assert resume_invoke(pooled.instance, snap) == expected
        assert translated == []


# A caller whose loop calls a callee long enough to cross progress
# boundaries inside it.
CALL_LOOP = """
(module
  (func $inner (param i32) (result i32)
    (local i32)
    (loop $l
      (local.set 1 (i32.add (local.get 1) (local.get 0)))
      (local.set 0 (i32.sub (local.get 0) (i32.const 1)))
      (br_if $l (local.get 0)))
    (local.get 1))
  (func (export "outer") (param i32) (result i32)
    (local i32 i32)
    (loop $top
      (local.set 2 (i32.add (local.get 2) (call $inner (i32.const 9))))
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (local.get 2)))
"""


class TestSlowPathsStayRare:
    """The threshold is re-armed after every slow path (at the next
    progress boundary), after calls and after a resume's seek: a run steps
    per instruction only the batches a boundary falls inside, plus the
    batch a resume re-enters."""

    @staticmethod
    def _count_slow_batches(monkeypatch) -> list:
        stepped = []
        run_batch = CompiledEngine._run_batch

        def counting(self, defined_index, batch, stack, locals_, first=0):
            stepped.append((defined_index, batch))
            return run_batch(self, defined_index, batch, stack, locals_, first)

        monkeypatch.setattr(CompiledEngine, "_run_batch", counting)
        return stepped

    @pytest.mark.parametrize("interval", [50, 97, 200])
    def test_one_slow_batch_per_progress_boundary(self, monkeypatch, interval):
        stepped = self._count_slow_batches(monkeypatch)
        seen = []
        inst = Instance(
            parse_wat(CALL_LOOP),
            limits=ExecutionLimits(
                progress_interval=interval,
                progress_callback=lambda stats: seen.append(stats.executed),
            ),
            engine="compile",
        )
        inst.invoke("outer", 30)
        assert len(seen) == inst.stats.executed // interval > 5
        assert len(stepped) == len(seen)

    def test_a_resume_steps_only_the_batch_it_reenters(self, monkeypatch):
        module = parse_wat(CALL_LOOP)
        armed = Instance(module, engine="compile", limits=ExecutionLimits(snapshot_at=500))
        with pytest.raises(SnapshotCaptured) as captured:
            armed.invoke("outer", 30)
        snap = captured.value.snapshot
        stepped = self._count_slow_batches(monkeypatch)
        resume_invoke(restore_instance(snap, module, engine="compile"), snap)
        # one per captured frame: the rest of the callee's batch, and the
        # caller's batch around the call it re-enters at
        assert len(snap.frames) == 2
        assert len(stepped) == 2

    def test_a_budget_trap_from_the_slow_path_has_no_slow_path_context(self):
        inst = Instance(
            parse_wat(CALL_LOOP), engine="compile",
            limits=ExecutionLimits(max_instructions=100),
        )
        with pytest.raises(Trap, match="budget") as raised:
            inst.invoke("outer", 30)
        assert raised.value.__context__ is None
