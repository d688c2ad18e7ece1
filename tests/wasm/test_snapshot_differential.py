"""Differential gate: snapshot -> restore -> run == uninterrupted, always.

For every (capture engine, resume engine) pair — four combinations — a
run suspended mid-flight and resumed elsewhere must finish with the byte-
identical result, ``ExecutionStats``, linear memory and globals of the
same run left alone.  The accounting layer inherits the guarantee: the
componentwise sum of a preempted workload's checkpoint + final vectors
equals the uninterrupted signed vector.

Each engine captures on its own frames: ``predecode`` on its explicit
frames, ``compile`` inside compiled code.  The capture-equivalence tests
below pin ``compile``'s encoded snapshots byte-identical to the
``predecode`` reference, boundary tests pin the reference itself to the
:class:`ExecutionLimits` contract, and resumed ``compile`` frames re-enter
compiled code without predecoding a translated function.
"""

import random
from dataclasses import replace

import pytest

from repro.core.instrumentation_enclave import InstrumentationEnclave
from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.obs.trace import Tracer, disable_tracing, enable_tracing
from repro.wasm.interpreter import ENGINES, ExecutionLimits, Instance, Trap
from repro.wasm.snapshot import (
    SnapshotCaptured,
    capture_instance,
    decode_snapshot,
    encode_snapshot,
    restore_instance,
    resume_invoke,
)
from repro.wasm.wat_parser import parse_wat
from repro.workloads import POLYBENCH_KERNELS

# nested calls, loads/stores, memory.grow — every meter moves
WORK = """
(module
  (memory (export "mem") 1 4)
  (func $mix (param i32) (result i32)
    (i32.store (i32.mul (local.get 0) (i32.const 4)) (local.get 0))
    (i32.add
      (i32.load (i32.mul (local.get 0) (i32.const 4)))
      (i32.const 1)))
  (func $accum (param i32) (result i32)
    (local i32 i32)
    (loop $top
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (local.set 2 (i32.add (local.get 2) (call $mix (local.get 1))))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (local.get 2))
  (func (export "work") (param i32) (result i32)
    (drop (memory.grow (i32.const 1)))
    (call $accum (local.get 0))))
"""

ARG = 120


def stats_tuple(instance: Instance) -> tuple:
    s = instance.stats
    return (
        dict(s.visits),
        s.executed,
        s.cycles,
        s.loads,
        s.stores,
        s.bytes_loaded,
        s.bytes_stored,
        s.calls,
        s.host_calls,
        tuple(s.grow_history),
        instance.memory.pages,
        bytes(instance.memory._data),
        tuple(g.value for g in instance.globals),
    )


def baseline(engine: str) -> tuple:
    inst = Instance(parse_wat(WORK), engine=engine)
    value = inst.invoke("work", ARG)
    return value, stats_tuple(inst)


@pytest.mark.parametrize("capture_engine", ENGINES)
@pytest.mark.parametrize("resume_engine", ENGINES)
class TestEnginePairs:
    def test_suspend_resume_matches_uninterrupted(
        self, capture_engine, resume_engine
    ):
        inst = Instance(
            parse_wat(WORK),
            limits=ExecutionLimits(snapshot_at=700),
            engine=capture_engine,
        )
        with pytest.raises(SnapshotCaptured) as captured:
            inst.invoke("work", ARG)
        snap = decode_snapshot(encode_snapshot(captured.value.snapshot))
        assert snap.executed == 700
        assert snap.engine == capture_engine

        resumed = restore_instance(snap, parse_wat(WORK), engine=resume_engine)
        value = resume_invoke(resumed, snap)

        base_value, base_stats = baseline(resume_engine)
        assert value == base_value
        assert stats_tuple(resumed) == base_stats


def test_chained_hops_rotate_all_engines():
    # suspend every 373 instructions, resuming under a rotating engine —
    # many hops, one final answer, stats identical to one straight run
    hop = 373
    inst = Instance(
        parse_wat(WORK), limits=ExecutionLimits(snapshot_at=hop), engine="predecode"
    )
    blob = None
    try:
        inst.invoke("work", ARG)
    except SnapshotCaptured as exc:
        blob = encode_snapshot(exc.snapshot)
    assert blob is not None

    hops = 1
    value = None
    while value is None:
        snap = decode_snapshot(blob)
        engine = ENGINES[hops % len(ENGINES)]
        inst = restore_instance(
            snap,
            parse_wat(WORK),
            limits=ExecutionLimits(snapshot_at=snap.executed + hop),
            engine=engine,
        )
        try:
            value = resume_invoke(inst, snap)
        except SnapshotCaptured as exc:
            blob = encode_snapshot(exc.snapshot)
            hops += 1

    assert hops > 3
    base_value, base_stats = baseline("predecode")
    assert value == base_value
    assert stats_tuple(inst) == base_stats


MINIC = """
int work(int n) {
  int i; int acc;
  acc = 0;
  for (i = 1; i <= n; i = i + 1) {
    acc = acc + i * i;
  }
  return acc;
}
"""


def vector_tuple(v) -> tuple:
    return (
        v.weighted_instructions,
        v.peak_memory_bytes,
        v.memory_integral_page_instructions,
        v.io_bytes_in,
        v.io_bytes_out,
    )


def test_checkpoint_receipts_sum_to_uninterrupted_vector():
    # preempted-and-resumed under rotating engines: the sum of the signed
    # checkpoint + final vectors must equal the single uninterrupted vector
    plain = TwoWaySandbox.deploy(SandboxConfig(engine="predecode"))
    plain.submit_minic(MINIC)
    expected = plain.ae.invoke("work", 40, label="work")

    sandbox = TwoWaySandbox.deploy(SandboxConfig(engine="predecode"))
    sandbox.submit_minic(MINIC)
    outcome = sandbox.snapshot("work", 40, snapshot_at=150, label="work")
    hops = 0
    engines = ("compile", "predecode")
    from repro.core.accounting_enclave import WorkloadCheckpoint

    tracer = enable_tracing(Tracer())
    try:
        while isinstance(outcome, WorkloadCheckpoint):
            sandbox.ae.engine = engines[hops % len(engines)]
            outcome = sandbox.resume(outcome, snapshot_at=150)
            hops += 1
    finally:
        disable_tracing()
    assert hops >= 2
    # each hop resumed on the engine the AE was switched to
    ran = [
        s.attributes["exec_engine"]
        for s in tracer.finished()
        if s.name == "worker.resume_invoke"
    ]
    assert ran == [engines[hop % len(engines)] for hop in range(hops)]

    assert outcome.value == expected.value
    entries = sandbox.log.entries
    assert len(entries) == hops + 1  # one checkpoint per hop except the last
    summed = tuple(
        sum(vector_tuple(e.vector)[i] for e in entries) for i in range(5)
    )
    assert summed == vector_tuple(expected.vector)
    assert sandbox.verify_log()
    assert plain.verify_log()


# -- capture equivalence: compiled frames vs the predecode reference ----------

REFERENCE = "predecode"
PROGRAMS = ("WORK", "atax", "mvt", "jacobi-1d", "trisolv", "gemm")
SEEDED_POINTS = 40


def program(name: str):
    """``(module, setup calls, run call)``; PolyBench kernels instrumented."""
    if name == "WORK":
        return parse_wat(WORK), (), ("work", (ARG,))
    spec = POLYBENCH_KERNELS[name]
    result, _evidence = InstrumentationEnclave().instrument(spec.compile().clone())
    return result.module, spec.setup, spec.run


def started(module, setup, engine: str, **limits) -> Instance:
    inst = Instance(module, engine=engine)
    for fn, args in setup:
        inst.invoke(fn, *args)
    inst.limits = ExecutionLimits(**limits)
    return inst


def encoded(snapshot) -> bytes:
    # the engine tag names the capturing configuration; every other byte
    # must match (bytes, not tuples: trisolv's NaNs defeat ``==``)
    return encode_snapshot(replace(snapshot, engine="-"), _observe=False)


def capture_fresh(module, setup, run, engine: str, at: int) -> bytes | None:
    inst = started(module, setup, engine, snapshot_at=at)
    try:
        inst.invoke(run[0], *run[1])
    except SnapshotCaptured as exc:
        return encoded(exc.snapshot)
    return None


def reference_captures(module, setup, run, points: list) -> dict:
    """Reference captures at every point (ascending) from one suspended and
    resumed pass — the same states a fresh run per point reaches."""
    inst = started(module, setup, REFERENCE, snapshot_at=points[0])
    snap = None
    try:
        inst.invoke(run[0], *run[1])
    except SnapshotCaptured as exc:
        snap = exc.snapshot
    reference = {}
    for at, following in zip(points, points[1:] + [None]):
        reference[at] = None if snap is None else encoded(snap)
        if snap is None or following is None:
            continue
        resumed = restore_instance(
            snap, module, limits=ExecutionLimits(snapshot_at=following),
            engine=REFERENCE,
        )
        try:
            resume_invoke(resumed, snap)
            snap = None
        except SnapshotCaptured as exc:
            snap = exc.snapshot
    return reference


@pytest.mark.parametrize("name", PROGRAMS)
def test_compile_capture_is_byte_identical_to_predecode(name):
    module, setup, run = program(name)
    inst = started(module, setup, "compile")
    first = inst.stats.executed
    inst.invoke(run[0], *run[1])
    total = inst.stats.executed
    rng = random.Random(f"capture:{name}")
    points = {first, total - 1, total + 1}
    points.update(rng.randrange(first, total) for _ in range(SEEDED_POINTS))
    points = sorted(points)
    assert len(points) >= SEEDED_POINTS

    reference = reference_captures(module, setup, run, points)
    assert reference[total + 1] is None and reference[total - 1] is not None
    for at in points:
        assert capture_fresh(module, setup, run, "compile", at) == reference[at], (
            f"compile capture at {at} differs from {REFERENCE}"
        )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", ("WORK", "atax"))
def test_armed_but_never_reached_leaves_stats_identical(engine, name):
    module, setup, run = program(name)
    plain = started(module, setup, engine)
    armed = started(module, setup, engine, snapshot_at=10**12)
    assert armed.invoke(run[0], *run[1]) == plain.invoke(run[0], *run[1])
    assert encoded(capture_instance(armed)) == encoded(capture_instance(plain))


def predecode_segment(module, func_index: int, pc: int) -> tuple[int, int]:
    """``(start, length)`` of the predecode segment holding ``pc``, or
    ``(pc, 0)`` when ``pc`` is a control instruction."""
    inst = Instance(module, engine="predecode")
    segments = inst._engine._compiled[func_index - module.num_imported_funcs].segments
    for start, count in segments.items():
        if start <= pc < start + count:
            return start, count
    return pc, 0


def capture_snapshot(module, engine: str, at: int):
    inst = Instance(module, limits=ExecutionLimits(snapshot_at=at), engine=engine)
    with pytest.raises(SnapshotCaptured) as captured:
        inst.invoke("work", ARG)
    return captured.value.snapshot


def mid_segment_point(min_left: int) -> int:
    """The first WORK capture point whose innermost frame sits inside a
    predecode segment with at least ``min_left`` instructions still to run."""
    module = parse_wat(WORK)
    for at in range(1, 400):
        frame = capture_snapshot(module, REFERENCE, at).frames[-1]
        start, count = predecode_segment(module, frame.func_index, frame.pc)
        if start < frame.pc and count - (frame.pc - start) >= min_left:
            return at
    raise AssertionError("WORK has no mid-segment capture point")


@pytest.mark.parametrize("resume_engine", ENGINES)
def test_resume_lands_mid_segment(resume_engine):
    at = mid_segment_point(min_left=2)
    snap = decode_snapshot(encode_snapshot(capture_snapshot(parse_wat(WORK), REFERENCE, at)))
    resumed = restore_instance(snap, parse_wat(WORK), engine=resume_engine)
    value = resume_invoke(resumed, snap)
    base_value, base_stats = baseline(resume_engine)
    assert value == base_value
    assert stats_tuple(resumed) == base_stats


def limits_outcome(engine: str, snapshot_at: int, max_instructions: int):
    inst = Instance(
        parse_wat(WORK),
        limits=ExecutionLimits(
            snapshot_at=snapshot_at, max_instructions=max_instructions
        ),
        engine=engine,
    )
    try:
        inst.invoke("work", ARG)
    except SnapshotCaptured as exc:
        return "captured", exc.snapshot.executed, encoded(exc.snapshot)
    except Trap as exc:
        return "trap", inst.stats.executed, str(exc), encoded(capture_instance(inst))
    return "completed", inst.stats.executed, encoded(capture_instance(inst))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "capture_offset,budget_offset", [(0, 0), (0, 1), (1, 0), (2, 0), (1, 2)]
)
def test_capture_and_budget_in_one_segment(engine, capture_offset, budget_offset):
    # both boundaries inside one predecode segment: capture precedes the
    # charge and the budget trap follows it, so a capture lands at exactly
    # executed == snapshot_at and a trap at exactly max_instructions + 1
    at = mid_segment_point(min_left=3)
    snapshot_at, budget = at + capture_offset, at + budget_offset
    outcome = limits_outcome(engine, snapshot_at, budget)
    if snapshot_at <= budget:
        assert outcome[:2] == ("captured", snapshot_at)
    else:
        assert outcome[:3] == ("trap", budget + 1, "instruction budget exhausted")
    if engine != REFERENCE:
        assert outcome == limits_outcome(REFERENCE, snapshot_at, budget)


@pytest.mark.parametrize("name", ("WORK", "atax"))
def test_armed_and_resumed_compile_never_predecode_a_translated_function(
    name, monkeypatch
):
    import repro.wasm.predecode as predecode

    whole_function = predecode.compile_function

    def guarded(instance, defined_index):
        engine = instance._engine
        if instance.engine == "compile" and engine._fns[defined_index] is not None:
            raise AssertionError(f"predecoded translated function {defined_index}")
        return whole_function(instance, defined_index)

    module, setup, run = program(name)
    plain = started(module, setup, "compile")
    expected = plain.invoke(run[0], *run[1])
    monkeypatch.setattr(predecode, "compile_function", guarded)
    hop = 397
    inst = started(module, setup, "compile")
    inst.limits = ExecutionLimits(snapshot_at=inst.stats.executed + hop)
    snap, hops = None, 0
    try:
        value = inst.invoke(run[0], *run[1])
    except SnapshotCaptured as exc:
        snap = exc.snapshot
    while snap is not None:
        hops += 1
        inst = restore_instance(
            snap, module, engine="compile",
            limits=ExecutionLimits(snapshot_at=snap.executed + hop),
        )
        try:
            value = resume_invoke(inst, snap)
            snap = None
        except SnapshotCaptured as exc:
            snap = exc.snapshot
    assert hops > 3
    assert value == expected
    assert encoded(capture_instance(inst)) == encoded(capture_instance(plain))


# then- and else-arms, a result-carrying if, br_if/br_table out of nested
# blocks and calls inside a loop: every construct a resume can land in
BRANCHY = """
(module
  (func $sq (param i32) (result i32) (i32.mul (local.get 0) (local.get 0)))
  (func (export "branchy") (param i32) (result i32)
    (local i32 i32)
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get 1) (local.get 0)))
        (if (i32.and (local.get 1) (i32.const 1))
          (then (local.set 2 (i32.add (local.get 2) (call $sq (local.get 1)))))
          (else
            (block $skip
              (br_if $skip (i32.eqz (i32.rem_u (local.get 1) (i32.const 4))))
              (local.set 2 (i32.sub (local.get 2) (local.get 1))))))
        (block $b2 (block $b1 (block $b0
          (br_table $b0 $b1 $b2 (i32.rem_u (local.get 1) (i32.const 3))))
          (local.set 2 (i32.add (local.get 2) (i32.const 7))))
          (local.set 2 (i32.xor (local.get 2) (i32.const 5))))
        (local.set 2
          (i32.add (local.get 2)
            (if (result i32) (i32.gt_u (local.get 1) (i32.const 5))
              (then (i32.const 3)) (else (i32.const 11)))))
        (local.set 1 (i32.add (local.get 1) (i32.const 1)))
        (br $top)))
    (local.get 2)))
"""


@pytest.mark.parametrize("capture_engine", ENGINES)
def test_compile_resumes_at_every_point_of_branchy_code(capture_engine):
    plain = Instance(parse_wat(BRANCHY), engine="compile")
    expected = plain.invoke("branchy", 12)
    for at in range(plain.stats.executed):
        inst = Instance(
            parse_wat(BRANCHY), engine=capture_engine,
            limits=ExecutionLimits(snapshot_at=at),
        )
        with pytest.raises(SnapshotCaptured) as captured:
            inst.invoke("branchy", 12)
        snap = captured.value.snapshot
        resumed = restore_instance(snap, parse_wat(BRANCHY), engine="compile")
        assert resume_invoke(resumed, snap) == expected, f"resumed at {at}"
        assert encoded(capture_instance(resumed)) == encoded(capture_instance(plain))
