"""Pinned budget/progress boundary semantics, identical under both engines.

These are the invariants the pre-decoded engine's basic-block batching must
not break (it falls back to per-instruction stepping for any segment that
contains a budget or progress crossing):

* the budget :class:`Trap` fires exactly when ``executed ==
  max_instructions + 1`` — the (N+1)-th instruction is visited (charged),
  then execution aborts;
* ``progress_callback`` fires at *every* multiple of ``progress_interval``,
  with ``stats.executed`` equal to that exact multiple at callback time.
"""

import dataclasses

import pytest

from repro.wasm.interpreter import ENGINES, ExecutionLimits, Instance, Trap
from repro.wasm.snapshot import (
    SnapshotCaptured,
    decode_snapshot,
    encode_snapshot,
    restore_instance,
    resume_invoke,
)
from repro.wasm.wat_parser import parse_wat

# A straight-line-heavy spinner: the loop body is one long segment of simple
# instructions, so under the pre-decoded engine every budget/progress
# boundary lands *inside* a batched segment and exercises the fallback.
SPIN = """
(module
  (func (export "spin") (param i32) (result i32)
    (local i32 i32)
    (loop $top
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (local.set 2 (i32.add (local.get 2) (i32.const 3)))
      (local.set 2 (i32.sub (local.get 2) (i32.const 2)))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (local.get 2)))
"""


def make(engine: str, **limits_kwargs) -> Instance:
    return Instance(
        parse_wat(SPIN),
        limits=ExecutionLimits(**limits_kwargs),
        engine=engine,
    )


@pytest.mark.parametrize("engine", ENGINES)
class TestBudgetEdge:
    @pytest.mark.parametrize("budget", [1, 7, 64, 65, 66, 200, 201])
    def test_trap_fires_at_exactly_budget_plus_one(self, engine, budget):
        inst = make(engine, max_instructions=budget)
        with pytest.raises(Trap, match="instruction budget exhausted"):
            inst.invoke("spin", 1_000_000)
        assert inst.stats.executed == budget + 1

    def test_run_that_exactly_meets_budget_does_not_trap(self, engine):
        free = Instance(parse_wat(SPIN), engine=engine)
        free.invoke("spin", 25)
        exact = free.stats.executed
        inst = make(engine, max_instructions=exact)
        assert inst.invoke("spin", 25) == 25
        assert inst.stats.executed == exact

    def test_one_under_budget_traps(self, engine):
        free = Instance(parse_wat(SPIN), engine=engine)
        free.invoke("spin", 25)
        exact = free.stats.executed
        inst = make(engine, max_instructions=exact - 1)
        with pytest.raises(Trap, match="budget"):
            inst.invoke("spin", 25)
        assert inst.stats.executed == exact


@pytest.mark.parametrize("engine", ENGINES)
class TestProgressEdge:
    @pytest.mark.parametrize("interval", [1, 2, 3, 7, 10, 64])
    def test_callback_fires_at_every_multiple(self, engine, interval):
        seen: list[int] = []
        inst = make(
            engine,
            progress_interval=interval,
            progress_callback=lambda stats: seen.append(stats.executed),
        )
        inst.invoke("spin", 40)
        total = inst.stats.executed
        assert seen == list(range(interval, total + 1, interval))

    def test_callback_observes_consistent_visit_counts(self, engine):
        # at callback time the per-name Counter must sum to executed —
        # batching must never leave the stats partially charged
        mismatches: list[tuple[int, int]] = []

        def check(stats):
            total = sum(stats.visits.values())
            if total != stats.executed:
                mismatches.append((total, stats.executed))

        inst = make(engine, progress_interval=5, progress_callback=check)
        inst.invoke("spin", 40)
        assert mismatches == []

    def test_interval_without_callback_is_inert(self, engine):
        inst = make(engine, progress_interval=3)
        assert inst.invoke("spin", 10) == 10

    def test_progress_and_budget_interact_exactly(self, engine):
        seen: list[int] = []
        inst = make(
            engine,
            max_instructions=100,
            progress_interval=10,
            progress_callback=lambda stats: seen.append(stats.executed),
        )
        with pytest.raises(Trap, match="budget"):
            inst.invoke("spin", 1_000_000)
        assert inst.stats.executed == 101
        # every multiple up to the budget was reported; the trapping
        # instruction (101) is past the last multiple
        assert seen == list(range(10, 101, 10))

    def test_callback_cannot_retighten_the_budget(self, engine):
        # compiled code reads the budget once per call, predecode once per
        # instruction: a limit changed mid-call would trap at different
        # points, so the limits are frozen
        inst = make(engine, max_instructions=10_000, progress_interval=100)

        def tighten(stats):
            inst.limits.max_instructions = stats.executed + 50

        inst.limits = dataclasses.replace(inst.limits, progress_callback=tighten)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.invoke("spin", 1_000)
        assert inst.stats.executed == 100


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("resume_engine", ENGINES)
class TestSnapshotEdges:
    """Snapshots taken exactly on the budget/progress boundaries must
    restore and then trap/continue identically — under every engine pair."""

    def test_snapshot_exactly_at_budget_exhaustion_then_trap(
        self, engine, resume_engine
    ):
        # arm capture at executed == budget: the snapshot lands on the last
        # legal instruction; the resumed run must charge the (N+1)-th and
        # trap exactly like an uninterrupted run
        budget = 120
        inst = make(engine, max_instructions=budget, snapshot_at=budget)
        with pytest.raises(SnapshotCaptured) as captured:
            inst.invoke("spin", 1_000_000)
        snap = decode_snapshot(encode_snapshot(captured.value.snapshot))
        assert snap.executed == budget

        resumed = restore_instance(
            snap,
            parse_wat(SPIN),
            limits=ExecutionLimits(max_instructions=budget),
            engine=resume_engine,
        )
        with pytest.raises(Trap, match="instruction budget exhausted"):
            resume_invoke(resumed, snap)
        assert resumed.stats.executed == budget + 1

    def test_snapshot_exactly_on_progress_boundary_continues_identically(
        self, engine, resume_engine
    ):
        # capture on a progress multiple: the callback for that multiple
        # fired before capture; the resumed run must fire the later
        # multiples only — across both halves, every multiple exactly once
        interval, at = 10, 30
        seen: list[int] = []
        inst = make(
            engine,
            progress_interval=interval,
            progress_callback=lambda stats: seen.append(stats.executed),
            snapshot_at=at,
        )
        with pytest.raises(SnapshotCaptured) as captured:
            inst.invoke("spin", 40)
        snap = decode_snapshot(encode_snapshot(captured.value.snapshot))
        assert snap.executed == at
        assert seen == [10, 20, 30]

        resumed = restore_instance(
            snap,
            parse_wat(SPIN),
            limits=ExecutionLimits(
                progress_interval=interval,
                progress_callback=lambda stats: seen.append(stats.executed),
            ),
            engine=resume_engine,
        )
        value = resume_invoke(resumed, snap)

        base_seen: list[int] = []
        base = make(
            resume_engine,
            progress_interval=interval,
            progress_callback=lambda stats: base_seen.append(stats.executed),
        )
        base_value = base.invoke("spin", 40)
        assert value == base_value
        assert seen == base_seen == list(range(interval, base.stats.executed + 1, interval))
        assert resumed.stats.executed == base.stats.executed
        assert resumed.stats.visits == base.stats.visits


# ---------------------------------------------------------------------------
# The progress boundary folded into the compiled fast path's threshold
# ---------------------------------------------------------------------------

# A loop around a call: the callee's block is the only one with an i32.mul
# and ends on the only i32.xor, the caller's loop test is the only
# i32.lt_u, and the call charge closes the caller's batch before it.
CALLS = """
(module
  (func $step (param i32) (result i32)
    (i32.xor (i32.mul (local.get 0) (i32.const 3)) (i32.const 1)))
  (func (export "run") (param i32) (result i32)
    (local i32 i32)
    (loop $top
      (local.set 2 (i32.add (local.get 2) (call $step (local.get 1))))
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (local.get 2)))
"""


def _charges(wat: str, export: str, args: tuple) -> list[str]:
    """The instructions of a run in the order they are charged (1-based
    position k is the instruction that makes ``executed == k``)."""
    names: list[str] = []
    last: dict = {}

    def record(stats):
        grew = [name for name, n in stats.visits.items() if n != last.get(name, 0)]
        names.append(grew[0])
        last.update(stats.visits)

    Instance(
        parse_wat(wat),
        limits=ExecutionLimits(progress_interval=1, progress_callback=record),
        engine="predecode",
    ).invoke(export, *args)
    return names


def _callbacks(engine: str, wat: str, export: str, args: tuple, **limits) -> list:
    """(executed, visits) at every progress callback, and the result."""
    seen: list = []
    inst = Instance(
        parse_wat(wat),
        limits=ExecutionLimits(
            progress_callback=lambda stats: seen.append((stats.executed, dict(stats.visits))),
            **limits,
        ),
        engine=engine,
    )
    return seen, inst.invoke(export, *args)


def _boundary(where: str) -> int:
    names = _charges(CALLS, "run", (6,))
    if where == "inside a batch":
        return names.index("i32.lt_u") + 1   # mid-block, before the br_if
    if where == "on a batch end":
        return names.index("call") + 1       # the call charge closes its batch
    if where == "inside a callee":
        return names.index("i32.mul") + 1
    # the callee's last instruction, then the first charge back in the caller
    return names.index("i32.xor") + 2


@pytest.mark.parametrize(
    "where", ["inside a batch", "on a batch end", "inside a callee", "after a call returns"]
)
def test_progress_boundary_placements_agree(where):
    """The first boundary falls where named; later multiples fall wherever
    the run takes them.  Both engines call back at the same counts, with
    the same visits charged."""
    interval = _boundary(where)
    runs = {engine: _callbacks(engine, CALLS, "run", (6,), progress_interval=interval)
            for engine in ENGINES}
    seen, value = runs["predecode"]
    assert seen[0][0] == interval and len(seen) > 3
    assert runs["compile"] == (seen, value)


@pytest.mark.parametrize("capture_engine", ENGINES)
@pytest.mark.parametrize("resume_engine", ENGINES)
def test_progress_boundary_in_the_first_batch_after_a_resume(capture_engine, resume_engine):
    """Captured inside the caller's loop, then resumed with boundaries that
    fall in the rest of the captured batch and in the batches right after
    it: the resumed run calls back where an uninterrupted one does."""
    names = _charges(CALLS, "run", (6,))
    at = names.index("i32.lt_u")  # capture before the loop test's compare
    inst = Instance(
        parse_wat(CALLS), limits=ExecutionLimits(snapshot_at=at), engine=capture_engine
    )
    with pytest.raises(SnapshotCaptured) as captured:
        inst.invoke("run", 6)
    snap = decode_snapshot(encode_snapshot(captured.value.snapshot))
    for interval in range(at + 1, at + 9):
        seen: list = []
        resumed = restore_instance(
            snap,
            parse_wat(CALLS),
            limits=ExecutionLimits(
                progress_interval=interval,
                progress_callback=lambda stats: seen.append(
                    (stats.executed, dict(stats.visits))
                ),
            ),
            engine=resume_engine,
        )
        value = resume_invoke(resumed, snap)
        base, base_value = _callbacks(
            "predecode", CALLS, "run", (6,), progress_interval=interval
        )
        assert value == base_value
        assert seen == base, f"interval {interval}"
