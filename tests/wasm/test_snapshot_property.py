"""Generative boundary differential: random programs, random boundaries.

For a random MiniC program (optionally instrumented) and a random boundary,
compiled code must match the predecode reference:

* a random capture point: the capture encodes byte-identically, and
  resuming it under a random engine finishes with the uninterrupted value
  and byte-identical ``ExecutionStats``;
* a random ``max_instructions`` budget: both engines trap at the same
  ``executed`` (or both finish) with byte-identical stats;
* a random ``progress_interval``: the callback sees the same sequence of
  stats, and the run ends with byte-identical stats.

These are the per-instruction slow paths of the compiled code.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.instrument import instrument_module
from repro.instrument.weights import UNIT_WEIGHTS
from repro.minic import compile_source
from repro.wasm.costmodel import CostModel
from repro.wasm.interpreter import ENGINES, ExecutionLimits, Instance, Trap
from repro.wasm.snapshot import (
    SnapshotCaptured,
    decode_snapshot,
    encode_snapshot,
    restore_instance,
    resume_invoke,
)
from tests.minic_programs import programs


def stats_bytes(instance: Instance) -> bytes:
    return stats_record(instance.stats)


def stats_record(s) -> bytes:
    return repr(
        (sorted(s.visits.items()), s.executed, s.cycles, s.loads, s.stores,
         s.bytes_loaded, s.bytes_stored, s.calls, s.host_calls, s.grow_history)
    ).encode()


def capture(module, engine: str, at: int, args) -> bytes | None:
    inst = Instance(
        module, cost_model=CostModel(), engine=engine,
        limits=ExecutionLimits(snapshot_at=at),
    )
    try:
        inst.invoke("f", *args)
    except SnapshotCaptured as exc:
        return encode_snapshot(replace(exc.snapshot, engine="-"))
    return None


def limited_run(module, engine: str, args, **limits) -> tuple:
    """Run under ``limits``: the outcome, the stats every progress callback
    saw, and the final stats."""
    seen: list[bytes] = []
    inst = Instance(
        module, cost_model=CostModel(), engine=engine,
        limits=ExecutionLimits(
            progress_callback=lambda stats: seen.append(stats_record(stats)),
            **limits,
        ),
    )
    try:
        outcome = ("value", inst.invoke("f", *args))
    except Trap as exc:
        outcome = ("trap", inst.stats.executed, str(exc))
    return outcome, seen, stats_bytes(inst)


def program_case(source, level, a, b):
    """The (optionally instrumented) module, and the uninterrupted
    predecode run of ``f(a, b)``: its instance and its value."""
    module = compile_source(source)
    if level is not None:
        module = instrument_module(module, level, UNIT_WEIGHTS).module
    plain = Instance(module, cost_model=CostModel(), engine="predecode")
    expected = plain.invoke("f", a, b)
    return module, plain, expected


PROGRAM_CASES = (
    programs(),
    st.sampled_from((None, "naive", "loop-based")),
    st.integers(-6, 6),
    st.integers(-6, 6),
)


@settings(max_examples=30, deadline=None)
@given(*PROGRAM_CASES, st.sampled_from(ENGINES), st.data())
def test_compiled_capture_matches_predecode_and_resumes_anywhere(
    source, level, a, b, resume_engine, data
):
    module, plain, expected = program_case(source, level, a, b)
    at = data.draw(st.integers(0, plain.stats.executed + 1), label="capture point")

    blob = capture(module, "compile", at, (a, b))
    assert blob == capture(module, "predecode", at, (a, b))
    if blob is None:
        assert at > plain.stats.executed - 1
        return
    snap = decode_snapshot(blob)
    resumed = restore_instance(
        snap, module, cost_model=CostModel(), engine=resume_engine
    )
    assert resume_invoke(resumed, snap) == expected
    assert stats_bytes(resumed) == stats_bytes(plain)


@settings(max_examples=30, deadline=None)
@given(*PROGRAM_CASES, st.data())
def test_compiled_budget_matches_predecode(source, level, a, b, data):
    module, plain, expected = program_case(source, level, a, b)
    budget = data.draw(st.integers(0, plain.stats.executed + 1), label="budget")
    outcome = limited_run(module, "compile", (a, b), max_instructions=budget)
    assert outcome == limited_run(
        module, "predecode", (a, b), max_instructions=budget
    )
    if budget < plain.stats.executed:
        assert outcome[0] == ("trap", budget + 1, "instruction budget exhausted")
    else:
        assert outcome[0] == ("value", expected)


@settings(max_examples=30, deadline=None)
@given(*PROGRAM_CASES, st.data())
def test_compiled_progress_matches_predecode(source, level, a, b, data):
    module, plain, expected = program_case(source, level, a, b)
    interval = data.draw(
        st.integers(1, plain.stats.executed + 1), label="progress interval"
    )
    outcome = limited_run(module, "compile", (a, b), progress_interval=interval)
    assert outcome == limited_run(
        module, "predecode", (a, b), progress_interval=interval
    )
    assert outcome[0] == ("value", expected)
    assert len(outcome[1]) == plain.stats.executed // interval
    assert outcome[2] == stats_bytes(plain)
