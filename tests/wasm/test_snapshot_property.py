"""Generative capture differential: random programs, random capture points.

For a random MiniC program (optionally instrumented) and a random capture
point, a capture taken from compiled code must encode byte-identically to
the predecode reference's capture, and resuming it under a random engine
must finish with the uninterrupted value and byte-identical
``ExecutionStats``.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.instrument import instrument_module
from repro.instrument.weights import UNIT_WEIGHTS
from repro.minic import compile_source
from repro.wasm.costmodel import CostModel
from repro.wasm.interpreter import ENGINES, ExecutionLimits, Instance
from repro.wasm.snapshot import (
    SnapshotCaptured,
    decode_snapshot,
    encode_snapshot,
    restore_instance,
    resume_invoke,
)
from tests.minic_programs import programs


def stats_bytes(instance: Instance) -> bytes:
    s = instance.stats
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
        return encode_snapshot(replace(exc.snapshot, engine="-"), _observe=False)
    return None


@settings(max_examples=30, deadline=None)
@given(
    programs(),
    st.sampled_from((None, "naive", "loop-based")),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.sampled_from(ENGINES),
    st.data(),
)
def test_compiled_capture_matches_predecode_and_resumes_anywhere(
    source, level, a, b, resume_engine, data
):
    module = compile_source(source)
    if level is not None:
        module = instrument_module(module, level, UNIT_WEIGHTS).module
    plain = Instance(module, cost_model=CostModel(), engine="predecode")
    expected = plain.invoke("f", a, b)
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
