"""Generative differential for typed-view memory accesses.

A random function body — a sequence of loads, stores and ``memory.grow``
(in the function itself and through a callee), each access of a random
type and width at an ``i32.shl`` address with a random shift, index and
offset, so that some compile to typed-view subscripts and some keep
``struct`` — must leave the same result or trap text, byte-identical
:class:`ExecutionStats` and byte-identical memory on ``compile`` as on the
``predecode`` reference.  Reproducible per ``--hypothesis-seed``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.wasm.costmodel import CostModel
from repro.wasm.interpreter import Instance, Trap
from repro.wasm.wat_parser import parse_wat

#: (load, store, value type, width); the full-width ones may index a view
ACCESS = [
    ("i32.load", "i32.store", "i32", 4), ("i64.load", "i64.store", "i64", 8),
    ("f32.load", "f32.store", "f32", 4), ("f64.load", "f64.store", "f64", 8),
    ("i32.load8_u", "i32.store8", "i32", 1), ("i32.load16_s", "i32.store16", "i32", 2),
    ("i64.load32_s", "i64.store32", "i64", 4),
]

LOG2 = {1: 0, 2: 1, 4: 2, 8: 3}

#: the last 64 bytes of page 0 log what each load read
LOG = 0x10000 - 64

# an index near the start, near the end of one to three pages, or anywhere
indices = st.one_of(
    st.integers(0, 16),
    st.integers(0x1FF0, 0x2010),
    st.integers(0x3FF0, 0x4010),
    st.integers(0x5FF0, 0x6010),
    st.integers(0, 0xFFFFFFFF),
)

values = {
    "i32": st.integers(0, 0xFFFFFFFF),
    "i64": st.integers(0, 0xFFFFFFFFFFFFFFFF),
    "f32": st.sampled_from(["-0.0", "1.5", "nan:0x200001", "-inf", "3.4e38"]),
    "f64": st.sampled_from(["-0.0", "2.5", "nan:0x8000000000123", "-inf", "1e300"]),
}


@st.composite
def accesses(draw):
    load, store, t, width = draw(st.sampled_from(ACCESS))
    # mostly the access's own log2 (maybe a view), sometimes another count
    shift = draw(st.one_of(st.just(LOG2[width]), st.integers(0, 3)))
    # mostly a multiple of the width, sometimes not
    offset = draw(st.one_of(st.integers(0, 8).map(lambda k: k * width), st.integers(0, 40)))
    index = draw(indices)
    # the index is a local's value plus a literal: the shifted operand is a
    # raw sum, not a literal
    addr = (
        f"(i32.shl (i32.add (local.get 0) (i32.const {index})) (i32.const {shift}))"
    )
    if draw(st.booleans()):
        value = draw(values[t])
        return f"({store} offset={offset} {addr} ({t}.const {value}))"
    slot = draw(st.integers(0, 7)) * 8
    log_store = {"i32": "i32.store", "i64": "i64.store", "f32": "f32.store",
                 "f64": "f64.store"}[t]
    return f"({log_store} (i32.const {LOG + slot}) ({load} offset={offset} {addr}))"


statements = st.one_of(
    accesses(),
    accesses(),
    accesses(),
    st.integers(0, 2).map(lambda n: f"(drop (memory.grow (i32.const {n})))"),
    st.integers(0, 2).map(lambda n: f"(drop (call $grow (i32.const {n})))"),
)


def _outcome(instance: Instance):
    try:
        value = instance.invoke("f", 0)
    except Trap as exc:
        value = ("trap", str(exc))
    s = instance.stats
    return (
        value, sorted(s.visits.items()), s.executed, s.cycles, s.loads, s.stores,
        s.bytes_loaded, s.bytes_stored, s.calls, s.grow_history,
        bytes(instance.memory._data),
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(statements, min_size=1, max_size=12), st.integers(1, 3))
def test_random_access_and_grow_sequences(body, calls):
    wat = (
        "(module (memory 1 4)\n"
        "  (func $grow (param i32) (result i32) (memory.grow (local.get 0)))\n"
        '  (func (export "f") (param i32) (result i32)\n    '
        + "\n    ".join(body)
        + "\n    (memory.size)))"
    )
    module = parse_wat(wat)
    instances = [
        Instance(module.clone(), engine=engine, cost_model=CostModel())
        for engine in ("predecode", "compile")
    ]
    # run the body more than once on one instance: later runs start from
    # the memory (and size) the earlier ones left
    for _ in range(calls):
        expected, got = (_outcome(instance) for instance in instances)
        assert got == expected, wat
