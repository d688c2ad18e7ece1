"""Differential pinning of typed-view memory accesses in compiled code.

A full-width access whose address is an ``i32.shl`` by log2 of its width,
plus an offset that is a multiple of the width, compiles to a subscript of
one of :class:`~repro.wasm.memory.LinearMemory`'s typed views (``_vd[...]``)
instead of a ``struct`` call.  Each case here runs on ``compile`` and on
``predecode`` and requires the same value, the same :class:`Trap` text,
byte-identical :class:`ExecutionStats` and byte-identical memory after
every call: aligned, unaligned and offset accesses of every width, the last
element and the one past it, ``memory.grow`` in the accessing function and
in a callee, NaN payloads and ``-0.0``, a pooled instance restored to a
snapshot of another size, and a memory two instances share.  The
``struct_only`` runs flip the byte-order constant the translator reads, so
the same cases pin the ``struct`` forms a big-endian host compiles.
"""

from __future__ import annotations

import ast
import struct

import pytest

from repro.wasm import compile_engine
from repro.wasm.compile_engine import CODE_CACHE, _module_has_memory, _Translator
from repro.wasm.costmodel import CostModel
from repro.wasm.interpreter import Instance, Trap
from repro.wasm.linking import exported_functions
from repro.wasm.memory import PAGE_SIZE
from repro.wasm.snapshot import WarmPool, capture_instance
from repro.wasm.wat_parser import parse_wat

ENGINES = ("predecode", "compile")

#: every access: (instruction, value type, width in bytes)
ACCESSES = [
    ("i32.load", "i32", 4), ("i32.load8_s", "i32", 1), ("i32.load8_u", "i32", 1),
    ("i32.load16_s", "i32", 2), ("i32.load16_u", "i32", 2), ("i64.load", "i64", 8),
    ("i64.load8_s", "i64", 1), ("i64.load16_u", "i64", 2), ("i64.load32_s", "i64", 4),
    ("i64.load32_u", "i64", 4), ("f32.load", "f32", 4), ("f64.load", "f64", 8),
    ("i32.store", "i32", 4), ("i32.store8", "i32", 1), ("i32.store16", "i32", 2),
    ("i64.store", "i64", 8), ("i64.store8", "i64", 1), ("i64.store16", "i64", 2),
    ("i64.store32", "i64", 4), ("f32.store", "f32", 4), ("f64.store", "f64", 8),
]

#: the instructions the translator may turn into a view subscript
VIEW_ACCESSES = {"i32.load", "i64.load", "f32.load", "f64.load", "i32.store", "i64.store",
                 "f64.store"}


@pytest.fixture(params=["views", "struct_only"])
def byte_order(request, monkeypatch):
    """Translate with the host's byte order, or as a big-endian host does
    (every access through ``struct``); translations are not shared across."""
    if request.param == "struct_only":
        monkeypatch.setattr(compile_engine, "_NATIVE_LITTLE_ENDIAN", False)
    CODE_CACHE.clear()
    yield request.param
    CODE_CACHE.clear()


def _stats_record(stats) -> tuple:
    return (
        sorted(stats.visits.items()), stats.executed, stats.cycles, stats.loads,
        stats.stores, stats.bytes_loaded, stats.bytes_stored, stats.calls,
        stats.host_calls, stats.grow_history,
    )


def _outcome(instance: Instance, name: str, args: tuple):
    try:
        value = instance.invoke(name, *args)
    except Trap as exc:
        value = ("trap", str(exc))
    if isinstance(value, float):
        value = struct.pack("<d", value)  # bit-exact, NaN included
    return value, _stats_record(instance.stats), bytes(instance.memory._data)


def _differential(wat: str, calls: list[tuple[str, tuple]]) -> list:
    """Run ``calls`` in order on one instance per engine (with a cost model,
    so the byte address of every access reaches it); every outcome, the
    stats and the memory after it must match.  Returns the outcomes."""
    instances = {
        engine: Instance(parse_wat(wat), engine=engine, cost_model=CostModel())
        for engine in ENGINES
    }
    outcomes = []
    for name, args in calls:
        expected = _outcome(instances["predecode"], name, args)
        got = _outcome(instances["compile"], name, args)
        assert got == expected, f"{name}{args}"
        outcomes.append(expected)
    return outcomes


def _view_subscripts(wat: str) -> int:
    """How many typed-view subscripts the module's functions compile to."""
    module = parse_wat(wat)
    count = 0
    for index in range(len(module.funcs)):
        source = _Translator(module, index, None, _module_has_memory(module)).translate()[0]
        count += sum(
            isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id in ("_vd", "_vf", "_vi", "_vq")
            for node in ast.walk(ast.parse(source))
        )
    return count


def _log2(width: int) -> int:
    return width.bit_length() - 1


# ---------------------------------------------------------------------------
# Every width: aligned, unaligned and offset accesses, up to the end
# ---------------------------------------------------------------------------

#: address forms: (name, shift count relative to log2 of the width, offset
#: in widths plus bytes); only the first two are provably aligned
FORMS = [
    ("shl", 0, (0, 0)),
    ("shl+offset", 0, (3, 0)),
    ("shl+unaligned offset", 0, (3, 1)),
    ("shl by another count", 1, (0, 0)),
]


def _value(t: str) -> str:
    """A stored value: a raw sum for the integers (stored masked), a
    negative for the floats."""
    if t[0] == "i":
        return f"({t}.add (local.get 1) ({t}.const 1))"
    return "(local.get 1)"


def _width_module(instr: str, t: str, width: int) -> tuple[str, list[str]]:
    funcs, exports = [], []
    for name, extra, (widths, plus) in FORMS:
        shift = _log2(width) + extra
        offset = widths * width + plus
        addr = f"(i32.shl (local.get 0) (i32.const {shift}))"
        if ".store" in instr:
            body = f"({instr} offset={offset} {addr} {_value(t)})"
            funcs.append(f'(func (export "{name}") (param i32 {t}) {body})')
        else:
            body = f"({instr} offset={offset} {addr})"
            funcs.append(f'(func (export "{name}") (param i32) (result {t}) {body})')
        exports.append(name)
    # an address that is no shift at all
    if ".store" in instr:
        funcs.append(
            f'(func (export "plain") (param i32 {t}) ({instr} (local.get 0) {_value(t)}))'
        )
    else:
        funcs.append(f'(func (export "plain") (param i32) (result {t}) ({instr} (local.get 0)))')
    exports.append("plain")
    funcs.append('(func (export "grow") (result i32) (memory.grow (i32.const 1)))')
    return "(module (memory 1 2)\n" + "\n".join(funcs) + ")", exports


def _store_values(t: str) -> list:
    if t == "i32":
        return [0x7FFFFFFF, 0xFFFFFFFF]
    if t == "i64":
        return [0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF]
    return [-2.5, 1e300]  # 1e300 overflows f32: the store clamps it to inf


@pytest.mark.parametrize("instr,t,width", ACCESSES, ids=[a[0] for a in ACCESSES])
def test_every_width_and_form(byte_order, instr, t, width):
    wat, exports = _width_module(instr, t, width)
    expected_views = 2 if instr in VIEW_ACCESSES and byte_order == "views" else 0
    assert _view_subscripts(wat) == expected_views
    calls = []
    for pages in (1, 2):
        end = pages * PAGE_SIZE
        for export in exports:
            shift = _log2(width) if export != "shl by another count" else _log2(width) + 1
            step = 1 << shift if export != "plain" else 1
            offset = {"shl+offset": 3 * width, "shl+unaligned offset": 3 * width + 1}
            offset = offset.get(export, 0)
            last = (end - width - offset) // step  # the last element in bounds
            # elements 0 and 5, the last, one past it, far past the end, and
            # an index the shift wraps around to address 0
            for index in (0, 5, last, last + 1, 0xFFFFFFFF, 1 << (32 - shift)):
                index &= 0xFFFFFFFF
                if ".store" in instr:
                    for value in _store_values(t):
                        calls.append((export, (index, value)))
                else:
                    calls.append((export, (index,)))
        calls.append(("grow", ()))
    outcomes = _differential(wat, calls)
    traps = [out[0][1] for out in outcomes if isinstance(out[0], tuple)]
    assert traps, "no access ran past the end"
    kind = "write" if ".store" in instr else "read"
    assert all(text.startswith(f"{kind} of {width} bytes at ") for text in traps)


@pytest.mark.parametrize("t,width", [("f64", 8), ("i32", 4), ("i64", 8), ("f32", 4)])
def test_last_element_and_one_past(byte_order, t, width):
    """The last element reads; the one past it traps with the text
    LinearMemory.read/write gives, at its byte address."""
    shift = _log2(width)
    wat = f"""
    (module (memory 1)
      (func (export "load") (param i32) (result {t})
        ({t}.load offset={2 * width} (i32.shl (local.get 0) (i32.const {shift}))))
      (func (export "store") (param i32 {t})
        ({t}.store offset={2 * width} (i32.shl (local.get 0) (i32.const {shift}))
          (local.get 1))))
    """
    last = PAGE_SIZE // width - 3
    one = 1.0 if t[0] == "f" else 1
    outcomes = _differential(
        wat,
        [("store", (last, one)), ("load", (last,)), ("store", (last + 1, one)),
         ("load", (last + 1,))],
    )
    past = PAGE_SIZE
    assert outcomes[2][0] == ("trap", f"write of {width} bytes at {past} out of bounds (65536)")
    assert outcomes[3][0] == ("trap", f"read of {width} bytes at {past} out of bounds (65536)")


# ---------------------------------------------------------------------------
# memory.grow: the views a function holds are rebound
# ---------------------------------------------------------------------------

GROW_WAT = """
(module (memory 1 3)
  (func $grow (param i32) (result i32) (memory.grow (local.get 0)))
  ;; read element 0 (the view is bound and used), grow here, then write and
  ;; read the element the caller names, in the new page
  (func (export "grow_here") (param i32) (result f64)
    (f64.store (i32.const 0) (f64.add (f64.load (i32.shl (i32.const 0) (i32.const 3)))
                                      (f64.const 1)))
    (drop (memory.grow (i32.const 1)))
    (f64.store (i32.shl (local.get 0) (i32.const 3)) (f64.const 2.5))
    (f64.load (i32.shl (local.get 0) (i32.const 3))))
  ;; the same, with the grow in a callee
  (func (export "grow_callee") (param i32) (result i32)
    (i32.store (i32.shl (i32.const 1) (i32.const 2))
               (i32.load (i32.shl (i32.const 1) (i32.const 2))))
    (drop (call $grow (i32.const 1)))
    (i32.store (i32.shl (local.get 0) (i32.const 2)) (i32.const -7))
    (i32.load (i32.shl (local.get 0) (i32.const 2))))
  (func (export "read") (param i32) (result i64)
    (i64.load (i32.shl (local.get 0) (i32.const 3)))))
"""


def test_grow_in_the_function_and_in_a_callee(byte_order):
    assert _view_subscripts(GROW_WAT) == (8 if byte_order == "views" else 0)
    page = PAGE_SIZE
    calls = [
        ("grow_here", (page // 8,)),            # page 1: in bounds after the grow
        ("grow_callee", (2 * page // 4 + 1,)),  # page 2: in bounds after the grow
        ("read", (page // 8,)),
        ("read", (3 * page // 8,)),              # past the end of 3 pages
        ("grow_here", (3 * page // 8,)),         # the grow fails (maximum 3)
        ("grow_callee", (3 * page // 4 - 1,)),   # the last element
    ]
    outcomes = _differential(GROW_WAT, calls)
    assert outcomes[0][0] == struct.pack("<d", 2.5)
    assert outcomes[1][0] == -7
    assert outcomes[2][0] == struct.unpack("<q", struct.pack("<d", 2.5))[0]
    assert outcomes[3][0] == ("trap", f"read of 8 bytes at {3 * page} out of bounds ({3 * page})")
    assert outcomes[4][0] == ("trap", f"write of 8 bytes at {3 * page} out of bounds ({3 * page})")
    assert outcomes[5][0] == -7


# ---------------------------------------------------------------------------
# Float bits: NaN payloads and -0.0 round-trip through f64 stores and loads
# ---------------------------------------------------------------------------

NAN_WAT = """
(module (memory 1)
  ;; the bits go in as an i64, through an f64 load and store, and out as an i64
  (func (export "f64") (param i64) (result i64)
    (i64.store (i32.shl (i32.const 1) (i32.const 3)) (local.get 0))
    (f64.store offset=16 (i32.shl (i32.const 2) (i32.const 3))
      (f64.load (i32.shl (i32.const 1) (i32.const 3))))
    (i64.load offset=16 (i32.shl (i32.const 2) (i32.const 3))))
  ;; an f32 load widens to f64: both engines widen alike
  (func (export "f32") (param i32) (result f64)
    (i32.store (i32.shl (i32.const 1) (i32.const 2)) (local.get 0))
    (f64.promote_f32 (f32.load (i32.shl (i32.const 1) (i32.const 2)))))
  (func (export "value") (param f64) (result f64)
    (f64.store (i32.shl (i32.const 3) (i32.const 3)) (local.get 0))
    (f64.load (i32.shl (i32.const 3) (i32.const 3)))))
"""

F64_BITS = [
    0x8000000000000000,  # -0.0
    0x7FF8000000000000,  # the quiet NaN
    0x7FF0000000000001,  # a signalling NaN payload
    0xFFF80000DEADBEEF,  # a negative quiet NaN with a payload
    0x7FEFFFFFFFFFFFFF,  # the largest finite
    0x0000000000000001,  # the smallest subnormal
]


def test_nan_payloads_and_negative_zero(byte_order):
    calls = [("f64", (bits,)) for bits in F64_BITS]
    calls += [("f32", (bits,)) for bits in (0x80000000, 0x7FC00001, 0xFF800000)]
    nan = struct.unpack("<d", struct.pack("<Q", 0x7FF4000000000123))[0]
    calls += [("value", (value,)) for value in (-0.0, nan, float("-inf"))]
    outcomes = _differential(NAN_WAT, calls)
    # the f64 path keeps every bit
    assert [out[0] & (2**64 - 1) for out in outcomes[: len(F64_BITS)]] == F64_BITS
    assert outcomes[-3][0] == struct.pack("<d", -0.0)
    assert outcomes[-2][0] == struct.pack("<Q", 0x7FF4000000000123)


# ---------------------------------------------------------------------------
# Size changes from outside the code: a pooled restore, a shared memory
# ---------------------------------------------------------------------------

POOL_WAT = """
(module (memory 1 4)
  (func (export "grow") (param i32) (result i32) (memory.grow (local.get 0)))
  (func (export "put") (param i32 f64)
    (f64.store (i32.shl (local.get 0) (i32.const 3)) (local.get 1)))
  (func (export "get") (param i32) (result f64)
    (f64.load (i32.shl (local.get 0) (i32.const 3)))))
"""


def _pool_run(engine: str) -> list:
    """Lease, grow to three pages and write; capture; lease again (reset to
    one page) and read past it; lease the capture (three pages again) and
    read what was written."""
    pool = WarmPool(parse_wat(POOL_WAT), engine=engine, max_size=1)
    handle = pool.acquire()
    inst = handle.instance
    out = [inst.invoke("grow", 2), inst.invoke("put", 2 * PAGE_SIZE // 8 + 1, -0.5)]
    grown = capture_instance(inst)
    pool.release(handle)

    handle = pool.acquire()
    assert handle.instance is inst  # the same pooled instance, shrunk back
    live = inst.memory.view_f64
    out.append(_outcome(inst, "get", (2 * PAGE_SIZE // 8 + 1,)))
    pool.release(handle)

    handle = pool.acquire(snapshot=grown)
    assert handle.instance is inst
    # the restore resized the memory: the view taken before it is released
    with pytest.raises(ValueError):
        live[0]
    out.append(_outcome(inst, "get", (2 * PAGE_SIZE // 8 + 1,)))
    out.append(_outcome(inst, "put", (3 * PAGE_SIZE // 8 - 1, 7.0)))
    pool.release(handle)
    return out


def test_pooled_restore_to_another_page_count(byte_order):
    expected, got = (_pool_run(engine) for engine in ENGINES)
    assert got == expected
    past = 2 * PAGE_SIZE + 8
    assert expected[2][0] == ("trap", f"read of 8 bytes at {past} out of bounds (65536)")
    assert expected[3][0] == struct.pack("<d", -0.5)


OWNER_WAT = """
(module (memory (export "mem") 1 3)
  (func (export "grow") (param i32) (result i32) (memory.grow (local.get 0)))
  (func (export "get") (param i32) (result i64)
    (i64.load (i32.shl (local.get 0) (i32.const 3)))))
"""

USER_WAT = """
(module
  (import "env" "mem" (memory 1 3))
  (import "env" "grow" (func $grow (param i32) (result i32)))
  ;; use the view, have the owner grow the shared memory, write the new page
  (func (export "fill") (param i32 i64) (result i64)
    (i64.store (i32.shl (i32.const 0) (i32.const 3))
      (i64.add (i64.load (i32.shl (i32.const 0) (i32.const 3))) (i64.const 1)))
    (drop (call $grow (i32.const 1)))
    (i64.store (i32.shl (local.get 0) (i32.const 3)) (local.get 1))
    (i64.load (i32.shl (i32.const 0) (i32.const 3)))))
"""


def _shared_run(engine: str) -> list:
    owner = Instance(parse_wat(OWNER_WAT), engine=engine)
    user = Instance(
        parse_wat(USER_WAT), engine=engine,
        imports={"env": {"mem": owner.memory, "grow": exported_functions(owner)["grow"]}},
    )
    assert user.memory is owner.memory
    out = []
    for page in (1, 2, 3):  # the third grow fails: the write traps
        index = page * PAGE_SIZE // 8
        out.append(_outcome(user, "fill", (index, 0x1122334455667788 + page)))
        out.append(_outcome(owner, "get", (index,)))
    return out


def test_memory_shared_through_an_import(byte_order):
    expected, got = (_shared_run(engine) for engine in ENGINES)
    assert got == expected
    assert expected[0][0] == 1 and expected[1][0] == 0x1122334455667789
    end = 3 * PAGE_SIZE
    assert expected[5][0] == ("trap", f"read of 8 bytes at {end} out of bounds ({end})")
