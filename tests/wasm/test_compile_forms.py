"""Differential pinning of the compile engine's specialised emission forms.

:mod:`repro.wasm.compile_engine` does not translate every instruction the
one way the predecode reference runs it.  Signed compares flip the sign bit
instead of converting, ``eqz`` of a compare flips the compare, a literal
divisor becomes inline arithmetic, an aligned access indexes a typed view
of memory and any other leaves its bounds check to ``struct``, and
wrapping arithmetic is masked once, where a canonical value is needed.
Each case here runs on ``compile`` and on
``predecode`` and requires the same value, the same :class:`Trap` text and
byte-identical :class:`ExecutionStats` after every call, at the operand
values where those forms could go wrong: the sign boundary, ``INT_MIN``
and ``-1`` divisors, the last bytes of memory before and after a
``memory.grow``, and unreduced chains at the wrap boundary.
"""

from __future__ import annotations

import ast
import math
import re
import struct

import pytest

from repro.instrument import instrument_module
from repro.wasm.compile_engine import _module_has_memory, _Translator
from repro.wasm.costmodel import CostModel
from repro.wasm.interpreter import Instance, Trap
from repro.wasm.memory import PAGE_SIZE
from repro.wasm.wat_parser import parse_wat
from repro.workloads import POLYBENCH_KERNELS

ENGINES = ("predecode", "compile")

#: per integer type: 0, 1, INT_MAX, INT_MIN and -1, unsigned
BOUNDARY = {
    "i32": [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF],
    "i64": [0, 1, 0x7FFFFFFFFFFFFFFF, 0x8000000000000000, 0xFFFFFFFFFFFFFFFF],
}


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
    return value, _stats_record(instance.stats)


def _differential(wat: str, calls: list[tuple[str, tuple]]) -> list:
    """Run ``calls`` in order on one instance per engine; every outcome and
    the stats after it must match.  Returns the reference outcomes."""
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


# ---------------------------------------------------------------------------
# Signed compares, and eqz of them
# ---------------------------------------------------------------------------


def _compare_module(t: str, op: str) -> str:
    cmp_vv = f"({t}.{op} (local.get 0) (local.get 1))"
    funcs = [
        f'(func (export "vv") (param {t} {t}) (result i32) {cmp_vv})',
        f'(func (export "z1") (param {t} {t}) (result i32) (i32.eqz {cmp_vv}))',
        f'(func (export "z2") (param {t} {t}) (result i32) (i32.eqz (i32.eqz {cmp_vv})))',
        f'(func (export "z3") (param {t} {t}) (result i32)'
        f" (i32.eqz (i32.eqz (i32.eqz {cmp_vv}))))",
        f'(func (export "sel") (param {t} {t}) (result i32)'
        f" (select (i32.const 10) (i32.const 20) {cmp_vv}))",
        f'(func (export "selz") (param {t} {t}) (result i32)'
        f" (select (i32.const 10) (i32.const 20) (i32.eqz {cmp_vv})))",
    ]
    for k, lit in enumerate(BOUNDARY[t]):
        funcs.append(
            f'(func (export "vl{k}") (param {t}) (result i32)'
            f" ({t}.{op} (local.get 0) ({t}.const {lit})))"
        )
        funcs.append(
            f'(func (export "lv{k}") (param {t}) (result i32)'
            f" (i32.eqz ({t}.{op} ({t}.const {lit}) (local.get 0))))"
        )
    return "(module " + "\n".join(funcs) + ")"


@pytest.mark.parametrize("t", ["i32", "i64"])
@pytest.mark.parametrize("op", ["lt_s", "gt_s", "le_s", "ge_s"])
def test_signed_compare_and_eqz(t, op):
    values = BOUNDARY[t]
    calls = []
    for a in values:
        for b in values:
            calls += [(fn, (a, b)) for fn in ("vv", "z1", "z2", "z3", "sel", "selz")]
        calls += [(f"{side}{k}", (a,)) for k in range(len(values)) for side in ("vl", "lv")]
    outcomes = _differential(_compare_module(t, op), calls)
    # the reference itself: INT_MIN < 0 < INT_MAX as signed values
    bits = 32 if t == "i32" else 64
    lt = {
        (a, b): (a - (a >> (bits - 1) << bits)) < (b - (b >> (bits - 1) << bits))
        for a in values for b in values
    }
    vv = [out[0] for (fn, _), out in zip(calls, outcomes) if fn == "vv"]
    pairs = [args for fn, args in calls if fn == "vv"]
    expected = {
        "lt_s": lambda a, b: lt[a, b],
        "gt_s": lambda a, b: lt[b, a],
        "le_s": lambda a, b: not lt[b, a],
        "ge_s": lambda a, b: not lt[a, b],
    }[op]
    assert vv == [int(expected(a, b)) for a, b in pairs]


def test_eqz_chains_of_plain_values():
    wat = """
    (module
      (func (export "z1") (param i32) (result i32) (i32.eqz (local.get 0)))
      (func (export "z2") (param i32) (result i32) (i32.eqz (i32.eqz (local.get 0))))
      (func (export "z3") (param i32) (result i32)
        (i32.eqz (i32.eqz (i32.eqz (local.get 0)))))
      (func (export "z64") (param i64) (result i32)
        (i32.eqz (i64.eqz (local.get 0)))))
    """
    calls = [(fn, (v,)) for v in BOUNDARY["i32"] for fn in ("z1", "z2", "z3")]
    calls += [("z64", (v,)) for v in BOUNDARY["i64"]]
    outcomes = _differential(wat, calls)
    assert [out[0] for out in outcomes[:3]] == [1, 0, 1]  # at 0


# ---------------------------------------------------------------------------
# Literal divisors
# ---------------------------------------------------------------------------


def _divisors(t: str) -> list[int]:
    bits = 32 if t == "i32" else 64
    return [1, -1, 7, -7, -(1 << (bits - 1)), 0]


def _dividends(t: str) -> list[int]:
    bits = 32 if t == "i32" else 64
    int_min, int_max = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return [0, 1, 6, 7, 8, -1, -6, -7, -8, 100, -100, int_min, int_min + 1, int_max]


@pytest.mark.parametrize("t", ["i32", "i64"])
@pytest.mark.parametrize("op", ["div_s", "div_u", "rem_s", "rem_u"])
def test_divide_by_literal(t, op):
    divisors = _divisors(t)
    funcs = [
        f'(func (export "d{k}") (param {t}) (result {t})'
        f" ({t}.{op} (local.get 0) ({t}.const {c})))"
        for k, c in enumerate(divisors)
    ]
    # the same divisors arriving as values: the general, helper-call path
    funcs.append(
        f'(func (export "dv") (param {t} {t}) (result {t})'
        f" ({t}.{op} (local.get 0) (local.get 1)))"
    )
    wat = "(module " + "\n".join(funcs) + ")"
    calls = []
    for a in _dividends(t):
        for k, c in enumerate(divisors):
            calls += [(f"d{k}", (a,)), ("dv", (a, c))]
    outcomes = _differential(wat, calls)
    # literal and value divisors agree with each other, too
    by_literal, by_value = outcomes[0::2], outcomes[1::2]
    assert [out[0] for out in by_literal] == [out[0] for out in by_value]
    traps = {out[0][1] for out in outcomes if isinstance(out[0], tuple)}
    expected = {"integer divide by zero"}
    if op == "div_s":
        expected.add("integer overflow")  # INT_MIN / -1
    assert traps == expected


def test_division_inside_a_longer_block_rolls_back_exactly():
    """A trapping ``div_s`` by -1 between memory accesses: the batch's
    rollback must charge the prefix only."""
    wat = """
    (module (memory 1)
      (func (export "f") (param i32) (result i32)
        (i32.store (i32.const 0) (local.get 0))
        (i32.store (i32.const 4)
          (i32.div_s (i32.load (i32.const 0)) (i32.const -1)))
        (i32.rem_s (i32.load (i32.const 4)) (i32.const 7))))
    """
    calls = [("f", (v,)) for v in BOUNDARY["i32"] + [-13, 13]]
    outcomes = _differential(wat, calls)
    assert outcomes[3][0] == ("trap", "integer overflow")


@pytest.mark.parametrize("t", ["f32", "f64"])
def test_float_divide_by_literal(t):
    literals = [2.0, -0.5, 3.0, 1e-30, -7.25]
    funcs = [
        f'(func (export "d{k}") (param {t}) (result {t})'
        f" ({t}.div (local.get 0) ({t}.const {lit!r})))"
        for k, lit in enumerate(literals)
    ]
    funcs += [
        f'(func (export "z") (param {t}) (result {t})'
        f" ({t}.div (local.get 0) ({t}.const 0.0)))",
        f'(func (export "nz") (param {t}) (result {t})'
        f" ({t}.div (local.get 0) ({t}.const -0.0)))",
    ]
    wat = "(module " + "\n".join(funcs) + ")"
    dividends = [1.0, -3.5, 0.0, -0.0, math.inf, -math.inf, math.nan, 1e38, 1e308]
    calls = [
        (fn, (a,))
        for a in dividends
        for fn in [f"d{k}" for k in range(len(literals))] + ["z", "nz"]
    ]
    _differential(wat, calls)


def test_function_32_does_not_shadow_the_f32_rounding_helper():
    """Generated functions are named ``_f{index}`` in one namespace per
    instance: the 33rd must not replace the helper f32 arithmetic rounds
    through."""
    funcs = [f"(func (result i32) (i32.const {k}))" for k in range(32)]
    funcs.append(
        '(func (export "half") (param f32) (result f32)'
        " (f32.mul (local.get 0) (f32.const 0.5)))"
    )
    wat = "(module " + "\n".join(funcs) + ")"
    outcomes = _differential(wat, [("half", (3.0,)), ("half", (1e-45,))])
    assert outcomes[0][0] == struct.pack("<d", 1.5)


# ---------------------------------------------------------------------------
# Globals read pending, like locals
# ---------------------------------------------------------------------------


def test_global_read_outlives_a_write_to_it():
    """A pending ``global.get`` is pinned before a ``global.set`` of the
    same global; the counter increment is one statement."""
    wat = """
    (module
      (global $g (mut i32) (i32.const 5))
      (global $c (mut i64) (i64.const 0))
      (func (export "swap") (param i32) (result i32)
        (global.get $g)
        (global.set $g (local.get 0)))
      (func (export "count") (param i64) (result i64)
        (global.set $c (i64.add (global.get $c) (i64.const 7)))
        (global.get $c)
        (global.set $c (i64.add (global.get $c) (local.get 0)))
        (i64.sub (global.get $c))))
    """
    calls = [("swap", (v,)) for v in (9, 0xFFFFFFFF, 3)]
    calls += [("count", (v,)) for v in (1, -1, 0x7FFFFFFFFFFFFFFF)]
    outcomes = _differential(wat, calls)
    assert [out[0] for out in outcomes[:3]] == [5, 9, -1]
    assert outcomes[3][0] == -1  # c - (c + 1)


# ---------------------------------------------------------------------------
# Memory accesses bounds-checked by struct
# ---------------------------------------------------------------------------

#: (instruction, access width in bytes, value type)
ACCESSES = [
    ("i32.load", 4, "i32"), ("i32.load8_s", 1, "i32"), ("i32.load8_u", 1, "i32"),
    ("i32.load16_s", 2, "i32"), ("i32.load16_u", 2, "i32"),
    ("i64.load", 8, "i64"), ("i64.load8_s", 1, "i64"), ("i64.load8_u", 1, "i64"),
    ("i64.load16_s", 2, "i64"), ("i64.load16_u", 2, "i64"),
    ("i64.load32_s", 4, "i64"), ("i64.load32_u", 4, "i64"),
    ("f32.load", 4, "f32"), ("f64.load", 8, "f64"),
    ("i32.store", 4, "i32"), ("i32.store8", 1, "i32"), ("i32.store16", 2, "i32"),
    ("i64.store", 8, "i64"), ("i64.store8", 1, "i64"), ("i64.store16", 2, "i64"),
    ("i64.store32", 4, "i64"), ("f32.store", 4, "f32"), ("f64.store", 8, "f64"),
]

OFFSET = 16


def _access_module(instr: str, t: str) -> str:
    value = f"({t}.const -3)" if t[0] == "i" else f"({t}.const -2.5)"

    def access(offset: str) -> str:
        if ".store" in instr:
            # a load first, so the trapping store rolls a memory prefix back
            return (
                f"(drop (i32.load (i32.const 0)))"
                f" ({instr}{offset} (local.get 0) {value}) (i32.const 1)"
            )
        return f"(drop ({instr}{offset} (local.get 0))) (i32.const 1)"

    return f"""
    (module (memory 1 3)
      (func (export "acc") (param i32) (result i32) {access("")})
      (func (export "off") (param i32) (result i32) {access(f" offset={OFFSET}")})
      (func (export "grow") (result i32) (memory.grow (i32.const 1))))
    """


@pytest.mark.parametrize("instr,width,t", ACCESSES, ids=[a[0] for a in ACCESSES])
def test_out_of_bounds_access(instr, width, t):
    calls = []
    for pages in (1, 2):
        end = pages * PAGE_SIZE
        for address in (end - width, end - width + 1, end):
            calls += [("acc", (address,)), ("off", (address - OFFSET,))]
        calls.append(("off", (0xFFFFFFFF,)))  # base + offset past 2**32
        calls.append(("grow", ()))
    outcomes = _differential(_access_module(instr, t), calls)
    kind = "write" if ".store" in instr else "read"
    traps = [out[0][1] for out in outcomes if isinstance(out[0], tuple)]
    assert traps[0] == f"{kind} of {width} bytes at {PAGE_SIZE - width + 1} out of bounds (65536)"
    assert traps[-1] == (
        f"{kind} of {width} bytes at {0xFFFFFFFF + OFFSET} out of bounds (131072)"
    )
    assert len(traps) == 10  # two past-the-end addresses x two forms x two sizes + 2


def test_memory_instruction_without_a_memory_traps_where_it_stands():
    """An unvalidated module without memory: the ``no memory`` trap is a
    trap point, so the rest of its block is not charged."""
    wat = """
    (module
      (func (export "f") (param i32) (result i32)
        (drop (i32.add (local.get 0) (i32.const 1)))
        (i32.add (i32.load (local.get 0)) (i32.const 3))))
    """
    [(value, _stats)] = _differential(wat, [("f", (4,))])
    assert value == ("trap", "no memory")


# ---------------------------------------------------------------------------
# What the fast path no longer contains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", [None, "loop-based"])
def test_generated_code_has_no_sign_helpers_or_length_tests(level):
    for spec in POLYBENCH_KERNELS.values():
        module = spec.compile()
        if level is not None:
            module = instrument_module(module.clone(), level).module
        for index in range(len(module.funcs)):
            source = _Translator(module, index, None, _module_has_memory(module)).translate()[0]
            assert "_sg32(" not in source and "_sg64(" not in source
            assert "> len(_mb)" not in source
            assert not re.search(r"_trunc_(div|rem)\([^,]+, -?\d+\)", source)
            assert "// 1)" not in source
            assert not re.search(r"_G\[\d+\]\.value", source)


# ---------------------------------------------------------------------------
# Wrap-around masks applied once, where a canonical value is required
# ---------------------------------------------------------------------------

#: per integer type: chains of ops that commute with reduction mod 2**bits
#: and are left unreduced, over (param t t); with the arguments below they
#: cross the wrap boundary, up and down
CHAINS = {
    "i32": {
        "add": "(i32.add (local.get 0) (local.get 1))",
        "sub": "(i32.sub (local.get 0) (local.get 1))",
        "mul": "(i32.mul (local.get 0) (local.get 1))",
        "shl": "(i32.shl (local.get 0) (i32.const 31))",
        "bits": "(i32.xor (i32.or (i32.sub (local.get 0) (local.get 1)) (i32.const 1))"
        " (i32.and (i32.mul (local.get 0) (local.get 1)) (i32.sub (local.get 1)"
        " (local.get 0))))",
        "and": "(i32.and (i32.mul (local.get 0) (local.get 1)) (i32.sub (local.get 1)"
        " (local.get 0)))",
        # an i64 chain wrapped to i32
        "wrap": "(i32.wrap_i64 (i64.mul (i64.add (i64.extend_i32_u (local.get 0))"
        " (i64.const 0xffffffff)) (i64.extend_i32_u (local.get 1))))",
    },
    "i64": {
        "add": "(i64.add (local.get 0) (local.get 1))",
        "sub": "(i64.sub (local.get 0) (local.get 1))",
        "mul": "(i64.mul (local.get 0) (local.get 1))",
        "shl": "(i64.shl (local.get 0) (i64.const 63))",
        "bits": "(i64.xor (i64.or (i64.sub (local.get 0) (local.get 1)) (i64.const 1))"
        " (i64.and (i64.mul (local.get 0) (local.get 1)) (i64.sub (local.get 1)"
        " (local.get 0))))",
        "and": "(i64.and (i64.mul (local.get 0) (local.get 1)) (i64.sub (local.get 1)"
        " (local.get 0)))",
        # i32 chains extended to i64
        "ext_u": "(i64.add (i64.extend_i32_u (i32.sub (i32.wrap_i64 (local.get 0))"
        " (i32.wrap_i64 (local.get 1)))) (local.get 1))",
        "ext_s": "(i64.mul (i64.extend_i32_s (i32.add (i32.wrap_i64 (local.get 0))"
        " (i32.wrap_i64 (local.get 1)))) (local.get 0))",
    },
}

WRAP_ARGS = {
    "i32": [
        (0x7FFFFFFF, 1), (0xFFFFFFFF, 0xFFFFFFFF), (0, 1), (0xFFFFFFFF, 1),
        (1, 0), (0x80000000, 0x80000000), (3, 0xFFFFFFFD), (5, 3),
        # a product past 2**32 and a negative difference: their unreduced
        # `and` keeps bit 33
        (0x20000, 0x10000),
    ],
    "i64": [
        (0x7FFFFFFFFFFFFFFF, 1), (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF), (0, 1),
        (0xFFFFFFFFFFFFFFFF, 1), (1, 0), (0x8000000000000000, 0x8000000000000000),
        (0x7FFFFFFF, 1), (0xFFFFFFFF, 0xFFFFFFFF), (3, 5), (1 << 33, 1 << 32),
    ],
}

#: every canonical consumer, per integer type: (result type, body with the
#: unreduced chain at X; locals 2 and 3 are scratch of the chain's type)
CONSUMERS = {
    "i32": {
        "local.set": ("i32", "(local.set 2 X) (local.get 2)"),
        "local.tee": ("i32", "(i32.add (local.tee 2 X) (i32.const 0))"),
        "global.set": ("i32", "(global.set $g32 X) (global.get $g32)"),
        # the pending chain reads local 0, which is then written: pinned
        # into a temporary
        "temporary": ("i32", "X (local.set 0 (i32.const 9)) (i32.add (local.get 0))"),
        "register": ("i32", "X"),
        "block result": ("i32", "(block (result i32) X) (i32.const 1) (i32.add)"),
        "eq": ("i32", "(i32.eq X (i32.const 0))"),
        "ne": ("i32", "(i32.ne (i32.const 0) X)"),
        "lt_u": ("i32", "(i32.lt_u X (i32.const 2))"),
        "ge_u": ("i32", "(i32.ge_u X (local.get 0))"),
        "lt_s": ("i32", "(i32.lt_s X (i32.const 0))"),
        "gt_s": ("i32", "(i32.gt_s (local.get 1) X)"),
        "eqz": ("i32", "(i32.eqz X)"),
        "select condition": ("i32", "(select (i32.const 10) (i32.const 20) X)"),
        "select value": ("i32", "(select X (i32.const 20) (local.get 1))"),
        "br_if": ("i32", "(block $b (result i32) (br_if $b (i32.const 10) X)"
                  " (drop) (i32.const 20))"),
        "if": ("i32", "(if (result i32) X (then (i32.const 10)) (else (i32.const 20)))"),
        "load base": ("i32", "(i32.load8_u X)"),
        "load base+offset": ("i32", "(i32.load16_s offset=16 X)"),
        "store base": ("i32", "(i32.store offset=4 X (i32.const 7)) (i32.load (i32.const 4))"),
        "store value": ("i32", "(i32.store (i32.const 0) X) (i32.load (i32.const 0))"),
        "store8 value": ("i32", "(i32.store8 (i32.const 0) X) (i32.load (i32.const 0))"),
        "shr_u": ("i32", "(i32.shr_u X (i32.const 1))"),
        "shr_s": ("i32", "(i32.shr_s X (i32.const 3))"),
        # results left unreduced themselves, consumed by an unsigned shift
        "shr_s result": ("i32", "(i32.shr_u (i32.shr_s X (i32.const 3)) (i32.const 1))"),
        "div_s result": ("i32", "(i32.shr_u (i32.div_s X (i32.const -3)) (i32.const 1))"),
        "rem_s result": ("i32", "(i32.shr_u (i32.rem_s X (i32.const 7)) (i32.const 1))"),
        "extend_s result": ("i64", "(i64.shr_u (i64.extend_i32_s X) (i64.const 1))"),
        "shift count": ("i32", "(i32.shr_u (i32.const -1) X)"),
        "div_u": ("i32", "(i32.div_u X (i32.const 3))"),
        "rem_u": ("i32", "(i32.rem_u X (local.get 1))"),
        "div_s": ("i32", "(i32.div_s X (i32.const -3))"),
        "div_s -1": ("i32", "(i32.div_s X (i32.const -1))"),
        "rem_s": ("i32", "(i32.rem_s X (i32.const 7))"),
        "div_s by value": ("i32", "(i32.div_s X (local.get 1))"),
        "divisor": ("i32", "(i32.div_s (local.get 1) X)"),
        "divisor_u": ("i32", "(i32.div_u (local.get 0) X)"),
        "rotl": ("i32", "(i32.rotl X (i32.const 5))"),
        "rotr": ("i32", "(i32.rotr X (local.get 1))"),
        "clz": ("i32", "(i32.clz X)"),
        "ctz": ("i32", "(i32.ctz X)"),
        "popcnt": ("i32", "(i32.popcnt X)"),
        "extend_s": ("i64", "(i64.extend_i32_s X)"),
        "extend_u": ("i64", "(i64.extend_i32_u X)"),
        "convert_s": ("f64", "(f64.convert_i32_s X)"),
        "convert_u": ("f32", "(f32.convert_i32_u X)"),
        "reinterpret": ("f32", "(f32.reinterpret_i32 X)"),
        "call argument": ("i32", "(call $id32 X)"),
    },
    "i64": {
        "local.set": ("i64", "(local.set 2 X) (local.get 2)"),
        "local.tee": ("i64", "(i64.add (local.tee 2 X) (i64.const 0))"),
        "global.set": ("i64", "(global.set $g64 X) (global.get $g64)"),
        "temporary": ("i64", "X (local.set 0 (i64.const 9)) (i64.add (local.get 0))"),
        "register": ("i64", "X"),
        "block result": ("i64", "(block (result i64) X) (i64.const 1) (i64.add)"),
        "eq": ("i32", "(i64.eq X (i64.const 0))"),
        "ne": ("i32", "(i64.ne (i64.const 0) X)"),
        "lt_u": ("i32", "(i64.lt_u X (i64.const 2))"),
        "lt_s": ("i32", "(i64.lt_s X (i64.const 0))"),
        "gt_s": ("i32", "(i64.gt_s (local.get 1) X)"),
        "eqz": ("i32", "(i64.eqz X)"),
        "select value": ("i64", "(select X (i64.const 20) (i32.wrap_i64 (local.get 1)))"),
        "load base": ("i32", "(i32.load8_u (i32.wrap_i64 X))"),
        "store value": ("i64", "(i64.store (i32.const 0) X) (i64.load (i32.const 0))"),
        "store32 value": ("i64", "(i64.store32 (i32.const 0) X) (i64.load (i32.const 0))"),
        "wrap": ("i32", "(i32.wrap_i64 X)"),
        "shr_u": ("i64", "(i64.shr_u X (i64.const 1))"),
        "shr_s": ("i64", "(i64.shr_s X (i64.const 3))"),
        "div_s result": ("i64", "(i64.shr_u (i64.div_s X (i64.const -3)) (i64.const 1))"),
        "div_u": ("i64", "(i64.div_u X (i64.const 3))"),
        "rem_u": ("i64", "(i64.rem_u X (local.get 1))"),
        "div_s": ("i64", "(i64.div_s X (i64.const -3))"),
        "rem_s": ("i64", "(i64.rem_s X (i64.const 7))"),
        "rem_s by value": ("i64", "(i64.rem_s X (local.get 1))"),
        "divisor": ("i64", "(i64.rem_s (local.get 1) X)"),
        "divisor_u": ("i64", "(i64.rem_u (local.get 0) X)"),
        "rotl": ("i64", "(i64.rotl X (i64.const 5))"),
        "rotr": ("i64", "(i64.rotr X (local.get 1))"),
        "clz": ("i64", "(i64.clz X)"),
        "ctz": ("i64", "(i64.ctz X)"),
        "popcnt": ("i64", "(i64.popcnt X)"),
        "convert_s": ("f64", "(f64.convert_i64_s X)"),
        "convert_u": ("f64", "(f64.convert_i64_u X)"),
        "reinterpret": ("f64", "(f64.reinterpret_i64 X)"),
        "call argument": ("i64", "(call $id64 X)"),
    },
}


def _wrap_module(t: str) -> tuple[str, list[str]]:
    funcs = [
        '(func $id32 (param i32) (result i32) (local.get 0))',
        '(func $id64 (param i64) (result i64) (local.get 0))',
    ]
    exports = []
    for cname, chain in CHAINS[t].items():
        for kname, (result, body) in CONSUMERS[t].items():
            export = f"{kname}/{cname}"
            exports.append(export)
            funcs.append(
                f'(func (export "{export}") (param {t} {t}) (result {result})'
                f" (local {t} {t}) {body.replace('X', chain)})"
            )
    wat = (
        "(module (memory 1) (global $g32 (mut i32) (i32.const 0))"
        " (global $g64 (mut i64) (i64.const 0))\n" + "\n".join(funcs) + ")"
    )
    return wat, exports


@pytest.mark.parametrize("t", ["i32", "i64"])
def test_every_canonical_consumer_of_an_unreduced_chain(t):
    """Each consumer that needs a canonical value gets the chain's one mask:
    value, trap text and stats match the reference at the wrap boundary."""
    wat, exports = _wrap_module(t)
    calls = [(export, args) for export in exports for args in WRAP_ARGS[t]]
    outcomes = _differential(wat, calls)
    # the boundary is really crossed: the chains' values wrap
    registers = [
        out[0] for (export, _args), out in zip(calls, outcomes) if export == "register/mul"
    ]
    assert registers[1] == 1  # (2**bits - 1) ** 2 wraps to 1
    # a memory base is reduced before the bounds check: (-1) + 1 wraps to
    # address 0, in bounds, where the unreduced 2**bits would trap
    loads = {
        args: out[0] for (export, args), out in zip(calls, outcomes)
        if export == "load base/add"
    }
    assert loads[(2**32 - 1, 1) if t == "i32" else (2**64 - 1, 1)] == 0


def _call_args(call: ast.Call) -> list[ast.expr]:
    """A memory access call's address (out of ``_a := ...``) and, for a
    store, its value."""
    args = [call.args[1].value] if isinstance(call.args[1], ast.NamedExpr) else []
    return args + list(call.args[2:])


def _nested_masks(expr: ast.expr) -> list[int]:
    """Masks applied to a value already masked to the same width."""
    found = []
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and isinstance(node.right, ast.Constant)
            and node.right.value in (0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF)
        ):
            for inner in ast.walk(node.left):
                if (
                    isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.BitAnd)
                    and isinstance(inner.right, ast.Constant)
                    and inner.right.value == node.right.value
                ):
                    found.append(node.right.value)
    return found


#: the struct calls of full-width f64 and i32 accesses
_FULL_WIDTH_STRUCT = {"_Lf8", "_Sf8", "_L4u", "_S4"}


@pytest.mark.parametrize("level", [None, "loop-based"])
def test_polybench_accesses_mask_each_value_once(level):
    """No address, view index or stored value masks a value already masked
    to the same width, no f64 or i32 access keeps the ``struct`` form (each
    indexes a typed view), and no generated source keeps a per-block
    profiler call or a list of batch counts."""
    accesses = 0
    for spec in POLYBENCH_KERNELS.values():
        module = spec.compile()
        if level is not None:
            module = instrument_module(module.clone(), level).module
        for index in range(len(module.funcs)):
            source = _Translator(module, index, None, _module_has_memory(module)).translate()[0]
            assert "_vp[" not in source and "record_segment" not in source
            for node in ast.walk(ast.parse(source)):
                if (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and re.fullmatch(r"_[LS](\d[su]?|f\d)", node.func.id)
                ):
                    assert node.func.id not in _FULL_WIDTH_STRUCT, ast.unparse(node)
                    accesses += 1
                    for expr in _call_args(node):
                        assert not _nested_masks(expr), ast.unparse(expr)
                elif _is_view(node):
                    accesses += 1
                    assert not _nested_masks(node.slice), ast.unparse(node)
                elif isinstance(node, ast.Assign) and _is_view(node.targets[0]):
                    assert not _nested_masks(node.value), ast.unparse(node)
    assert accesses > 300


def _is_view(node: ast.AST) -> bool:
    """A typed-view subscript: ``_vd[...]``, ``_vf[...]``, ``_vi[...]`` or
    ``_vq[...]``."""
    return (
        isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
        and node.value.id in ("_vd", "_vf", "_vi", "_vq")
    )


@pytest.mark.parametrize("op", ["rem_s", "div_s"])
def test_signed_result_is_not_resigned(op):
    """A ``div_s``/``rem_s`` by a literal leaves the signed value itself: a
    signed consumer (``convert_i32_s``) takes it without a mask and a
    second sign conversion, and the values still match the reference."""
    wat = f"""
    (module
      (func (export "f") (param i32) (result f64)
        (f64.convert_i32_s (i32.{op} (local.get 0) (i32.const 16)))))
    """
    source = _Translator(parse_wat(wat), 0, None, False).translate()[0]
    assert "- 0x80000000" not in source and "& 0xffffffff" not in source, source
    values = [0, 1, 17, 0x7FFFFFFF, 0x80000000, 0x80000011, 0xFFFFFFEF, 0xFFFFFFFF]
    _differential(wat, [("f", (v,)) for v in values])
