"""The WebAssembly MVP instruction set: opcodes, immediates and metadata.

Every instruction the parser, validator, binary codec, interpreter and
instrumentation passes handle is declared here in a single table so the
pieces cannot drift apart.  The table covers the full MVP: control flow,
parametric and variable instructions, memory access, constants, comparisons,
numeric operators and conversions — 172 opcodes in total, of which 127 are
plain (non-control, non-memory) instructions matching the count used in the
paper's Fig. 7 microbenchmark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ImmKind(enum.Enum):
    """Kinds of immediate operands an instruction carries."""

    NONE = "none"
    BLOCKTYPE = "blocktype"  # block/loop/if result type
    DEPTH = "depth"  # br, br_if: relative label depth
    BRTABLE = "brtable"  # br_table: (depths tuple, default depth)
    FUNC = "func"  # call: function index
    TYPE = "type"  # call_indirect: type index
    LOCAL = "local"  # local.get/set/tee
    GLOBAL = "global"  # global.get/set
    MEMARG = "memarg"  # loads/stores: (align, offset)
    MEMORY = "memory"  # memory.size/grow: reserved zero byte
    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    F64 = "f64"


class Category(enum.Enum):
    """Coarse instruction category used by cost models and instrumentation."""

    CONTROL = "control"
    PARAMETRIC = "parametric"
    VARIABLE = "variable"
    MEMORY = "memory"
    CONST = "const"
    COMPARISON = "comparison"
    NUMERIC = "numeric"
    CONVERSION = "conversion"


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one instruction."""

    name: str
    opcode: int
    imm: ImmKind
    category: Category


def _ops() -> list[OpInfo]:
    ops: list[OpInfo] = []

    def add(name: str, opcode: int, imm: ImmKind, category: Category) -> None:
        ops.append(OpInfo(name, opcode, imm, category))

    C, P, V, M = Category.CONTROL, Category.PARAMETRIC, Category.VARIABLE, Category.MEMORY
    K, CMP, N, CV = Category.CONST, Category.COMPARISON, Category.NUMERIC, Category.CONVERSION

    # Control instructions.
    add("unreachable", 0x00, ImmKind.NONE, C)
    add("nop", 0x01, ImmKind.NONE, C)
    add("block", 0x02, ImmKind.BLOCKTYPE, C)
    add("loop", 0x03, ImmKind.BLOCKTYPE, C)
    add("if", 0x04, ImmKind.BLOCKTYPE, C)
    add("else", 0x05, ImmKind.NONE, C)
    add("end", 0x0B, ImmKind.NONE, C)
    add("br", 0x0C, ImmKind.DEPTH, C)
    add("br_if", 0x0D, ImmKind.DEPTH, C)
    add("br_table", 0x0E, ImmKind.BRTABLE, C)
    add("return", 0x0F, ImmKind.NONE, C)
    add("call", 0x10, ImmKind.FUNC, C)
    add("call_indirect", 0x11, ImmKind.TYPE, C)

    # Parametric instructions.
    add("drop", 0x1A, ImmKind.NONE, P)
    add("select", 0x1B, ImmKind.NONE, P)

    # Variable instructions.
    add("local.get", 0x20, ImmKind.LOCAL, V)
    add("local.set", 0x21, ImmKind.LOCAL, V)
    add("local.tee", 0x22, ImmKind.LOCAL, V)
    add("global.get", 0x23, ImmKind.GLOBAL, V)
    add("global.set", 0x24, ImmKind.GLOBAL, V)

    # Memory instructions.
    loads = [
        "i32.load", "i64.load", "f32.load", "f64.load",
        "i32.load8_s", "i32.load8_u", "i32.load16_s", "i32.load16_u",
        "i64.load8_s", "i64.load8_u", "i64.load16_s", "i64.load16_u",
        "i64.load32_s", "i64.load32_u",
    ]
    for i, name in enumerate(loads):
        add(name, 0x28 + i, ImmKind.MEMARG, M)
    stores = [
        "i32.store", "i64.store", "f32.store", "f64.store",
        "i32.store8", "i32.store16",
        "i64.store8", "i64.store16", "i64.store32",
    ]
    for i, name in enumerate(stores):
        add(name, 0x36 + i, ImmKind.MEMARG, M)
    add("memory.size", 0x3F, ImmKind.MEMORY, M)
    add("memory.grow", 0x40, ImmKind.MEMORY, M)

    # Constants.
    add("i32.const", 0x41, ImmKind.I32, K)
    add("i64.const", 0x42, ImmKind.I64, K)
    add("f32.const", 0x43, ImmKind.F32, K)
    add("f64.const", 0x44, ImmKind.F64, K)

    # Comparisons.
    i_cmps = ["eqz", "eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u", "ge_s", "ge_u"]
    for i, suffix in enumerate(i_cmps):
        add(f"i32.{suffix}", 0x45 + i, ImmKind.NONE, CMP)
    for i, suffix in enumerate(i_cmps):
        add(f"i64.{suffix}", 0x50 + i, ImmKind.NONE, CMP)
    f_cmps = ["eq", "ne", "lt", "gt", "le", "ge"]
    for i, suffix in enumerate(f_cmps):
        add(f"f32.{suffix}", 0x5B + i, ImmKind.NONE, CMP)
    for i, suffix in enumerate(f_cmps):
        add(f"f64.{suffix}", 0x61 + i, ImmKind.NONE, CMP)

    # Integer numeric operators.
    i_ops = [
        "clz", "ctz", "popcnt", "add", "sub", "mul", "div_s", "div_u",
        "rem_s", "rem_u", "and", "or", "xor", "shl", "shr_s", "shr_u",
        "rotl", "rotr",
    ]
    for i, suffix in enumerate(i_ops):
        add(f"i32.{suffix}", 0x67 + i, ImmKind.NONE, N)
    for i, suffix in enumerate(i_ops):
        add(f"i64.{suffix}", 0x79 + i, ImmKind.NONE, N)

    # Float numeric operators.
    f_ops = [
        "abs", "neg", "ceil", "floor", "trunc", "nearest", "sqrt",
        "add", "sub", "mul", "div", "min", "max", "copysign",
    ]
    for i, suffix in enumerate(f_ops):
        add(f"f32.{suffix}", 0x8B + i, ImmKind.NONE, N)
    for i, suffix in enumerate(f_ops):
        add(f"f64.{suffix}", 0x99 + i, ImmKind.NONE, N)

    # Conversions.
    conversions = [
        "i32.wrap_i64", "i32.trunc_f32_s", "i32.trunc_f32_u",
        "i32.trunc_f64_s", "i32.trunc_f64_u",
        "i64.extend_i32_s", "i64.extend_i32_u",
        "i64.trunc_f32_s", "i64.trunc_f32_u",
        "i64.trunc_f64_s", "i64.trunc_f64_u",
        "f32.convert_i32_s", "f32.convert_i32_u",
        "f32.convert_i64_s", "f32.convert_i64_u", "f32.demote_f64",
        "f64.convert_i32_s", "f64.convert_i32_u",
        "f64.convert_i64_s", "f64.convert_i64_u", "f64.promote_f32",
        "i32.reinterpret_f32", "i64.reinterpret_f64",
        "f32.reinterpret_i32", "f64.reinterpret_i64",
    ]
    for i, name in enumerate(conversions):
        add(name, 0xA7 + i, ImmKind.NONE, CV)

    return ops


#: All instructions, ordered by opcode.
OPCODES: tuple[OpInfo, ...] = tuple(sorted(_ops(), key=lambda o: o.opcode))

#: Lookup tables.
INSTRUCTIONS_BY_NAME: dict[str, OpInfo] = {op.name: op for op in OPCODES}
INSTRUCTIONS_BY_OPCODE: dict[int, OpInfo] = {op.opcode: op for op in OPCODES}

#: Names of instructions that terminate a basic block (for the CFG builder).
BLOCK_TERMINATORS: frozenset[str] = frozenset(
    {"br", "br_if", "br_table", "return", "unreachable", "if", "else", "end",
     "block", "loop"}
)

#: Instructions that end a straight-line segment, the unit of the engines'
#: ``record_segment`` profiling and of the compile engine's batched charges:
#: every control transfer (a segment may not span a jump source or target)
#: plus ``memory.grow``, whose ``grow_history`` entries record the exact
#: instruction count at grow time.
SEGMENT_BARRIERS: frozenset[str] = frozenset(
    {"block", "loop", "if", "else", "end", "br", "br_if", "br_table",
     "return", "call", "call_indirect", "unreachable", "memory.grow"}
)

#: Non-control instructions that can raise a runtime :class:`Trap`: memory
#: accesses (out-of-bounds), integer division/remainder (zero divisor or
#: overflow) and float-to-int truncation (NaN or overflow).  The compile
#: engine tracks the in-segment position of these so a mid-segment trap can
#: be attributed to the exact instruction (visit counts stay precise).
TRAPPING_INSTRUCTIONS: frozenset[str] = frozenset(
    {op.name for op in _ops() if op.category is Category.MEMORY}
    | {f"{p}.{s}" for p in ("i32", "i64") for s in ("div_s", "div_u", "rem_s", "rem_u")}
    | {name for name in (f"{p}.trunc_f{w}_{sg}" for p in ("i32", "i64")
                         for w in ("32", "64") for sg in ("s", "u"))}
)

#: Plain computational instructions: constants, comparisons, numeric
#: operators and conversions — excluding control flow, memory accesses and
#: administrative (variable/parametric) instructions.  Exactly the 127
#: instructions of the paper's Fig. 7 microbenchmark.
PLAIN_INSTRUCTIONS: tuple[str, ...] = tuple(
    op.name
    for op in OPCODES
    if op.category in (Category.CONST, Category.COMPARISON, Category.NUMERIC, Category.CONVERSION)
)


@dataclass(frozen=True)
class Instr:
    """One instruction in a function body: a name plus immediate operands.

    Function bodies are *flat* sequences (as in the binary format): structured
    instructions (``block``/``loop``/``if``) are paired with explicit ``end``
    (and optional ``else``) markers rather than nesting child lists.  This
    representation makes instrumentation (inserting counter updates at precise
    points) straightforward.
    """

    name: str
    args: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.name not in INSTRUCTIONS_BY_NAME:
            raise ValueError(f"unknown instruction {self.name!r}")

    @property
    def info(self) -> OpInfo:
        return INSTRUCTIONS_BY_NAME[self.name]

    def __repr__(self) -> str:  # compact form for test failure output
        if not self.args:
            return f"Instr({self.name})"
        return f"Instr({self.name} {' '.join(map(str, self.args))})"
