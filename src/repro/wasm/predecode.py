"""Pre-decoded threaded-dispatch engine: the semantics reference.

Every other engine is pinned against this one, so it is written to be
obviously right rather than fast: each instruction is charged and run one at
a time, in one loop, with one charge path.  A naive interpreter re-discovers
every instruction on every visit (a chain of string comparisons picks the
handler, immediates are unpacked from the :class:`Instr` tuple); this module
decodes each function body once at instantiation into a flat code array,
indexed by pc, with one entry per instruction:

* **operations** — ``(K_OP, name, cycles, op)`` for every non-control
  instruction, ``op`` a closure ``(stack, locals_) -> None`` pre-bound to
  its immediates, globals, the linear memory and the stats object
  (dispatch is one indirect call, no string compares);

* **control entries** — ``(kind, name, cycles, ...decoded)`` for
  block/loop/if/else/end/br/br_if/br_table/return/call/call_indirect/
  unreachable/memory.grow, with structure offsets from
  :func:`~repro.wasm.interpreter.build_structure_map` baked in.

The documented visit semantics — loop-header re-visit, ``end`` on every
exit, ``return`` skipping enclosing ``end``s — follow from executing the
entries in order.

**The reference order.**  At every instruction boundary the observable
effects happen in this order: (1) *capture* — if ``snapshot_at`` is set and
``executed >= snapshot_at``, suspend before the instruction is charged, so
a resumed run re-charges and re-runs it; (2) *charge* — bump its visit,
``executed`` and cycles; (3) *budget trap* — raise once ``executed >
max_instructions``; (4) *progress* — call ``progress_callback`` when
``executed`` is a multiple of ``progress_interval``.  Then the instruction
runs, so a trapping instruction stays charged.  The ``compile`` engine
batches its charges; where a boundary falls inside a batch, its slow path
charges in this order and runs each non-control instruction through this
module's closure for it (:func:`compile_simple`), so the two engines share
one per-instruction semantics.

**Segments** — maximal straight-line runs of non-control instructions
(everything outside :data:`~repro.wasm.instructions.SEGMENT_BARRIERS`) —
are the unit of ``record_segment`` profiling, as in the ``compile``
engine: entering a segment at its first instruction reports its start pc
and length to an active :class:`~repro.obs.profiler.Profiler`.

**Suspendable frames** — the engine runs on explicit frame state (``pc``,
value stack, locals, control tuples), so a capture raises
:class:`~repro.wasm.interpreter.CaptureUnwind` carrying engine-independent
:class:`~repro.wasm.interpreter.CapturedFrame` records (calls append their
``at_call`` frame as it passes), and ``exec_function(resume=...)``
re-enters such a frame at its pc.

The engine is selected with ``Instance(module, engine="predecode")`` or
``REPRO_WASM_ENGINE=predecode``; the default is ``compile``.  It also runs
the functions a ``compile`` instance's translator declines.  A differential
test pins it and ``compile`` to identical :class:`ExecutionStats` across
every workload in :mod:`repro.workloads`.
"""

from __future__ import annotations

import math
import struct
from typing import Callable

from repro.wasm.instructions import SEGMENT_BARRIERS, Instr
from repro.wasm.interpreter import (
    CapturedFrame,
    CaptureUnwind,
    Trap,
    _MASK32,
    _MASK64,
    _clz,
    _ctz,
    _f32,
    _float_max,
    _float_min,
    _nearest,
    _rotl,
    _rotr,
    _signed,
    _trunc_div,
    _trunc_rem,
    _trunc_to_int,
)
from repro.wasm.memory import MemoryAccessError

# ---------------------------------------------------------------------------
# Entry kinds (small ints compared in the dispatch loop — no string compares)
# ---------------------------------------------------------------------------

(
    K_OP,
    K_END,
    K_BLOCK,
    K_LOOP,
    K_IF,
    K_ELSE,
    K_BR,
    K_BR_IF,
    K_BR_TABLE,
    K_RETURN,
    K_CALL,
    K_CALL_INDIRECT,
    K_UNREACHABLE,
    K_GROW,
) = range(14)


class CompiledFunction:
    """The pre-decoded form of one defined function."""

    __slots__ = ("code", "n", "local_init", "n_results", "segments")

    def __init__(self, code, n, local_init, n_results, segments):
        self.code = code
        self.n = n
        self.local_init = local_init
        self.n_results = n_results
        #: start pc -> instruction count of every segment, for profiling
        self.segments = segments


# ---------------------------------------------------------------------------
# Shared handlers: immediates-free, state-free, non-trapping closures built
# once at import time and reused across all occurrences in all modules.
# ---------------------------------------------------------------------------


def _build_shared() -> dict[str, Callable]:
    h: dict[str, Callable] = {}

    def nop(stack, locals_):
        pass

    def drop(stack, locals_):
        stack.pop()

    def select(stack, locals_):
        cond = stack.pop()
        b = stack.pop()
        if cond:
            return
        stack[-1] = b

    h["nop"] = nop
    h["drop"] = drop
    h["select"] = select

    # -- integer ops, per width ------------------------------------------------
    for prefix, bits in (("i32", 32), ("i64", 64)):
        mask = (1 << bits) - 1
        sign_bit = 1 << (bits - 1)
        modulus = 1 << bits

        def make_int(mask=mask, sign_bit=sign_bit, modulus=modulus, bits=bits):
            ops: dict[str, Callable] = {}

            def add(stack, locals_):
                b = stack.pop()
                stack[-1] = (stack[-1] + b) & mask

            def sub(stack, locals_):
                b = stack.pop()
                stack[-1] = (stack[-1] - b) & mask

            def mul(stack, locals_):
                b = stack.pop()
                stack[-1] = (stack[-1] * b) & mask

            def and_(stack, locals_):
                b = stack.pop()
                stack[-1] &= b

            def or_(stack, locals_):
                b = stack.pop()
                stack[-1] |= b

            def xor(stack, locals_):
                b = stack.pop()
                stack[-1] ^= b

            def shl(stack, locals_):
                b = stack.pop()
                stack[-1] = (stack[-1] << (b % bits)) & mask

            def shr_u(stack, locals_):
                b = stack.pop()
                stack[-1] >>= b % bits

            def shr_s(stack, locals_):
                b = stack.pop()
                a = stack[-1]
                if a >= sign_bit:
                    a -= modulus
                stack[-1] = (a >> (b % bits)) & mask

            def rotl(stack, locals_):
                b = stack.pop()
                stack[-1] = _rotl(stack[-1], b, bits)

            def rotr(stack, locals_):
                b = stack.pop()
                stack[-1] = _rotr(stack[-1], b, bits)

            def eqz(stack, locals_):
                stack[-1] = 1 if stack[-1] == 0 else 0

            def eq(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] == b else 0

            def ne(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] != b else 0

            def lt_u(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] < b else 0

            def gt_u(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] > b else 0

            def le_u(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] <= b else 0

            def ge_u(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] >= b else 0

            def lt_s(stack, locals_):
                b = stack.pop()
                a = stack[-1]
                if a >= sign_bit:
                    a -= modulus
                if b >= sign_bit:
                    b -= modulus
                stack[-1] = 1 if a < b else 0

            def gt_s(stack, locals_):
                b = stack.pop()
                a = stack[-1]
                if a >= sign_bit:
                    a -= modulus
                if b >= sign_bit:
                    b -= modulus
                stack[-1] = 1 if a > b else 0

            def le_s(stack, locals_):
                b = stack.pop()
                a = stack[-1]
                if a >= sign_bit:
                    a -= modulus
                if b >= sign_bit:
                    b -= modulus
                stack[-1] = 1 if a <= b else 0

            def ge_s(stack, locals_):
                b = stack.pop()
                a = stack[-1]
                if a >= sign_bit:
                    a -= modulus
                if b >= sign_bit:
                    b -= modulus
                stack[-1] = 1 if a >= b else 0

            def clz(stack, locals_):
                stack[-1] = _clz(stack[-1], bits)

            def ctz(stack, locals_):
                stack[-1] = _ctz(stack[-1], bits)

            def popcnt(stack, locals_):
                stack[-1] = bin(stack[-1]).count("1")

            ops.update(
                add=add, sub=sub, mul=mul, shl=shl, shr_u=shr_u, shr_s=shr_s,
                rotl=rotl, rotr=rotr, eqz=eqz, eq=eq, ne=ne,
                lt_u=lt_u, gt_u=gt_u, le_u=le_u, ge_u=ge_u,
                lt_s=lt_s, gt_s=gt_s, le_s=le_s, ge_s=ge_s,
                clz=clz, ctz=ctz, popcnt=popcnt,
            )
            ops["and"] = and_
            ops["or"] = or_
            ops["xor"] = xor
            return ops

        for suffix, fn in make_int().items():
            h[f"{prefix}.{suffix}"] = fn

    def i32_wrap_i64(stack, locals_):
        stack[-1] &= _MASK32

    def i64_extend_i32_s(stack, locals_):
        stack[-1] = _signed(stack[-1], 32) & _MASK64

    def i64_extend_i32_u(stack, locals_):
        stack[-1] &= _MASK32

    def i32_reinterpret_f32(stack, locals_):
        stack[-1] = struct.unpack("<I", struct.pack("<f", _f32(stack[-1])))[0]

    def i64_reinterpret_f64(stack, locals_):
        stack[-1] = struct.unpack("<Q", struct.pack("<d", stack[-1]))[0]

    def f32_reinterpret_i32(stack, locals_):
        stack[-1] = struct.unpack("<f", struct.pack("<I", stack[-1] & _MASK32))[0]

    def f64_reinterpret_i64(stack, locals_):
        stack[-1] = struct.unpack("<d", struct.pack("<Q", stack[-1] & _MASK64))[0]

    h["i32.wrap_i64"] = i32_wrap_i64
    h["i64.extend_i32_s"] = i64_extend_i32_s
    h["i64.extend_i32_u"] = i64_extend_i32_u
    h["i32.reinterpret_f32"] = i32_reinterpret_f32
    h["i64.reinterpret_f64"] = i64_reinterpret_f64
    h["f32.reinterpret_i32"] = f32_reinterpret_i32
    h["f64.reinterpret_i64"] = f64_reinterpret_i64

    # -- float ops, per width --------------------------------------------------
    for prefix, narrow in (("f32", True), ("f64", False)):

        def make_float(narrow=narrow):
            ops: dict[str, Callable] = {}

            if narrow:
                def add(stack, locals_):
                    b = stack.pop()
                    stack[-1] = _f32(stack[-1] + b)

                def sub(stack, locals_):
                    b = stack.pop()
                    stack[-1] = _f32(stack[-1] - b)

                def mul(stack, locals_):
                    b = stack.pop()
                    stack[-1] = _f32(stack[-1] * b)
            else:
                def add(stack, locals_):
                    b = stack.pop()
                    stack[-1] = stack[-1] + b

                def sub(stack, locals_):
                    b = stack.pop()
                    stack[-1] = stack[-1] - b

                def mul(stack, locals_):
                    b = stack.pop()
                    stack[-1] = stack[-1] * b

            def div(stack, locals_):
                b = stack.pop()
                a = stack[-1]
                if b == 0.0:
                    if a == 0.0 or math.isnan(a):
                        result = math.nan
                    else:
                        result = math.copysign(math.inf, a) * math.copysign(1.0, b)
                else:
                    result = a / b
                stack[-1] = _f32(result) if narrow else result

            def fmin(stack, locals_):
                b = stack.pop()
                r = _float_min(stack[-1], b)
                stack[-1] = _f32(r) if narrow else r

            def fmax(stack, locals_):
                b = stack.pop()
                r = _float_max(stack[-1], b)
                stack[-1] = _f32(r) if narrow else r

            def copysign(stack, locals_):
                b = stack.pop()
                r = math.copysign(stack[-1], b)
                stack[-1] = _f32(r) if narrow else r

            def fabs(stack, locals_):
                r = abs(stack[-1])
                stack[-1] = _f32(r) if narrow else r

            def neg(stack, locals_):
                r = -stack[-1]
                stack[-1] = _f32(r) if narrow else r

            def sqrt(stack, locals_):
                v = stack[-1]
                r = math.sqrt(v) if v >= 0 else math.nan
                stack[-1] = _f32(r) if narrow else r

            def ceil(stack, locals_):
                v = stack[-1]
                r = v if math.isnan(v) or math.isinf(v) else float(math.ceil(v))
                stack[-1] = _f32(r) if narrow else r

            def floor(stack, locals_):
                v = stack[-1]
                r = v if math.isnan(v) or math.isinf(v) else float(math.floor(v))
                stack[-1] = _f32(r) if narrow else r

            def trunc(stack, locals_):
                v = stack[-1]
                r = v if math.isnan(v) or math.isinf(v) else float(math.trunc(v))
                stack[-1] = _f32(r) if narrow else r

            def nearest(stack, locals_):
                r = _nearest(stack[-1])
                stack[-1] = _f32(r) if narrow else r

            def eq(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] == b else 0

            def ne(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] != b else 0

            def lt(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] < b else 0

            def gt(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] > b else 0

            def le(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] <= b else 0

            def ge(stack, locals_):
                b = stack.pop()
                stack[-1] = 1 if stack[-1] >= b else 0

            ops.update(
                add=add, sub=sub, mul=mul, div=div, copysign=copysign,
                abs=fabs, neg=neg, sqrt=sqrt, ceil=ceil, floor=floor,
                trunc=trunc, nearest=nearest,
                eq=eq, ne=ne, lt=lt, gt=gt, le=le, ge=ge,
            )
            ops["min"] = fmin
            ops["max"] = fmax
            return ops

        for suffix, fn in make_float().items():
            h[f"{prefix}.{suffix}"] = fn

    # -- conversions -----------------------------------------------------------
    for dst, narrow in (("f32", True), ("f64", False)):
        for src_bits in (32, 64):
            for signed in (True, False):
                def convert(stack, locals_, bits=src_bits, signed=signed, narrow=narrow):
                    v = stack[-1]
                    if signed:
                        v = _signed(v, bits)
                    stack[-1] = _f32(float(v)) if narrow else float(v)

                sg = "s" if signed else "u"
                h[f"{dst}.convert_i{src_bits}_{sg}"] = convert

    def demote(stack, locals_):
        stack[-1] = _f32(stack[-1])

    def promote(stack, locals_):
        stack[-1] = float(stack[-1])

    h["f32.demote_f64"] = demote
    h["f64.promote_f32"] = promote
    return h


_SHARED: dict[str, Callable] = _build_shared()


# ---------------------------------------------------------------------------
# Per-occurrence closure factories (immediates, instance state)
# ---------------------------------------------------------------------------


def compile_simple(instr: Instr, instance) -> Callable:
    """Build the closure for one non-control instruction (also what the
    ``compile`` engine's per-instruction slow paths run)."""
    name = instr.name
    shared = _SHARED.get(name)
    if shared is not None:
        return shared

    if name == "local.get":
        i = instr.args[0]

        def local_get(stack, locals_):
            stack.append(locals_[i])

        return local_get
    if name == "local.set":
        i = instr.args[0]

        def local_set(stack, locals_):
            locals_[i] = stack.pop()

        return local_set
    if name == "local.tee":
        i = instr.args[0]

        def local_tee(stack, locals_):
            locals_[i] = stack[-1]

        return local_tee
    if name == "global.get":
        g = instance.globals[instr.args[0]]

        def global_get(stack, locals_):
            stack.append(g.value)

        return global_get
    if name == "global.set":
        g = instance.globals[instr.args[0]]

        def global_set(stack, locals_):
            g.value = stack.pop()

        return global_set
    if name.endswith(".const"):
        value = instr.args[0]

        def const(stack, locals_):
            stack.append(value)

        return const
    if name == "memory.size":
        mem = instance.memory
        if mem is None:
            def no_memory_size(stack, locals_):
                raise Trap("no memory")

            return no_memory_size

        def memory_size(stack, locals_):
            stack.append(mem.pages)

        return memory_size

    prefix, _, suffix = name.partition(".")

    if "load" in suffix or "store" in suffix:
        return _compile_memory_access(instr, name, prefix, suffix, instance)

    if suffix in ("div_s", "rem_s"):
        bits = 32 if prefix == "i32" else 64
        mask = (1 << bits) - 1
        int_min = -(1 << (bits - 1))
        is_div = suffix == "div_s"

        def divrem_s(stack, locals_):
            b = stack.pop()
            a = stack[-1]
            if b == 0:
                raise Trap("integer divide by zero")
            sa, sb = _signed(a, bits), _signed(b, bits)
            if is_div:
                if sa == int_min and sb == -1:
                    raise Trap("integer overflow")
                stack[-1] = _trunc_div(sa, sb) & mask
            else:
                stack[-1] = _trunc_rem(sa, sb) & mask

        return divrem_s
    if suffix in ("div_u", "rem_u"):
        mask = (1 << (32 if prefix == "i32" else 64)) - 1
        is_div = suffix == "div_u"

        def divrem_u(stack, locals_):
            b = stack.pop()
            if b == 0:
                raise Trap("integer divide by zero")
            if is_div:
                stack[-1] = (stack[-1] // b) & mask
            else:
                stack[-1] = (stack[-1] % b) & mask

        return divrem_u
    if suffix.startswith("trunc_f"):
        bits = 32 if prefix == "i32" else 64
        signed = suffix.endswith("_s")

        def trunc_f(stack, locals_):
            stack[-1] = _trunc_to_int(stack[-1], bits, signed)

        return trunc_f

    raise AssertionError(f"no predecode handler for {name}")  # pragma: no cover


def _compile_memory_access(instr, name, prefix, suffix, instance) -> Callable:
    mem = instance.memory
    if mem is None:
        def no_memory(stack, locals_):
            raise Trap("no memory")

        return no_memory
    _align, offset = instr.args
    stats = instance.stats
    cost = instance.cost_model
    is_store = "store" in suffix
    vt_bits = 32 if prefix in ("i32", "f32") else 64
    width = vt_bits // 8
    for marker, w in (("8", 1), ("16", 2), ("32", 4)):
        if suffix.endswith((f"load{marker}_s", f"load{marker}_u", f"store{marker}")):
            width = w
            break

    if is_store:
        if prefix in ("f32", "f64"):
            store_value = mem.store_f32 if prefix == "f32" else mem.store_f64

            def store_f(stack, locals_):
                value = stack.pop()
                address = (stack.pop() + offset) & _MASK64
                try:
                    store_value(address, value)
                except MemoryAccessError as exc:
                    raise Trap(str(exc)) from exc
                stats.stores += 1
                stats.bytes_stored += width
                if cost is not None:
                    stats.cycles += cost.memory_access_cycles(address, width, True)

            return store_f

        store_int = mem.store_int

        def store_i(stack, locals_):
            value = stack.pop()
            address = (stack.pop() + offset) & _MASK64
            try:
                store_int(address, value, width)
            except MemoryAccessError as exc:
                raise Trap(str(exc)) from exc
            stats.stores += 1
            stats.bytes_stored += width
            if cost is not None:
                stats.cycles += cost.memory_access_cycles(address, width, True)

        return store_i

    if prefix in ("f32", "f64"):
        load_value = mem.load_f32 if prefix == "f32" else mem.load_f64

        def load_f(stack, locals_):
            address = (stack.pop() + offset) & _MASK64
            try:
                result = load_value(address)
            except MemoryAccessError as exc:
                raise Trap(str(exc)) from exc
            stack.append(result)
            stats.loads += 1
            stats.bytes_loaded += width
            if cost is not None:
                stats.cycles += cost.memory_access_cycles(address, width, False)

        return load_f

    signed = suffix.endswith("_s")
    vt_mask = (1 << vt_bits) - 1
    load_int = mem.load_int

    def load_i(stack, locals_):
        address = (stack.pop() + offset) & _MASK64
        try:
            raw = load_int(address, width, signed=signed)
        except MemoryAccessError as exc:
            raise Trap(str(exc)) from exc
        stack.append(raw & vt_mask)
        stats.loads += 1
        stats.bytes_loaded += width
        if cost is not None:
            stats.cycles += cost.memory_access_cycles(address, width, False)

    return load_i


# ---------------------------------------------------------------------------
# Function compilation
# ---------------------------------------------------------------------------


def compile_function(instance, defined_index: int) -> CompiledFunction:
    """Pre-decode one defined function into a flat code array."""
    module = instance.module
    func = module.funcs[defined_index]
    body = func.body
    n = len(body)
    structs = instance._structs[defined_index]
    cost = instance.cost_model
    cycles_of = cost.instruction_cycles if cost is not None else (lambda name: 0.0)

    # end index -> owning if's end (for the static `else` jump target)
    else_end: dict[int, int] = {
        info.else_: info.end for info in structs.values() if info.else_ is not None
    }

    code: list = [None] * n
    segments: dict[int, int] = {}
    for i, instr in enumerate(body):
        name = instr.name
        cyc = cycles_of(name)
        if name not in SEGMENT_BARRIERS:
            if i == 0 or body[i - 1].name in SEGMENT_BARRIERS:
                start = i
            segments[start] = i - start + 1
            code[i] = (K_OP, name, cyc, compile_simple(instr, instance))
        elif name == "end":
            code[i] = (K_END, name, cyc)
        elif name == "block":
            info = structs[i]
            code[i] = (K_BLOCK, name, cyc, info.end, len(instr.args[0]))
        elif name == "loop":
            info = structs[i]
            code[i] = (K_LOOP, name, cyc, info.end)
        elif name == "if":
            info = structs[i]
            else_target = info.else_ + 1 if info.else_ is not None else info.end
            code[i] = (K_IF, name, cyc, info.end, else_target, len(instr.args[0]))
        elif name == "else":
            code[i] = (K_ELSE, name, cyc, else_end[i])
        elif name == "br":
            code[i] = (K_BR, name, cyc, instr.args[0])
        elif name == "br_if":
            code[i] = (K_BR_IF, name, cyc, instr.args[0])
        elif name == "br_table":
            depths, default = instr.args
            code[i] = (K_BR_TABLE, name, cyc, tuple(depths), default)
        elif name == "return":
            code[i] = (K_RETURN, name, cyc)
        elif name == "call":
            target = instr.args[0]
            code[i] = (K_CALL, name, cyc, target, module.func_param_count(target))
        elif name == "call_indirect":
            type_index = instr.args[0]
            code[i] = (K_CALL_INDIRECT, name, cyc, module.types[type_index])
        elif name == "unreachable":
            code[i] = (K_UNREACHABLE, name, cyc)
        else:  # memory.grow
            code[i] = (K_GROW, name, cyc)

    functype = module.types[func.type_index]
    local_init = [0 if vt.is_int else 0.0 for vt in func.locals]
    return CompiledFunction(code, n, local_init, len(functype.results), segments)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class PredecodedEngine:
    """Executes an :class:`~repro.wasm.interpreter.Instance`'s functions from
    their pre-decoded form.  Created by ``Instance(..., engine="predecode")``."""

    def __init__(self, instance):
        self.instance = instance
        self._compiled: list[CompiledFunction | None] = [None] * len(
            instance.module.funcs
        )

    def compile_all(self) -> None:
        """Pre-decode every defined function (done once at instantiation)."""
        for index in range(len(self._compiled)):
            if self._compiled[index] is None:
                self._compiled[index] = compile_function(self.instance, index)

    def exec_function(
        self, defined_index: int, args: list, resume: tuple | None = None
    ) -> list:
        """Run one defined function; ``resume=(pc, stack, locals, control)``
        re-enters a suspended frame (``control`` in the snapshot's
        ``(opcode, start, end, height, arity)`` form) instead of starting
        fresh.  With ``limits.snapshot_at`` set, the first observation point
        at or past it raises :class:`CaptureUnwind` carrying this frame."""
        cf = self._compiled[defined_index]
        if cf is None:  # start functions may run before compile_all finishes
            cf = self._compiled[defined_index] = compile_function(
                self.instance, defined_index
            )
        inst = self.instance
        stats = inst.stats
        visits = stats.visits
        limits = inst.limits
        cost_on = inst.cost_model is not None
        code = cf.code
        n = cf.n
        prof = inst._profiler
        prof_label = inst._func_labels[defined_index] if prof is not None else ""
        snapshot_at = limits.snapshot_at

        # control frames: (is_loop, start, end, stack_height, arity)
        if resume is None:
            locals_: list = list(args)
            locals_.extend(cf.local_init)
            stack: list = []
            control: list[tuple] = []
            pc = 0
        else:
            pc, stack, locals_, frames = resume
            control = [
                (op == "loop", start, end, height, arity)
                for op, start, end, height, arity in frames
            ]

        while pc < n:
            entry = code[pc]
            if prof is not None and pc in cf.segments:
                prof.record_segment(prof_label, pc, cf.segments[pc])

            # -- the one charge path, in the reference order --------------------
            if snapshot_at is not None and stats.executed >= snapshot_at:
                raise self._capture(
                    defined_index, pc, stack, locals_, control, CaptureUnwind()
                )
            visits[entry[1]] += 1
            stats.executed += 1
            if cost_on:
                stats.cycles += entry[2]
            if (
                limits.max_instructions is not None
                and stats.executed > limits.max_instructions
            ):
                raise Trap("instruction budget exhausted")
            if (
                limits.progress_interval is not None
                and limits.progress_callback is not None
                and stats.executed % limits.progress_interval == 0
            ):
                limits.progress_callback(stats)

            kind = entry[0]
            if kind == K_OP:
                entry[3](stack, locals_)
                pc += 1
            elif kind == K_END:
                if control:
                    control.pop()
                pc += 1
            elif kind == K_BR_IF:
                if stack.pop():
                    pc = _branch(entry[3], stack, control, n)
                else:
                    pc += 1
            elif kind == K_LOOP:
                control.append((True, pc, entry[3], len(stack), 0))
                pc += 1
            elif kind == K_BLOCK:
                control.append((False, pc, entry[3], len(stack), entry[4]))
                pc += 1
            elif kind == K_IF:
                cond = stack.pop()
                control.append((False, pc, entry[3], len(stack), entry[5]))
                pc = pc + 1 if cond else entry[4]
            elif kind == K_BR:
                pc = _branch(entry[3], stack, control, n)
            elif kind == K_CALL:
                n_params = entry[4]
                if n_params:
                    call_args = stack[-n_params:]
                    del stack[-n_params:]
                else:
                    call_args = []
                try:
                    results = inst.call_function(entry[3], call_args)
                except CaptureUnwind as unwind:
                    raise self._capture(
                        defined_index, pc, stack, locals_, control, unwind, "at_call"
                    )
                stack.extend(results)
                stats.calls += 1
                pc += 1
            elif kind == K_ELSE:
                # reached only by falling out of the true arm: jump to end
                pc = entry[3]
            elif kind == K_BR_TABLE:
                depths = entry[3]
                index = stack.pop()
                depth = depths[index] if index < len(depths) else entry[4]
                pc = _branch(depth, stack, control, n)
            elif kind == K_RETURN:
                break
            elif kind == K_CALL_INDIRECT:
                expected_type = entry[3]
                table = inst.table
                table_index = stack.pop()
                if table is None or table_index >= len(table.elements):
                    raise Trap("undefined table element")
                target = table.elements[table_index]
                if target is None:
                    raise Trap("uninitialized table element")
                target_type = inst.module.func_type(target)
                if target_type != expected_type:
                    raise Trap("indirect call type mismatch")
                call_args = [stack.pop() for _ in target_type.params][::-1]
                try:
                    results = inst.call_function(target, call_args)
                except CaptureUnwind as unwind:
                    raise self._capture(
                        defined_index, pc, stack, locals_, control, unwind, "at_call"
                    )
                stack.extend(results)
                stats.calls += 1
                pc += 1
            elif kind == K_GROW:
                mem = inst.memory
                if mem is None:
                    raise Trap("no memory")
                delta = stack.pop()
                result = mem.grow(delta)
                if result >= 0:
                    stats.grow_history.append((stats.executed, mem.pages))
                stack.append(result & _MASK32)
                pc += 1
            else:  # K_UNREACHABLE
                raise Trap("unreachable executed")

        n_results = cf.n_results
        if n_results == 0:
            return []
        if len(stack) < n_results:
            raise Trap("function returned with empty stack")
        return stack[-n_results:]

    def _capture(
        self, defined_index: int, pc: int, stack, locals_, control,
        unwind: CaptureUnwind, kind: str = "at_current",
    ) -> CaptureUnwind:
        """Append this frame to ``unwind`` in the engine-independent snapshot
        form (control opcodes recovered from the body)."""
        body = self.instance.module.funcs[defined_index].body
        unwind.frames.append(
            CapturedFrame(
                func_index=self.instance.module.num_imported_funcs + defined_index,
                pc=pc,
                stack=tuple(stack),
                locals=tuple(locals_),
                control=tuple(
                    (body[start].name, start, end, height, arity)
                    for _is_loop, start, end, height, arity in control
                ),
                kind=kind,
            )
        )
        return unwind


def _branch(depth: int, stack: list, control: list, n: int) -> int:
    """Take a branch of ``depth`` labels over tuple control frames; returns
    the new pc (``n`` for a branch out of the function body)."""
    if depth >= len(control):
        # branch out of the function body: treated as return
        del control[:]
        return n
    is_loop, start, end, height, arity = control[-1 - depth]
    kept = stack[len(stack) - arity :] if arity else []
    del stack[height:]
    stack.extend(kept)
    if is_loop:
        # pop all frames above and including the target; re-visiting the
        # loop header re-pushes its frame
        del control[len(control) - 1 - depth :]
        return start
    # pop frames *above* the target only; the visited end marker pops it
    del control[len(control) - depth :]
    return end
