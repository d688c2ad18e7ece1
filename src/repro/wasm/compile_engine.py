"""Wasm -> Python compilation engine with folded meter counters.

The predecode engine (:mod:`repro.wasm.predecode`) removed per-instruction
*dispatch* from the hot path but still pays one Python closure call per
instruction.  This module removes the calls too, the way AccTEE folds its
accounting into the instrumented module itself (paper §3.2): each validated
function body is translated once into Python **source** —

* straight-line basic blocks become sequences of native Python statements
  over a *registerised* operand stack (``s0``, ``s1``, ...; the wasm operand
  depth at every instruction is static, so stack slots compile to Python
  locals and pushes/pops vanish);
* structured control flow becomes real Python ``while``/``if`` statements.
  Only constructs that are branch *targets* get a ``while True:`` wrapper;
  multi-level ``br`` is compiled to a small ``_br`` cascade that unwinds one
  wrapper per level, so irreducible dispatch loops are never needed for
  valid wasm structured control;
* the per-basic-block meter increments (``visits``/``executed``/``cycles``)
  are folded into the generated code.  Each batch of charges opens with two
  statements, ``_ex += N`` and ``if _ex > mi:``; the one threshold ``mi``
  folds the budget, the capture point and the last count before the next
  progress boundary, and is re-armed after a slow path and (with a progress
  callback) after a call.  The fast path counts the batch in a local
  ``_v{k}``; the counts reach the stats (and a profiler) only where they
  are observable — calls, returns, traps, slow paths — through
  :func:`_flush_visits`.  When a boundary lands inside a batch, its slow
  path takes the charge back and raises to the function's one handler,
  which settles the counts, has the engine run the batch per instruction
  from a static step table, each non-control instruction through the
  predecode reference's closure for it
  (:func:`repro.wasm.predecode.compile_simple`), and re-enters the body
  past that batch the way a resume does (below);
* only the work the wasm asks for: integer ``add``, ``sub``, ``mul``,
  ``shl`` by a literal, ``and``, ``or`` and ``xor`` commute with reduction
  mod ``2**bits``, so their results stay unmasked and a chain of them is
  masked once, where a canonical value is needed: a write to a local,
  global, temporary or register, a compare or condition, a memory base,
  shifts right, division, rotation, bit counts, extension, conversion and
  reinterpretation (``((((l3 * 12) + l6) << 3) & 0xffffffff) + 3328``).  A
  signed compare flips both sign bits and compares unsigned (``(a ^
  0x80000000) < (b ^ 0x80000000)``), any other signed use converts inline
  (``(a ^ S) - S``), literals fold at translate time, and ``eqz`` of a
  compare flips the compare instead of nesting a second conditional.  A
  nonzero literal divisor is inline truncating arithmetic with no zero test
  (``div_s`` by -1 keeps its overflow test), ``x // 1`` is ``x``, and a
  float division by a nonzero finite literal is a plain ``/``.  Globals are
  read and written through the :class:`Global` objects bound in the
  prologue (``_g{i}``), pending like locals, so a counter increment
  (``global.get; i64.const; i64.add; global.set``) is one statement;
* a full-width access whose address is provably a multiple of its width
  — an ``i32.shl`` by log2 of the width, plus a memarg offset that is a
  multiple of it — indexes the memory's typed view for its type
  (``_vd[(((l3 * 12) + l6) & 0x1fffffff) + 416]``, see
  :class:`~repro.wasm.memory.LinearMemory`), on a little-endian host and
  except for f32 stores, whose out-of-range clamp needs ``struct``.  The
  views are bound at entry and again after every call and ``memory.grow``,
  since a size change replaces them.  Every other access leaves the bounds
  check to ``struct``: the effective address (a u32 base plus a u32
  offset, unmasked) is written to ``_a`` inside the prebound
  ``unpack_from``/``pack_into`` call, which raises ``struct.error`` past
  the end (addresses are never negative), as a view raises ``IndexError``.
  The batch's ``except`` turns either into the :class:`MemoryAccessError`
  text of :class:`~repro.wasm.memory.LinearMemory` (``read of W bytes at A
  out of bounds (LEN)``) from ``_a`` (for a view, the byte address computed
  again from its operands) and a per-position table of kind and width;
* trap attribution: blocks that may trap run under ``try`` and record the
  trapping position in ``_tp``; the trap path takes the batch back and the
  engine charges the part that ran, so :class:`ExecutionStats` stay
  byte-identical to the predecode reference, which charges each
  instruction just before running it;
* ``executed >= snapshot_at`` is one more observation point: the capture
  point is folded into the batch threshold (unarmed code does no extra
  work), the slow path captures before the instruction it falls on, with
  the control stack from the step table, and calls add their ``at_call``
  frame to a passing
  :class:`~repro.wasm.interpreter.CaptureUnwind` — the same frames the
  predecode reference captures.

Each function is generated in one form, ``_f{i}(_e, _stk, _loc)``, with every
behaviour guarded by an entry id ``_e``.  A fresh call enters it with
``_e = 0``.  A resume enters the same function with the id of the batch
the capture fell in (the engine first finishes that batch per instruction):
the code skips forward to that batch and runs on at compiled speed.  The
seek is folded into the batch threshold (``-1`` while ``_e`` is set), so a
fresh call pays for it only at the guards around branches, calls and
returns.  A slow path re-enters its own function body the same way, so the
frame's state is written out once per function, in the handler, not once
per batch.

Generated code objects are cached in :data:`CODE_CACHE` per ``(module
digest, cost signature)`` — the module digest is
:attr:`~repro.wasm.interpreter.Instance.module_hash`, the cost signature
the cost model's cycle weights — so instantiating the same module
repeatedly (worker pools, the gateway) compiles once.  Any function
the translator cannot handle (deeper nesting than Python's indentation
limit, multi-result functions, ...) falls back *per function* to the
predecode engine, which is itself stats-identical, so coverage is never a
correctness risk.  ``CompiledEngine.fallback_functions`` reports which
functions (if any) took that path.
"""

from __future__ import annotations

import math
import re
import struct
import sys

from repro.lru import LRUCache
from repro.wasm.instructions import SEGMENT_BARRIERS, Instr
from repro.wasm.interpreter import (
    CapturedFrame,
    CaptureUnwind,
    Trap,
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
    build_structure_map,
)
from repro.wasm.memory import MemoryAccessError
from repro.wasm.predecode import PredecodedEngine, compile_simple

#: Python's tokenizer rejects indentation deeper than 100 levels; leave slack.
_MAX_INDENT = 90


class CompileError(Exception):
    """A function body the translator cannot handle (falls back, per function)."""


class _SlowPath(Exception):
    """Raised by generated code at a batch a boundary falls inside; caught
    by the same function's handler (never escapes a generated function)."""


# ---------------------------------------------------------------------------
# Compiled-code cache
# ---------------------------------------------------------------------------


class _FuncCode:
    """Translation result for one defined function (or a fallback marker)."""

    __slots__ = ("code", "consts", "segs", "batch_steps", "entry_at", "error")

    def __init__(self, code, consts, segs, batch_steps=(), entry_at=None, error=None):
        self.code = code        # code object, or None -> predecode fallback
        self.consts = consts    # tuple referenced as _K{i}[j] in generated code
        #: per basic block: (its batch, memory stats completed before each
        #: trap point), for the trap path
        self.segs = segs
        #: per charge batch, its instructions in execution order, one
        #: ``(pc, name, cycles, control, is_op)`` each (``is_op``: a
        #: non-control instruction, run through its predecode closure)
        self.batch_steps = batch_steps
        #: per pc, the batch charging it (0: none): where a resume enters
        self.entry_at = entry_at
        self.error = error      # why translation fell back, for diagnostics


class _ModuleCode:
    __slots__ = ("funcs",)

    def __init__(self, funcs):
        self.funcs = funcs


#: Translations per (module digest, cost signature), process-wide.
CODE_CACHE: LRUCache[_ModuleCode] = LRUCache(64)


def _cost_signature(cost_model):
    if cost_model is None:
        return None
    return tuple(sorted(cost_model.cycle_weights.items()))


def _module_key(instance):
    try:
        return (instance.module_hash, _cost_signature(instance.cost_model))
    except Exception:
        return None  # unencodable module: compile uncached


# ---------------------------------------------------------------------------
# Translation: one defined function body -> Python source
# ---------------------------------------------------------------------------

_I_CMP_U = {"eq": "==", "ne": "!=", "lt_u": "<", "gt_u": ">", "le_u": "<=", "ge_u": ">="}
_I_CMP_S = {"lt_s": "<", "gt_s": ">", "le_s": "<=", "ge_s": ">="}
_F_CMP = {"eq": "==", "ne": "!=", "lt": "<", "gt": ">", "le": "<=", "ge": ">="}
# integer ops that commute with reduction mod 2**bits: their result is left
# unreduced ("raw") and masked once, where a canonical value is required
_I_BIN = {"add": "+", "sub": "-", "mul": "*"}
_I_BIT = {"and": "&", "or": "|", "xor": "^"}
#: the wrap-around mask per integer width
_MASK = {32: "0xffffffff", 64: "0xffffffffffffffff"}

#: The typed views of :class:`~repro.wasm.memory.LinearMemory` are native
#: endian and wasm memory is little endian: only a little-endian host may
#: index them.  Elsewhere every access keeps ``struct``.
_NATIVE_LITTLE_ENDIAN = sys.byteorder == "little"

#: the full-width accesses an aligned address may turn into a typed-view
#: subscript: the view's ``LinearMemory`` attribute, the local generated
#: code binds it to, and log2 of the width.  An f32 store keeps ``struct``
#: for its out-of-range clamp to infinity (see ``LinearMemory.store_f32``).
_VIEW_ACCESS = {
    "f64.load": ("view_f64", "_vd", 3),
    "f64.store": ("view_f64", "_vd", 3),
    "f32.load": ("view_f32", "_vf", 2),
    "i32.load": ("view_u32", "_vi", 2),
    "i32.store": ("view_u32", "_vi", 2),
    "i64.load": ("view_u64", "_vq", 3),
    "i64.store": ("view_u64", "_vq", 3),
}

#: re-arms the fast path's threshold ``mi`` at the last count before the
#: next progress boundary (or at ``mm``, the budget or capture point, if
#: nearer); emitted wherever ``executed`` may have moved past it
_REARM = "if _pb: mi = min(mm, _ex - _ex % pi + pi - 1)"

#: operands cheap enough to re-evaluate or leave pending: names, int literals
_SIMPLE_EXPR = re.compile(r"-?\d+|[A-Za-z_][A-Za-z0-9_]*")


def _masked(expr: str, raw: int) -> str:
    """``expr`` reduced to its canonical value, for the right-hand side of
    an assignment: masked if ``raw`` (its width) is set.  Pushed
    expressions are atoms, calls or parenthesised, so ``&`` binds last."""
    return f"{expr} & {_MASK[raw]}" if raw else expr


def _as_int(expr: str) -> int | None:
    """The integer value of a literal operand expression, else ``None``."""
    try:
        return int(expr)
    except ValueError:
        return None


def _as_float(expr: str) -> float | None:
    """The value of a float literal operand expression, else ``None``."""
    try:
        return float(expr)
    except ValueError:
        return None


def _flush_visits(S, V, counts, sv, P, label) -> None:
    """Apply deferred per-batch accounting deltas to the live stats.

    ``counts[i]`` is how often batch ``i + 1`` ran on the fast path since
    the last flush.  The generated code keeps these counts in locals
    ``_v1``, ``_v2``, ..., packs them into a tuple for this call, and
    zeroes them afterwards wherever it runs on (calls, the slow-path
    handler).  ``sv[i]`` is that batch's constant delta ``(cycles,
    visit_pairs, loads, stores, bytes_loaded, bytes_stored, segment)``.
    Between observation points (budget traps,
    progress callbacks, calls, returns, slow paths) the drift is
    unobservable, so the hot path pays one local increment per block
    instead of one Counter update per opcode.  ``cycles * n`` is exact:
    cycle weights are dyadic and counts are integers.  With a profiler
    ``P`` active, each batch's basic block (``segment``: start pc and
    length, ``None`` for a batch of control charges only) is reported
    once per entry, so the fast path carries no profiler test.
    """
    for i, n in enumerate(counts):
        if n:
            cyc, pairs, ld, st, bl, bs, seg = sv[i]
            if cyc:
                S.cycles += cyc * n
            if ld:
                S.loads += ld * n
                S.bytes_loaded += bl * n
            if st:
                S.stores += st * n
                S.bytes_stored += bs * n
            for nm, c in pairs:
                V[nm] += c * n
            if P is not None and seg is not None:
                P.record_segment(label, seg[0], seg[1], n)


class _Frame:
    __slots__ = (
        "kind", "h", "arity", "results", "wrapped", "escapes",
        "in_else", "end_reachable", "marker", "has_else", "ctl", "cond_line",
    )

    def __init__(self, kind, h, arity, results, wrapped, escapes, has_else, start, end):
        self.kind = kind
        self.h = h                  # operand depth at entry (after if-cond pop)
        self.arity = arity          # branch label arity (0 for loop)
        self.results = results      # values left by the construct's end
        self.wrapped = wrapped      # emitted a `while True:` (branch target)
        self.escapes = escapes      # some branch passes through this construct
        self.has_else = has_else
        self.in_else = False
        self.end_reachable = False
        self.marker = 0             # start-of-suite line index (for `pass`)
        #: the snapshot control tuple for this construct
        self.ctl = (kind, start, end, h, arity)
        self.cond_line = None       # the `if` line whose seek bound is patched


class _Translator:
    """Translates one function body; raises :class:`CompileError` to decline."""

    def __init__(self, module, defined_index: int, cost_model, has_memory: bool):
        self.module = module
        self.fidx = defined_index
        self.func = module.funcs[defined_index]
        self.body = self.func.body
        self.functype = module.types[self.func.type_index]
        self.cost = cost_model
        self.cost_on = cost_model is not None
        self.has_memory = has_memory
        self.kname = f"_K{defined_index}"
        self.func_index = module.num_imported_funcs + defined_index
        self.n_locals = len(self.functype.params) + len(self.func.locals)
        self.lines: list[str] = []
        self.ind = 0
        # consts[0] is reserved for the per-batch accounting-delta tuple
        # (filled in at the end of translate(); referenced as _SV)
        self.consts: list = [None]
        self.batches: list = []
        #: per batch, its instructions in execution order (see
        #: :attr:`_FuncCode.batch_steps`)
        self.steps: list[tuple] = []
        self.segs: list[tuple] = []
        self.frames: list[_Frame] = []
        self.max_d = 0
        # pending charge batch: control charges and at most one basic block
        # whose meter updates are folded into a single boundary check;
        # charges are (name, cycles, pc, operand depth, control tuple)
        self.lead: list[tuple] = []
        self.seg: dict | None = None
        self.trail: list[tuple] = []
        # symbolic operand stack for the block under translation: per slot
        # its expression, the variables it reads, its raw width (0: the
        # value is canonical; 32/64: it is congruent to the value mod
        # 2**width and still needs the mask), and its form: how a raw
        # expression was built, for the consumers that can use that —
        # ("shl", operand, k) for an i32.shl of operand by the literal k,
        # ("signed", bits) for a value that is already the signed value at
        # that width — or None
        self.tctr = 0
        self._sym: list[str] = []
        self._deps: list[set] = []
        self._raw: list[int] = []
        self._form: list[tuple | None] = []
        #: the typed views the function's accesses index: local -> attribute
        self.views: dict[str, str] = {}

    # -- emission helpers ----------------------------------------------------

    def emit(self, line: str) -> None:
        if self.ind > _MAX_INDENT:
            raise CompileError("nesting exceeds Python indentation limit")
        self.lines.append("    " * self.ind + line)

    def _cycles_of(self, name: str) -> float:
        return self.cost.instruction_cycles(name) if self.cost_on else 0.0

    def const(self, value) -> str:
        self.consts.append(value)
        return f"{self.kname}[{len(self.consts) - 1}]"

    def _control(self) -> tuple:
        """The control stack here, in snapshot tuple form."""
        return tuple(f.ctl for f in self.frames)

    def _lists(self, d: int) -> str:
        """``[stack registers], [locals]`` — a frame's state as lists."""
        stack = ", ".join(f"s{i}" for i in range(d))
        locals_ = ", ".join(f"l{i}" for i in range(self.n_locals))
        return f"[{stack}], [{locals_}]"

    def _guard(self) -> None:
        """Open a behaviour suite, skipped while ``_e`` still names an entry
        further on (closed by :meth:`_unguard`)."""
        self.emit("if not _e:")
        self.ind += 1

    def _unguard(self) -> None:
        self.ind -= 1

    def _float_literal(self, value: float) -> str:
        if value != value:
            return "_NAN"
        if value == math.inf:
            return "_INF"
        if value == -math.inf:
            return "-_INF"
        return repr(value)

    def emit_charge(self, name: str, pc: int, d: int, control: tuple | None = None) -> None:
        """Queue the meter charge for one control instruction.

        Charges are not emitted where they occur: between two observation
        points (traps, callbacks, calls, returns, branch decisions) the
        accounting is unobservable, so consecutive charges are batched into
        the adjacent basic block's single boundary check — the compile-time
        equivalent of AccTEE folding per-block counter increments into the
        instrumented code.  ``flush()`` materialises the batch; callers
        flush before emitting anything the meter state can influence.

        ``pc``, the operand depth ``d`` and the control stack (default: the
        open constructs) locate a capture at this instruction.
        """
        if control is None:
            control = self._control()
        entry = (name, self._cycles_of(name), pc, d, control)
        (self.trail if self.seg is not None else self.lead).append(entry)

    def _register_batch(self, charges, seg) -> None:
        """Record a fast-path batch's constant accounting delta."""
        delta: dict[str, int] = {}
        for name, *_rest in charges:
            delta[name] = delta.get(name, 0) + 1
        for name in seg["names"] if seg else ():
            delta[name] = delta.get(name, 0) + 1
        cyc = 0.0
        if self.cost_on:
            cyc = sum(entry[1] for entry in charges)
            if seg:
                cyc += sum(seg["op_cycles"])
        ld, st, bl, bs = seg["mem"] if seg else (0, 0, 0, 0)
        block = (seg["start"], seg["count"]) if seg else None
        self.batches.append((cyc, tuple(delta.items()), ld, st, bl, bs, block))

    @staticmethod
    def _settle(zero: bool = True) -> str:
        """The statement that settles the deferred accounting: ``executed``,
        then every batch count ``_v{i}`` (``@VS@``/``@V0@`` are patched
        once all batches are known).  ``zero`` resets the counts, for code
        that runs on afterwards."""
        return "S.executed = _ex; _fv(S, V, @VS@, _SV, P, _lbl)" + ("; @V0@" if zero else "")

    def _emit_batch_head(self, lead, seg, trail) -> int:
        """Open the batch with its two-statement head, ``_ex += N`` and
        ``if _ex > mi:``, emit its slow branch, and open the fast path's
        ``else:``, which counts the batch in ``_v{batch}``; returns the
        batch id.

        ``mi`` folds the budget, the capture point, the next progress
        boundary and the seek into one threshold, so the fast path pays
        nothing for being capturable, resumable or watched.  When a budget,
        capture or progress boundary falls inside the batch, the slow branch
        takes the charge back and raises to the function's handler (see
        :meth:`_epilogue`) with ``_e`` naming the batch and ``_stk`` its
        operand stack.  While seeking an entry (``mi == -1``) every batch
        takes the slow branch and is skipped; the entry batch itself, which
        the engine finished before re-entering, clears ``_e`` and restores
        ``mi``.
        """
        steps = [(pc, name, cyc, ctl, False) for name, cyc, pc, _d, ctl in lead]
        if seg is not None:
            start, control = seg["start"], seg["control"]
            steps += [
                (start + j, name, cyc, control, True)
                for j, (name, cyc) in enumerate(zip(seg["names"], seg["op_cycles"]))
            ]
        steps += [(pc, name, cyc, ctl, False) for name, cyc, pc, _d, ctl in trail]
        self.steps.append(tuple(steps))
        batch = len(self.steps)
        if seg is not None:
            self.segs.append((batch, seg["mp"]))
        total = len(steps)
        self.emit(f"_ex += {total}")
        self.emit("if _ex > mi:")
        self.ind += 1
        self.emit(f"_ex -= {total}")
        self.emit(f"if _e == {batch}: _e = 0; mi = _mi")
        # every charge of a batch sees the operand stack it starts with:
        # control charges move no values, and the block's come first
        depth = lead[0][3] if lead else seg["d0"]
        stack = ", ".join(f"s{i}" for i in range(depth))
        self.emit(f"elif not _e: _e = {batch}; _stk = [{stack}]; raise _SLOW")
        self.ind -= 1
        self.emit("else:")
        self.ind += 1
        self._register_batch(lead + list(trail), seg)
        self.emit(f"_v{batch} += 1")
        self.ind -= 1
        return batch

    def flush(self) -> None:
        """Emit the pending charge batch under one budget/capture/progress
        check."""
        lead, seg, trail = self.lead, self.seg, self.trail
        if seg is None and not lead:
            return
        self.lead, self.seg, self.trail = [], None, []
        if seg is None:
            self._emit_batch_head(lead, None, ())
            return
        self._flush_with_segment(lead, seg, trail)

    def _flush_with_segment(self, lead, seg, trail) -> None:
        batch = self._emit_batch_head(lead, seg, trail)
        self.ind += 1
        buf = seg["buf"]
        if seg["can_trap"]:
            # _tp names the last trap point reached: -1 before the first
            if not buf[0].startswith("_tp = "):
                self.emit("_tp = -1")
            self.emit("try:")
            self.ind += 1
            for line in buf:
                self.emit(line)
            if not buf:
                self.emit("pass")
            self.ind -= 1
            self.emit("except BaseException as _xc:")
            self.ind += 1
            # a mid-block trap: take this batch back, settle everything
            # else, and let _unwind charge the part of the batch that ran
            self.emit(f"_v{batch} -= 1; _ex -= {len(self.steps[-1])}")
            self.emit(self._settle(zero=False))
            self.emit(f"_E._unwind({self.fidx}, {len(self.segs) - 1}, _tp)")
            if seg["view"]:
                # a view index past the end: its operands still hold what
                # the access read, so its byte address is computed again
                self.emit("if isinstance(_xc, IndexError):")
                for pos, (tp, addr) in enumerate(seg["view"].items()):
                    self.emit(f"    {'el' if pos else ''}if _tp == {tp}: _a = {addr}")
            if seg["oob"]:
                # struct or a view refused an access past the end: the same
                # text as LinearMemory.read/write, at the access's address
                oob = self.const(seg["oob"])
                self.emit(
                    f"if isinstance(_xc, _OOB) and _tp in {oob}: _xc = MemoryAccessError("
                    f'f"{{{oob}[_tp]}} {{_a}} out of bounds ({{len(_mb)}})")'
                )
            self.emit("if isinstance(_xc, MemoryAccessError): raise Trap(str(_xc)) from _xc")
            self.emit("raise")
            self.ind -= 1
        else:
            for line in buf:
                self.emit(line)
            if not buf:
                self.emit("pass")
        self.ind -= 1

    def emit_return(self, d: int) -> None:
        self.flush()
        self._guard()
        self._return_values(d)
        self._unguard()

    def _return_values(self, d: int) -> None:
        nres = len(self.functype.results)
        self.emit(self._settle(zero=False))
        if nres == 0:
            self.emit("return []")
            return
        if d < nres:
            raise CompileError("return with understacked operands")
        vals = ", ".join(f"s{d - nres + i}" for i in range(nres))
        self.emit(f"return [{vals}]")

    def emit_branch(self, depth: int, d: int, frames: list) -> None:
        """Emit the code for a taken branch of ``depth`` labels."""
        if depth >= len(frames):
            self._return_values(d)  # callers flushed and guarded already
            return
        target = frames[-1 - depth]
        a = target.arity
        src = d - a
        if a and target.h != src:
            for i in range(a):
                self.emit(f"s{target.h + i} = s{src + i}")
        k = sum(1 for f in frames[len(frames) - depth:] if f.wrapped)
        if k == 0:
            self.emit("continue" if target.kind == "loop" else "break")
        else:
            self.emit(f"_br = {k}")
            self.emit("break")

    def _close_suite(self, marker: int) -> None:
        if len(self.lines) == marker:
            self.emit("pass")
        self.ind -= 1

    def _cascade(self, frame: _Frame, frames_below: list) -> None:
        """After a wrapped construct's ``while``: route pass-through branches."""
        if not frame.escapes:
            return
        parent = next((f for f in reversed(frames_below) if f.wrapped), None)
        if parent is None:  # no branch can pass through the outermost wrapper
            return
        self.emit("if _br:")
        self.ind += 1
        self.emit("_br -= 1")
        if parent.kind == "loop":
            self.emit("if _br: break")
            self.emit("continue")
        else:
            self.emit("break")
        self.ind -= 1

    # -- branch-target pre-scan ----------------------------------------------

    def _scan_targets(self) -> tuple[set, set]:
        targeted: set[int] = set()
        escaped: set[int] = set()
        stack: list[int] = []

        def mark(depth: int) -> None:
            if depth < len(stack):
                targeted.add(stack[-1 - depth])
                if depth:
                    escaped.update(stack[len(stack) - depth:])

        for i, instr in enumerate(self.body):
            name = instr.name
            if name in ("block", "loop", "if"):
                stack.append(i)
            elif name == "end":
                if stack:
                    stack.pop()
            elif name in ("br", "br_if"):
                mark(instr.args[0])
            elif name == "br_table":
                depths, default = instr.args
                for depth in set(depths) | {default}:
                    mark(depth)
        return targeted, escaped

    # -- straight-line blocks -------------------------------------------------

    def _queue_segment(self, start: int, stop: int, d: int) -> int:
        """Translate one basic block and queue it in the pending batch.

        Translation runs over a *symbolic* operand stack: each slot holds a
        pure Python expression (a register, local, literal, or folded
        arithmetic).  Pure expressions stay pending and fold into their
        consumers — `local.get x; i32.const 1; i32.add; local.set x` becomes
        one statement — and are only materialised (into fresh single-use
        temporaries ``t{n}``) at hazards: a write to a local they read, a
        multi-use operand, an oversized expression, or the end of the block,
        where surviving slots land in the canonical registers ``s{i}`` that
        the control-flow code and the slow path's stack lists both use.

        Integer arithmetic that commutes with reduction mod ``2**bits``
        (``add``, ``sub``, ``mul``, ``shl`` by a literal, ``and``, ``or``,
        ``xor``) leaves its slot *raw*: ``l3 * 12 + l6`` stays unmasked
        until a consumer that needs the canonical value pops it
        (:meth:`_pop`), or it is written to a name, so a chain of wrapping
        steps pays one mask.
        """
        if self.seg is not None:
            self.flush()
        members = self.body[start:stop]
        names = tuple(m.name for m in members)
        op_cycles = [self._cycles_of(nm) for nm in names]

        buf: list[str] = []
        d0 = d
        # temporaries never outlive their block: every block reuses t1, t2,
        # ..., so a function's local count stays small
        self.tctr = 0
        self._sym = [f"s{i}" for i in range(d0)]
        self._deps = [set() for _ in range(d0)]
        self._raw = [0] * d0
        self._form = [None] * d0
        # memory-op stat totals for the block, plus the prefix table keyed by
        # trap position (what had completed before the op at index j ran)
        self._seg_mem = [0, 0, 0, 0]
        self._seg_mp: dict[int, tuple] = {-1: (0, 0, 0, 0)}
        # per memory access position, the head of its out-of-bounds message,
        # and per typed-view access position, its byte address expression
        self._seg_oob: dict[int, str] = {}
        self._seg_view: dict[int, str] = {}
        # compare expressions pushed in this block -> (condition, the
        # expression's value when the condition holds)
        self._conds: dict[str, tuple[str, int]] = {}
        for j, m in enumerate(members):
            self._emit_op(m, j, buf)
        d1 = len(self._sym)
        # land surviving slots in their canonical registers, ascending: an
        # expression at slot i only references registers s{j} with j >= i,
        # so each write happens after every read of the old value
        for k in range(d1):
            if self._sym[k] != f"s{k}":
                buf.append(f"s{k} = {_masked(self._sym[k], self._raw[k])}")

        self.seg = {
            "start": start,
            "count": stop - start,
            "names": names,
            "op_cycles": op_cycles,
            # a literal divisor, say, leaves a trapping instruction that
            # cannot trap: only recorded trap points need the rollback
            "can_trap": len(self._seg_mp) > 1,
            "buf": buf,
            "d0": d0,
            "mem": tuple(self._seg_mem),
            "mp": dict(self._seg_mp),
            "oob": dict(self._seg_oob),
            "view": dict(self._seg_view),
            "control": self._control(),
        }
        self.max_d = max(self.max_d, d0, d1)
        return d1

    # -- symbolic-stack helpers ------------------------------------------------

    def _trap_point(self, j: int, out: list[str]) -> None:
        """Block position ``j`` may trap: ``_tp`` names it at run time, and
        the memory stats completed before it are kept for the rollback."""
        self._seg_mp[j] = tuple(self._seg_mem)
        out.append(f"_tp = {j}")

    def _temp(self) -> str:
        self.tctr += 1
        return f"t{self.tctr}"

    def _push(
        self, expr: str, deps: set, out: list[str], raw: int = 0, form: tuple | None = None
    ) -> None:
        """Push ``expr``; ``raw`` is its width if it may still need the
        wrap-around mask, ``form`` how it was built (see :meth:`__init__`)."""
        if len(expr) > 100:  # cap folded-expression size
            t = self._temp()
            out.append(f"{t} = {_masked(expr, raw)}")
            expr, deps, raw, form = t, set(), 0, None
        self._sym.append(expr)
        self._deps.append(deps)
        self._raw.append(raw)
        self._form.append(form)

    def _pop_raw(self) -> tuple[str, set, int]:
        """Pop an operand as it stands: expression, deps and raw width."""
        if not self._sym:
            raise CompileError("operand stack underflow")
        self._form.pop()
        return self._sym.pop(), self._deps.pop(), self._raw.pop()

    def _pop(self) -> tuple[str, set]:
        """Pop an operand's canonical value: a raw slot gets its mask here."""
        expr, deps, raw = self._pop_raw()
        return (f"({expr} & {_MASK[raw]})" if raw else expr), deps

    def _pop_signed(self, bits: int) -> tuple[str, set]:
        """Pop an operand's signed value: a slot that already holds it is
        taken as it stands, any other is masked and re-signed."""
        if self._form and self._form[-1] == ("signed", bits):
            expr, deps, _raw = self._pop_raw()
            return expr, deps
        expr, deps = self._pop()
        return self._signed_expr(expr, bits), deps

    def _materialize(self, k: int, out: list[str], force: bool = False) -> None:
        """Pin slot ``k``'s pending expression into a fresh temporary."""
        if not force and _SIMPLE_EXPR.fullmatch(self._sym[k]):
            return
        t = self._temp()
        out.append(f"{t} = {_masked(self._sym[k], self._raw[k])}")
        self._sym[k] = t
        self._deps[k] = set()
        self._raw[k] = 0
        self._form[k] = None

    def _barrier(self, var, out: list[str]) -> None:
        """A variable is about to be written: pin every expression reading it.

        ``var`` is a local's index or a global's ``_g{index}`` name.
        ``force=True`` because a bare ``l{index}`` slot — simple, but about to
        change value — must be copied out before the write.
        """
        for k in range(len(self._sym)):
            if var in self._deps[k]:
                self._materialize(k, out, force=True)

    def _pop_simple(self, out: list[str]) -> tuple[str, set]:
        """Pop an operand that the consumer will evaluate more than once
        (canonical: a raw one is materialised)."""
        if self._sym and not _SIMPLE_EXPR.fullmatch(self._sym[-1]):
            self._materialize(len(self._sym) - 1, out)
        return self._pop()

    # -- one non-control instruction over the symbolic stack -------------------

    def _emit_op(self, instr: Instr, j: int, out: list[str]) -> None:
        name = instr.name
        if name == "nop":
            return
        if name == "drop":
            self._pop_raw()
            return
        if name == "select":
            c, cd = self._pop()
            b, bd, rb = self._pop_raw()
            a, ad, ra = self._pop_raw()
            cond, when = self._conds.get(c, (c, 1))
            if not when:
                a, b = b, a
            self._push(f"({a} if {cond} else {b})", ad | bd | cd, out, ra or rb)
            return
        if name == "local.get":
            idx = instr.args[0]
            self._push(f"l{idx}", {idx}, out)
            return
        if name in ("local.set", "local.tee"):
            idx = instr.args[0]
            e, _deps, raw = self._pop_raw()
            self._barrier(idx, out)
            out.append(f"l{idx} = {_masked(e, raw)}")
            if name == "local.tee":
                self._push(f"l{idx}", {idx}, out)
            return
        if name == "global.get":
            # pending like a local, so a counter increment (global.get;
            # i64.const; i64.add; global.set) is one statement
            g = f"_g{instr.args[0]}"
            self._push(f"{g}.value", {g}, out)
            return
        if name == "global.set":
            g = f"_g{instr.args[0]}"
            e, _deps, raw = self._pop_raw()
            self._barrier(g, out)
            out.append(f"{g}.value = {_masked(e, raw)}")
            return
        if name.endswith(".const"):
            value = instr.args[0]
            lit = self._float_literal(value) if isinstance(value, float) else repr(value)
            self._push(lit, set(), out)
            return
        if name == "memory.size":
            if not self.has_memory:
                self._trap_point(j, out)
                out.append('raise Trap("no memory")')
                self._push("0", set(), out)  # unreachable; keep depth consistent
                return
            t = self._temp()
            out.append(f"{t} = M.pages")
            self._push(t, set(), out)
            return

        prefix, _, suffix = name.partition(".")
        if "load" in suffix or "store" in suffix:
            self._emit_memory_access(instr, name, prefix, suffix, j, out)
        elif prefix in ("i32", "i64"):
            self._emit_int(name, suffix, prefix, j, out)
        else:
            self._emit_float(name, suffix, prefix, out)

    def _emit_memory_access(self, instr, name, prefix, suffix, j, out) -> None:
        is_store = "store" in suffix
        if not self.has_memory:
            self._trap_point(j, out)
            out.append('raise Trap("no memory")')
            # keep static depth bookkeeping consistent (code is unreachable)
            if is_store:
                self._pop()
                self._pop()
            else:
                self._pop()
                self._push("0", set(), out)
            return
        _align, offset = instr.args
        vt_bits = 32 if prefix in ("i32", "f32") else 64
        width = vt_bits // 8
        for marker, w in (("8", 1), ("16", 2), ("32", 4)):
            if suffix.endswith((f"load{marker}_s", f"load{marker}_u", f"store{marker}")):
                width = w
                break
        raw = 0
        if is_store:
            if prefix == "f32":
                val, _val_deps = self._pop_simple(out)
            else:
                val, _val_deps, raw = self._pop_raw()
        kind = "write" if is_store else "read"
        self._trap_point(j, out)
        self._seg_oob[j] = f"{kind} of {width} bytes at"
        index = self._view_index(name, offset)
        if index is not None:
            self._pop_raw()
            # a typed-view subscript: an index past the end raises
            # IndexError, which the batch's except turns into the same
            # text, from the byte address recomputed there
            attr, view, k = _VIEW_ACCESS[name]
            self.views[view] = attr
            addr = f"(({index}) << {k})"
            self._seg_view[j] = addr
            access = f"{view}[{index}]"
            cost_addr = addr
        else:
            # a u32 base plus a u32 offset is below 2**33: no wrap-around
            # mask.  Struct does the bounds check: unpack_from/pack_into
            # raise struct.error past the end (addresses are never
            # negative), which the batch's except turns into
            # LinearMemory.read/write's text, from the address in _a
            base, _bd = self._pop()
            blit = _as_int(base)
            if blit is not None:
                addr = repr(blit + offset)
            else:
                addr = f"{base} + {offset}" if offset else base
            access, cost_addr = None, "_a"
        if is_store:
            if prefix == "f32":
                # mirror LinearMemory.store_f32's out-of-range clamp to inf
                out.append(f"try: _Sf4(_mb, _a := {addr}, {val})")
                out.append(
                    f"except OverflowError: "
                    f"_Sf4(_mb, _a, _INF if {val} > 0 else -_INF)"
                )
            else:
                # the width mask reduces a raw value too; a canonical one
                # stored at full width needs none
                if raw or width * 8 < vt_bits:
                    val = f"{val} & {hex((1 << (width * 8)) - 1)}"
                if access is not None:
                    out.append(f"{access} = {val}")
                elif prefix == "f64":
                    out.append(f"_Sf8(_mb, _a := {addr}, {val})")
                else:
                    out.append(f"_S{width}(_mb, _a := {addr}, {val})")
            self._seg_mem[1] += 1
            self._seg_mem[3] += width
            if self.cost_on:
                out.append(f"S.cycles += C.memory_access_cycles({cost_addr}, {width}, True)")
        else:
            t = self._temp()
            if access is not None:
                out.append(f"{t} = {access}")
            elif prefix == "f32":
                out.append(f"{t} = _Lf4(_mb, _a := {addr})[0]")
            elif prefix == "f64":
                out.append(f"{t} = _Lf8(_mb, _a := {addr})[0]")
            else:
                signed = suffix.endswith("_s")
                expr = f"_L{width}{'s' if signed else 'u'}(_mb, _a := {addr})[0]"
                if signed:
                    expr += f" & {hex((1 << vt_bits) - 1)}"
                out.append(f"{t} = {expr}")
            self._seg_mem[0] += 1
            self._seg_mem[2] += width
            if self.cost_on:
                out.append(f"S.cycles += C.memory_access_cycles({cost_addr}, {width}, False)")
            self._push(t, set(), out)

    def _view_index(self, name: str, offset: int) -> str | None:
        """The element index of an access that provably lands on a
        multiple of its width, else ``None`` (the access keeps ``struct``).

        Its base (the slot on top of the stack) must be an ``i32.shl`` by
        log2 of the width, and its offset a multiple of the width; then
        ``((x << k) & 0xffffffff) + offset`` is ``((x & (0xffffffff >> k))
        + offset // width) << k``, and the index is that sum.
        """
        spec = _VIEW_ACCESS.get(name)
        if spec is None or not _NATIVE_LITTLE_ENDIAN:
            return None
        k = spec[2]
        form = self._form[-1] if self._form else None
        if form is None or form[0] != "shl" or form[2] != k or offset % (1 << k):
            return None
        operand, off = form[1], offset >> k
        lit = _as_int(operand)
        if lit is not None:
            return repr((lit & (0xFFFFFFFF >> k)) + off)
        index = f"{operand} & {hex(0xFFFFFFFF >> k)}"
        return f"({index}) + {off}" if off else index

    @staticmethod
    def _biased(expr: str, bits: int) -> str:
        """``expr`` with its sign bit flipped: unsigned order of the result
        is the signed order of ``expr`` (literals fold)."""
        sign = 1 << (bits - 1)
        lit = _as_int(expr)
        if lit is not None:
            return repr((lit % (1 << bits)) ^ sign)
        return f"({expr} ^ {hex(sign)})"

    @staticmethod
    def _signed_expr(expr: str, bits: int) -> str:
        """The signed value of ``expr``, inline (literals fold)."""
        lit = _as_int(expr)
        if lit is not None:
            return repr(_signed(lit % (1 << bits), bits))
        sign = hex(1 << (bits - 1))
        return f"(({expr} ^ {sign}) - {sign})"

    def _push_cond(self, cond: str, deps: set, out: list[str], when: int = 1) -> None:
        """Push a compare: ``when`` if ``cond`` holds, else the other of 0/1.
        Kept in :attr:`_conds`, so an ``eqz`` of it flips ``when`` instead of
        nesting a second conditional."""
        expr = f"({when} if {cond} else {1 - when})"
        self._conds[expr] = (cond, when)
        self._push(expr, deps, out)

    def _emit_int(self, name, suffix, prefix, j, out) -> None:
        bits = 32 if prefix == "i32" else 64
        mask = hex((1 << bits) - 1)

        if suffix in _I_BIN:
            b, bd, _rb = self._pop_raw()
            a, ad, _ra = self._pop_raw()
            self._push(f"({a} {_I_BIN[suffix]} {b})", ad | bd, out, bits)
            return
        if suffix in _I_BIT:
            b, bd, rb = self._pop_raw()
            a, ad, ra = self._pop_raw()
            # a canonical operand bounds an `and` to [0, 2**bits)
            raw = (ra and rb) if suffix == "and" else (ra or rb)
            self._push(f"({a} {_I_BIT[suffix]} {b})", ad | bd, out, raw)
            return
        # a shift count is taken mod bits, which divides 2**bits: it may be raw
        if suffix == "shl":
            b, bd, _rb = self._pop_raw()
            a, ad, _ra = self._pop_raw()
            blit = _as_int(b)
            if blit is not None:
                k = blit % bits
                # an i32 shift is kept apart: it may be an aligned address
                form = ("shl", a, k) if bits == 32 else None
                self._push(f"({a} << {k})", ad | bd, out, bits, form)
            else:
                self._push(f"(({a} << ({b} % {bits})) & {mask})", ad | bd, out)
            return
        if suffix == "shr_u":
            b, bd, _rb = self._pop_raw()
            a, ad = self._pop()
            blit = _as_int(b)
            shift = repr(blit % bits) if blit is not None else f"({b} % {bits})"
            self._push(f"({a} >> {shift})", ad | bd, out)
            return
        if suffix == "shr_s":
            b, bd, _rb = self._pop_raw()
            sa, ad = self._pop_signed(bits)
            blit = _as_int(b)
            shift = repr(blit % bits) if blit is not None else f"({b} % {bits})"
            self._push(f"({sa} >> {shift})", ad | bd, out, bits, ("signed", bits))
            return
        if suffix in ("rotl", "rotr"):
            b, bd, _rb = self._pop_raw()
            a, ad = self._pop()
            self._push(f"_{suffix}({a}, {b}, {bits})", ad | bd, out)
            return
        if suffix in _I_CMP_U:
            b, bd = self._pop()
            a, ad = self._pop()
            self._push_cond(f"{a} {_I_CMP_U[suffix]} {b}", ad | bd, out)
            return
        if suffix in _I_CMP_S:
            b, bd = self._pop()
            a, ad = self._pop()
            sa = self._biased(a, bits)
            sb = self._biased(b, bits)
            self._push_cond(f"{sa} {_I_CMP_S[suffix]} {sb}", ad | bd, out)
            return
        if suffix == "eqz":
            a, ad = self._pop()
            cond, when = self._conds.get(a, (f"{a} == 0", 0))
            self._push_cond(cond, ad, out, 1 - when)
            return
        if suffix in ("clz", "ctz"):
            a, ad = self._pop()
            self._push(f"_{suffix}({a}, {bits})", ad, out)
            return
        if suffix == "popcnt":
            a, ad = self._pop()
            self._push(f'bin({a}).count("1")', ad, out)
            return
        if suffix in ("div_u", "rem_u"):
            op = "//" if suffix == "div_u" else "%"
            blit = _as_int(self._sym[-1]) if self._sym else None
            c = blit % (1 << bits) if blit is not None else 0
            if c:
                # a nonzero literal divisor: no trap, no mask (the result
                # is no larger than the dividend)
                self._pop()
                if c == 1 and op == "//":
                    return  # the dividend stays
                a, ad = self._pop()
                if c == 1:
                    self._push("0", set(), out)
                else:
                    self._push(f"({a} {op} {c})", ad, out)
                return
            b, _bd = self._pop()
            a, _ad = self._pop()
            t = self._temp()
            self._trap_point(j, out)
            if blit is None:
                tb = self._temp()
                out.append(f"{tb} = {b}")
                out.append(f'if {tb} == 0: raise Trap("integer divide by zero")')
                b = tb
            else:  # a zero literal
                out.append('raise Trap("integer divide by zero")')
            # canonical operands: the quotient or remainder is canonical too
            out.append(f"{t} = {a} {op} {b}")
            self._push(t, set(), out)
            return
        if suffix in ("div_s", "rem_s"):
            blit = _as_int(self._sym[-1]) if self._sym else None
            c = _signed(blit % (1 << bits), bits) if blit is not None else 0
            if c:
                self._pop()
                self._emit_divrem_s_by(suffix, c, bits, j, out)
                return
            b, _bd = self._pop_signed(bits)
            a, _ad = self._pop_signed(bits)
            t = self._temp()
            self._trap_point(j, out)
            if blit is None:
                tb = self._temp()
                out.append(f"{tb} = {b}")
                out.append(f'if {tb} == 0: raise Trap("integer divide by zero")')
                sb = tb
            else:  # a zero literal
                out.append('raise Trap("integer divide by zero")')
                sb = "0"
            ta = self._temp()
            out.append(f"{ta} = {a}")
            if suffix == "div_s":
                sign_bit = hex(1 << (bits - 1))
                out.append(
                    f"if {ta} == -{sign_bit} and {sb} == -1: "
                    'raise Trap("integer overflow")'
                )
                out.append(f"{t} = _trunc_div({ta}, {sb}) & {mask}")
            else:
                out.append(f"{t} = _trunc_rem({ta}, {sb}) & {mask}")
            self._push(t, set(), out)
            return
        if suffix.startswith("trunc_f"):
            a, _ad = self._pop()
            t = self._temp()
            self._trap_point(j, out)
            out.append(f"{t} = _trunc_to_int({a}, {bits}, {suffix.endswith('_s')})")
            self._push(t, set(), out)
            return
        if suffix == "wrap_i64":
            a, ad, _ra = self._pop_raw()  # the mask reduces a raw i64 too
            self._push(f"({a} & 0xffffffff)", ad, out)
            return
        if suffix == "extend_i32_s":
            a, ad = self._pop_signed(32)
            self._push(a, ad, out, 64)
            return
        if suffix == "extend_i32_u":
            if self._raw and self._raw[-1]:
                a, ad = self._pop()  # a canonical i32 is already below 2**32
                self._push(a, ad, out)
            return
        if suffix == "reinterpret_f32":
            a, ad = self._pop()
            self._push(f'_up("<I", _pk("<f", _rf32({a})))[0]', ad, out)
            return
        if suffix == "reinterpret_f64":
            a, ad = self._pop()
            self._push(f'_up("<Q", _pk("<d", {a}))[0]', ad, out)
            return
        raise CompileError(f"no translation for {name}")

    def _emit_divrem_s_by(self, suffix: str, c: int, bits: int, j: int, out) -> None:
        """``div_s``/``rem_s`` by the nonzero literal ``c`` (signed value),
        inline: truncating arithmetic on the unsigned operand, with no
        helper call and no zero test.  Only ``div_s`` by -1 can trap.  A
        negative result is left raw; apart from ``div_s`` by -1, the result
        is the signed value itself, so a signed consumer takes it as it
        stands."""
        sign, mod = hex(1 << (bits - 1)), hex(1 << bits)
        m = abs(c)
        if suffix == "rem_s":
            if m == 1:
                self._pop_raw()
                self._push("0", set(), out)
                return
            # the remainder takes the dividend's sign
            a, ad = self._pop_simple(out)
            self._push(
                f"({a} % {m} if {a} < {sign} else -(({mod} - {a}) % {m}))",
                ad, out, bits, ("signed", bits),
            )
            return
        if c == 1:
            return  # the dividend stays
        a, ad = self._pop_simple(out)
        if c == -1:
            self._trap_point(j, out)
            out.append(f'if {a} == {sign}: raise Trap("integer overflow")')
            self._push(f"(-{a})", ad, out, bits)
            return
        # |quotient| = |dividend| // |c|, negative when the signs differ
        neg = f"(({mod} - {a}) // {m})"
        if c > 0:
            expr = f"({a} // {m} if {a} < {sign} else -{neg})"
        else:
            expr = f"(-({a} // {m}) if {a} < {sign} else {neg})"
        self._push(expr, ad, out, bits, ("signed", bits))

    def _emit_float(self, name, suffix, prefix, out) -> None:
        narrow = prefix == "f32"

        def wrap(expr: str) -> str:
            return f"_rf32({expr})" if narrow else expr

        if suffix in ("add", "sub", "mul"):
            b, bd = self._pop()
            a, ad = self._pop()
            op = {"add": "+", "sub": "-", "mul": "*"}[suffix]
            self._push(wrap(f"({a} {op} {b})"), ad | bd, out)
            return
        if suffix == "div":
            lit = _as_float(self._sym[-1]) if self._sym else None
            if lit is not None and lit != 0.0 and math.isfinite(lit):
                # a nonzero finite literal divisor: plain division
                b, bd = self._pop()
                a, ad = self._pop()
                self._push(wrap(f"({a} / {b})"), ad | bd, out)
                return
            b, bd = self._pop_simple(out)
            a, ad = self._pop_simple(out)
            # wasm float division: 0-divisor produces nan or signed infinity
            self._push(
                wrap(
                    f"(({a} / {b}) if {b} != 0.0 else "
                    f"(_NAN if ({a} == 0.0 or {a} != {a}) "
                    f"else _cps(_INF, {a}) * _cps(1.0, {b})))"
                ),
                ad | bd,
                out,
            )
            return
        if suffix in ("min", "max"):
            b, bd = self._pop()
            a, ad = self._pop()
            fn = "_fmin" if suffix == "min" else "_fmax"
            self._push(wrap(f"{fn}({a}, {b})"), ad | bd, out)
            return
        if suffix == "copysign":
            b, bd = self._pop()
            a, ad = self._pop()
            self._push(wrap(f"_cps({a}, {b})"), ad | bd, out)
            return
        if suffix in _F_CMP:
            b, bd = self._pop()
            a, ad = self._pop()
            self._push(f"(1 if {a} {_F_CMP[suffix]} {b} else 0)", ad | bd, out)
            return
        if suffix == "abs":
            a, ad = self._pop()
            self._push(wrap(f"abs({a})"), ad, out)
            return
        if suffix == "neg":
            a, ad = self._pop()
            self._push(wrap(f"(-{a})"), ad, out)
            return
        if suffix == "sqrt":
            a, ad = self._pop_simple(out)
            self._push(wrap(f"(_sqrt({a}) if {a} >= 0 else _NAN)"), ad, out)
            return
        if suffix in ("ceil", "floor", "trunc"):
            fn = {"ceil": "_mceil", "floor": "_mfloor", "trunc": "_mtrunc"}[suffix]
            a, ad = self._pop_simple(out)
            self._push(
                wrap(f"({a} if {a} != {a} or _isinf({a}) else float({fn}({a})))"),
                ad,
                out,
            )
            return
        if suffix == "nearest":
            a, ad = self._pop()
            self._push(wrap(f"_nearest({a})"), ad, out)
            return
        if suffix.startswith("convert_i"):
            cbits = 32 if "i32" in suffix else 64
            if suffix.endswith("_s"):
                a, ad = self._pop_signed(cbits)
            else:
                a, ad = self._pop()
            self._push(wrap(f"float({a})"), ad, out)
            return
        if suffix == "demote_f64":
            a, ad = self._pop()
            self._push(f"_rf32({a})", ad, out)
            return
        if suffix == "promote_f32":
            a, ad = self._pop()
            self._push(f"float({a})", ad, out)
            return
        if suffix == "reinterpret_i32":
            a, ad = self._pop()
            self._push(f'_up("<f", _pk("<I", {a}))[0]', ad, out)
            return
        if suffix == "reinterpret_i64":
            a, ad = self._pop()
            self._push(f'_up("<d", _pk("<Q", {a}))[0]', ad, out)
            return
        raise CompileError(f"no translation for {name}")


    def _prologue(self) -> None:
        """Function header: load the limits, then bind locals and registers —
        from the arguments on a fresh call, from the frame's lists (and with
        the threshold disarmed for the seek) on a resume."""
        self.emit(f"def _f{self.fidx}(_e, _stk, _loc):")
        self.ind += 1
        self.emit("S = _I.stats; V = S.visits; L = _I.limits")
        # mb: instruction budget, sa: capture point, mm: the nearer of both;
        # mi, the fast path's one threshold, is mm or the last count before
        # the next progress boundary, whichever is nearer (-1 while a
        # resume seeks its entry)
        self.emit("mb = L.max_instructions")
        self.emit("if mb is None: mb = _BIG")
        self.emit("sa = L.snapshot_at")
        self.emit("if sa is None: sa = _BIG")
        self.emit("mm = sa if sa < mb else mb")
        self.emit("pi = L.progress_interval")
        self.emit("_pb = pi is not None and L.progress_callback is not None")
        self.emit("P = _I._profiler")
        self.emit(f'_lbl = _I._func_labels[{self.fidx}] if P is not None else ""')
        self.emit("_ex = S.executed")
        self.emit("mi = mm")
        self.emit(_REARM)
        self.emit("_br = 0")
        self.emit(f"_SV = {self.kname}[0]")
        self.emit("@V0@")
        used = {m.args[0] for m in self.body if m.name in ("global.get", "global.set")}
        for g in sorted(used):
            self.emit(f"_g{g} = _G[{g}]")
        if self.has_memory:
            self.emit("M = _M")
            # the bytearray keeps its identity when it grows; the typed
            # views do not survive a size change (LinearMemory releases
            # them), so they are bound again after every call and grow
            self.emit("_mb = M._data")
            self.emit("@VIEWS@")
            if self.cost_on:
                self.emit("C = _C")
        if self.n_locals:
            self.emit("if not _e:")
            self.ind += 1
            n_params = len(self.functype.params)
            if n_params:
                self.emit(", ".join(f"l{i}" for i in range(n_params)) + ", = _loc")
            for i, vt in enumerate(self.func.locals):
                self.emit(f"l{n_params + i} = {'0' if vt.is_int else '0.0'}")
            self.ind -= 1
        # the body runs in a loop: a slow path (raise _SLOW) leaves it for
        # the handler emitted by _epilogue, which re-enters it like a resume
        self.emit("while True:")
        self.ind += 1
        self.emit("if _e:")
        self.ind += 1
        if self.n_locals:
            self.emit(", ".join(f"l{i}" for i in range(self.n_locals)) + ", = _loc")
        self.emit("@STACK@")  # register unpack, patched once depth is known
        self.emit("_mi = mi; mi = -1")
        self.ind -= 1
        self.emit("try:")
        self.ind += 1

    def _epilogue(self) -> None:
        """Close the body's ``try`` with the one slow path of the function.

        A batch a budget, capture or progress boundary falls inside leaves
        the body with ``_e`` naming it and ``_stk`` holding its operand
        stack.  The handler settles the deferred accounting, has the engine
        run the batch per instruction, re-arms the threshold and re-enters
        the body, which seeks past that batch as a resume does.  It runs
        after the ``try`` statement, so a trap or capture it raises does not
        carry the ``_SlowPath`` as its context.
        """
        self.ind -= 1
        self.emit("except _SLOW:")
        self.emit("    pass")
        self.emit("else:")
        self.emit("    break")
        self.emit(self._settle())
        locals_ = ", ".join(f"l{i}" for i in range(self.n_locals))
        self.emit(f"_loc = [{locals_}]")
        self.emit(f"_E._run_batch({self.fidx}, _e, _stk, _loc)")
        self.emit("@VIEWS@")  # a progress callback may have resized memory
        self.emit("_ex = S.executed")
        self.emit(_REARM)
        self.ind -= 2

    def _emit_call(self, pc: int, callee: str, np_: int, nres: int, base: int) -> None:
        """``_CALL`` with the popped arguments ``s{base}..``; a capture
        unwinding through it gets this frame as ``at_call`` (stack below
        the arguments)."""
        site = self.const((self.func_index, pc, self._control()))
        args = ", ".join(f"s{base + k}" for k in range(np_))
        call = f"_CALL({callee}, [{args}])"
        self.emit(f"try: {'_r = ' if nres else ''}{call}")
        self.emit(f"except _CU as _u: raise _CAPC(_u, {site}, {self._lists(base)})")
        if nres:
            self.emit(f"s{base} = _r[0]")
        self.emit("S.calls += 1")
        self.emit("@VIEWS@")
        self.emit("_ex = S.executed")
        self.emit(_REARM)

    def _patch_cond(self, frame: _Frame) -> None:
        """Seeking ``if``: once the true arm is emitted, the entries it
        holds are known — seeking one of them takes the true arm."""
        if frame.cond_line is not None:
            line = self.lines[frame.cond_line]
            self.lines[frame.cond_line] = line.replace("@HT@", str(len(self.steps)))
            frame.cond_line = None

    def translate(self) -> tuple[str, tuple, tuple]:
        module = self.module
        body = self.body
        n = len(body)
        if len(self.functype.results) > 1:
            raise CompileError("multi-result function")
        structs = build_structure_map(body)
        targeted, escaped = self._scan_targets()
        self._prologue()

        frames = self.frames
        reachable = True
        dead_depth = 0
        d = 0
        i = 0
        while i < n:
            self.max_d = max(self.max_d, d)
            instr = body[i]
            name = instr.name

            if not reachable:
                if name in ("block", "loop", "if"):
                    dead_depth += 1
                    i += 1
                    continue
                if name == "else" and dead_depth == 0:
                    frame = frames[-1]
                    self._patch_cond(frame)
                    self._close_suite(frame.marker)
                    self.emit("else:")
                    self.ind += 1
                    frame.marker = len(self.lines)
                    frame.in_else = True
                    reachable = True
                    d = frame.h
                    i += 1
                    continue
                if name == "end":
                    if dead_depth:
                        dead_depth -= 1
                        i += 1
                        continue
                    if frames:
                        reachable, d = self._close_frame(frames, reachable=False)
                        i += 1
                        continue
                i += 1
                continue

            if name not in SEGMENT_BARRIERS:
                start = i
                while i < n and body[i].name not in SEGMENT_BARRIERS:
                    i += 1
                d = self._queue_segment(start, i, d)
                continue

            if name == "block":
                self.emit_charge(name, i, d)
                wrapped = i in targeted
                results = len(instr.args[0])
                frames.append(
                    _Frame(
                        "block", d, results, results, wrapped, i in escaped, False,
                        i, structs[i].end,
                    )
                )
                if wrapped:
                    self.flush()
                    self.emit("while True:")
                    self.ind += 1
            elif name == "loop":
                wrapped = i in targeted
                results = len(instr.args[0])
                if wrapped:
                    self.flush()
                    self.emit("while True:")
                    self.ind += 1
                self.emit_charge(name, i, d)
                frames.append(
                    _Frame(
                        "loop", d, 0, results, wrapped, i in escaped, False,
                        i, structs[i].end,
                    )
                )
            elif name == "if":
                self.emit_charge(name, i, d)
                d -= 1
                wrapped = i in targeted
                results = len(instr.args[0])
                info = structs[i]
                frame = _Frame(
                    "if", d, results, results, wrapped, i in escaped,
                    info.else_ is not None, i, info.end,
                )
                self.flush()
                if wrapped:
                    self.emit("while True:")
                    self.ind += 1
                # the condition was popped before any capture inside
                frame.cond_line = len(self.lines)
                self.emit(f"if (_e <= @HT@ if _e else s{d}):")
                self.ind += 1
                frame.marker = len(self.lines)
                frames.append(frame)
            elif name == "else":
                frame = frames[-1]
                self.emit_charge(name, i, d)  # charged when the true arm falls through
                frame.end_reachable = True
                self.flush()
                self._patch_cond(frame)
                self._close_suite(frame.marker)
                self.emit("else:")
                self.ind += 1
                frame.marker = len(self.lines)
                frame.in_else = True
                d = frame.h
            elif name == "end":
                if frames:
                    if reachable:
                        frames[-1].end_reachable = True
                    reachable, d = self._close_frame(frames, reachable=reachable)
                else:
                    # function-level end (binary-decoded bodies keep it)
                    self.emit_charge(name, i, d)
            elif name == "br":
                self.emit_charge(name, i, d)
                self.flush()
                self._guard()
                self.emit_branch(instr.args[0], d, frames)
                self._unguard()
                reachable = False
            elif name == "br_if":
                self.emit_charge(name, i, d)
                self.flush()
                d -= 1
                self.emit(f"if s{d} and not _e:")
                self.ind += 1
                self.emit_branch(instr.args[0], d, frames)
                self.ind -= 1
            elif name == "br_table":
                self.emit_charge(name, i, d)
                self.flush()
                d -= 1
                self._guard()
                depths, default = instr.args
                if depths:
                    tbl = self.const(tuple(depths))
                    self.emit(f"_x = s{d}")
                    self.emit(
                        f"_t = {tbl}[_x] if _x < {len(depths)} else {default}"
                    )
                else:
                    self.emit(f"_t = {default}")
                unique = sorted(set(depths) | {default})
                if len(unique) == 1:
                    self.emit_branch(unique[0], d, frames)
                else:
                    for pos, depth in enumerate(unique):
                        if pos < len(unique) - 1:
                            kw = "if" if pos == 0 else "elif"
                            self.emit(f"{kw} _t == {depth}:")
                        else:
                            self.emit("else:")
                        self.ind += 1
                        self.emit_branch(depth, d, frames)
                        self.ind -= 1
                self._unguard()
                reachable = False
            elif name == "return":
                self.emit_charge(name, i, d)
                self.emit_return(d)
                reachable = False
            elif name == "unreachable":
                self.emit_charge(name, i, d)
                self.flush()
                self._guard()
                self.emit(self._settle(zero=False))
                self.emit('raise Trap("unreachable executed")')
                self._unguard()
                reachable = False
            elif name == "call":
                target = instr.args[0]
                ftype = module.func_type(target)
                np_, nres = len(ftype.params), len(ftype.results)
                if nres > 1:
                    raise CompileError("multi-result callee")
                self.emit_charge(name, i, d)
                self.flush()
                self._guard()
                self.emit(self._settle())
                self._emit_call(i, str(target), np_, nres, d - np_)
                self._unguard()
                d = d - np_ + nres
            elif name == "call_indirect":
                expected = module.types[instr.args[0]]
                np_, nres = len(expected.params), len(expected.results)
                if nres > 1:
                    raise CompileError("multi-result callee")
                self.emit_charge(name, i, d)
                self.flush()
                self._guard()
                self.emit(self._settle())
                tk = self.const(expected)
                self.emit(f"_x = s{d - 1}")
                self.emit(
                    "if _T is None or _x >= len(_T.elements): "
                    'raise Trap("undefined table element")'
                )
                self.emit("_g = _T.elements[_x]")
                self.emit('if _g is None: raise Trap("uninitialized table element")')
                self.emit(
                    f"if _FT(_g) != {tk}: "
                    'raise Trap("indirect call type mismatch")'
                )
                self._emit_call(i, "_g", np_, nres, d - 1 - np_)
                self._unguard()
                d = d - 1 - np_ + nres
            elif name == "memory.grow":
                self.emit_charge(name, i, d)
                self.flush()
                self._guard()
                if not self.has_memory:
                    self.emit(self._settle(zero=False))
                    self.emit('raise Trap("no memory")')
                else:
                    self.emit(f"_r = M.grow(s{d - 1})")
                    self.emit("@VIEWS@")
                    self.emit(
                        "if _r >= 0: S.grow_history.append((_ex, M.pages))"
                    )
                    self.emit(f"s{d - 1} = _r & 0xffffffff")
                self._unguard()
            else:  # pragma: no cover - barrier set is closed
                raise CompileError(f"unhandled control instruction {name}")
            i += 1

        self.max_d = max(self.max_d, d)
        if reachable:
            self.emit_return(d)
        if frames:
            raise CompileError("unbalanced control structure")
        self._epilogue()

        regs = ", ".join(f"s{k}" for k in range(self.max_d))
        unpack = (
            f"            {regs}, = _stk + [0] * ({self.max_d} - len(_stk))"
            if self.max_d else ""
        )
        self.lines = [unpack if ln == "            @STACK@" else ln for ln in self.lines]
        # bind the typed views the accesses index (none: the lines go)
        bind = "; ".join(f"{view} = M.{attr}" for view, attr in sorted(self.views.items()))
        self.lines = [
            ln.replace("@VIEWS@", bind) for ln in self.lines if bind or ln.strip() != "@VIEWS@"
        ]
        self.consts[0] = tuple(self.batches)
        counts = [f"_v{k}" for k in range(1, len(self.batches) + 1)]
        source = (
            "\n".join(self.lines).replace("@VS@", f"({', '.join(counts)},)" if counts else "()")
            .replace("@V0@", " = ".join(counts + ["0"]) if counts else "pass")
        )
        return source + "\n", tuple(self.consts), tuple(self.segs)

    def _close_frame(self, frames: list, reachable: bool) -> tuple[bool, int]:
        """Emit the close of the innermost construct; returns (reachable, d)."""
        frame = frames.pop()
        if frame.kind == "if":
            if not frame.in_else and not frame.has_else:
                # the false path jumps straight to end: end is always live
                frame.end_reachable = True
            self.flush()  # pending batch belongs inside the open arm
            self._patch_cond(frame)
            self._close_suite(frame.marker)  # close the open arm
            if frame.wrapped:
                self.emit("break")
                self.ind -= 1  # close while
                self._cascade(frame, frames)
            end_live = frame.end_reachable or frame.wrapped
        elif frame.kind == "block":
            if frame.wrapped:
                self.flush()  # pending batch belongs inside the while body
                self.emit("break")
                self.ind -= 1
                self._cascade(frame, frames)
            end_live = frame.end_reachable or frame.wrapped
        else:  # loop
            if frame.wrapped:
                self.flush()  # pending batch belongs inside the while body
                if frame.end_reachable:
                    self.emit("break")
                else:
                    # only reached while seeking an entry past the loop
                    self.emit("if _e: break")
                self.ind -= 1
                self._cascade(frame, frames)
            end_live = frame.end_reachable
        d = frame.h + frame.results
        if end_live:
            self.emit_charge("end", frame.ctl[2], d, self._control() + (frame.ctl,))
        return end_live, d


# ---------------------------------------------------------------------------
# Module translation + caching
# ---------------------------------------------------------------------------


def _module_has_memory(module) -> bool:
    if module.memories:
        return True
    return any(imp.kind == "memory" for imp in module.imports)


def _translate_module(module, cost_model) -> _ModuleCode:
    has_memory = _module_has_memory(module)
    funcs = []
    for index in range(len(module.funcs)):
        try:
            translator = _Translator(module, index, cost_model, has_memory)
            source, consts, segs = translator.translate()
            code = compile(source, f"<wasm-compile:{index}>", "exec")
        except CompileError as exc:
            funcs.append(_FuncCode(None, (), (), error=str(exc)))
        except (SyntaxError, RecursionError, MemoryError) as exc:
            funcs.append(_FuncCode(None, (), (), error=repr(exc)))
        else:
            entry_at = [0] * len(module.funcs[index].body)
            for batch, steps in enumerate(translator.steps, 1):
                for step in steps:
                    entry_at[step[0]] = batch
            funcs.append(
                _FuncCode(code, consts, segs, tuple(translator.steps), entry_at)
            )
    return _ModuleCode(funcs)


def _module_code(instance) -> _ModuleCode:
    module, cost_model = instance.module, instance.cost_model
    key = _module_key(instance)
    if key is None:
        return _translate_module(module, cost_model)
    return CODE_CACHE.get_or_build(key, lambda: _translate_module(module, cost_model))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


#: The instance-independent names generated code reads (each instance's
#: namespace copies this and adds its own state).
_SHARED_NAMESPACE = {
    "__builtins__": __builtins__,
    "_CU": CaptureUnwind,
    "Trap": Trap,
    "MemoryAccessError": MemoryAccessError,
    # what an access past the end raises: struct, or a typed view
    "_OOB": (struct.error, IndexError),
    # not "_f32": generated functions are named _f{index}
    "_rf32": _f32,
    "_fv": _flush_visits,
    "_SLOW": _SlowPath,
    "_trunc_div": _trunc_div,
    "_trunc_rem": _trunc_rem,
    "_trunc_to_int": _trunc_to_int,
    "_clz": _clz,
    "_ctz": _ctz,
    "_rotl": _rotl,
    "_rotr": _rotr,
    "_fmin": _float_min,
    "_fmax": _float_max,
    "_nearest": _nearest,
    "_cps": math.copysign,
    "_sqrt": math.sqrt,
    "_isinf": math.isinf,
    "_mceil": math.ceil,
    "_mfloor": math.floor,
    "_mtrunc": math.trunc,
    "_pk": struct.pack,
    "_up": struct.unpack,
    "_INF": math.inf,
    "_NAN": math.nan,
    # "no limit": an int past any reachable count, so the threshold test
    # compares two ints (an int against float("inf") is slower)
    "_BIG": 1 << 62,
    # prebound Struct methods for inline linear-memory access
    "_L1s": struct.Struct("<b").unpack_from,
    "_L1u": struct.Struct("<B").unpack_from,
    "_L2s": struct.Struct("<h").unpack_from,
    "_L2u": struct.Struct("<H").unpack_from,
    "_L4s": struct.Struct("<i").unpack_from,
    "_L4u": struct.Struct("<I").unpack_from,
    "_L8u": struct.Struct("<Q").unpack_from,
    "_S1": struct.Struct("<B").pack_into,
    "_S2": struct.Struct("<H").pack_into,
    "_S4": struct.Struct("<I").pack_into,
    "_S8": struct.Struct("<Q").pack_into,
    "_Lf4": struct.Struct("<f").unpack_from,
    "_Lf8": struct.Struct("<d").unpack_from,
    "_Sf4": struct.Struct("<f").pack_into,
    "_Sf8": struct.Struct("<d").pack_into,
}


class CompiledEngine:
    """Executes an :class:`~repro.wasm.interpreter.Instance`'s functions from
    generated Python code.  Created by ``Instance(..., engine="compile")``."""

    def __init__(self, instance):
        self.instance = instance
        #: per-function fallback: compiles lazily, only for functions the
        #: translator declined (PredecodedEngine without compile_all)
        self._fallback = PredecodedEngine(instance)
        mc = _module_code(instance)
        self._module_code = mc
        ns = self._make_namespace()
        fns: list = []
        for index, fc in enumerate(mc.funcs):
            if fc.code is None:
                fns.append(None)
            else:
                ns[f"_K{index}"] = fc.consts
                exec(fc.code, ns)
                fns.append(ns[f"_f{index}"])
        self._fns = fns
        #: predecode closures the slow paths built so far: index -> {pc: op}
        self._ops: dict[int, dict] = {}
        #: defined-function indices running on the predecode fallback
        self.fallback_functions = tuple(
            index for index, fc in enumerate(mc.funcs) if fc.code is None
        )

    def _make_namespace(self) -> dict:
        instance = self.instance
        ns = dict(_SHARED_NAMESPACE)
        ns.update(
            _I=instance,
            _E=self,
            _M=instance.memory,
            _G=instance.globals,
            _T=instance.table,
            _C=instance.cost_model,
            _CALL=instance.call_function,
            _CAPC=self._append_frame,
            _FT=instance.module.func_type,
        )
        return ns

    def exec_function(
        self, defined_index: int, args: list, resume: tuple | None = None
    ) -> list:
        """Run one defined function; ``resume=(pc, stack, locals, control)``
        re-enters a suspended frame instead.  With ``limits.snapshot_at``
        set, the first observation point at or past it raises
        :class:`CaptureUnwind` carrying this frame."""
        fn = self._fns[defined_index]
        if fn is None:
            return self._fallback.exec_function(defined_index, args, resume)
        if resume is None:
            return fn(0, None, args)
        return self._resume(defined_index, *resume)

    # -- suspend / resume -----------------------------------------------------------

    @classmethod
    def _capture_at(cls, site: tuple, stack: list, locals_: list) -> CaptureUnwind:
        """A capture at ``site = (func_index, pc, control)``, before ``pc``."""
        return cls._append_frame(CaptureUnwind(), site, stack, locals_, "at_current")

    @staticmethod
    def _append_frame(
        unwind: CaptureUnwind, site: tuple, stack: list, locals_: list,
        kind: str = "at_call",
    ) -> CaptureUnwind:
        """Append this frame to ``unwind`` (by default: one passing through
        the call at ``site``)."""
        func_index, pc, control = site
        unwind.frames.append(
            CapturedFrame(func_index, pc, tuple(stack), tuple(locals_), control, kind)
        )
        return unwind

    def _resume(self, defined_index: int, pc: int, stack: list, locals_: list, control) -> list:
        """Re-enter a suspended frame: finish the charge batch the capture
        fell inside per instruction, as the slow path does, then enter the
        function seeking the end of that batch."""
        fc = self._module_code.funcs[defined_index]
        batch = fc.entry_at[pc] if 0 <= pc < len(fc.entry_at) else 0
        if not batch:  # suspended past the last instruction
            module = self.instance.module
            n_results = len(
                module.func_type(module.num_imported_funcs + defined_index).results
            )
            if len(stack) < n_results:
                raise Trap("function returned with empty stack")
            return stack[len(stack) - n_results:]
        steps = fc.batch_steps[batch - 1]
        first = next(k for k, step in enumerate(steps) if step[0] == pc)
        self._run_batch(defined_index, batch, stack, locals_, first)
        return self._fns[defined_index](batch, stack, locals_)

    # -- per-instruction slow paths ---------------------------------------------

    def _run_batch(
        self, defined_index: int, batch: int, stack: list, locals_: list,
        first: int = 0,
    ) -> None:
        """Run a charge batch per instruction from its ``first`` step: the
        slow path of a batch a budget, capture or progress boundary falls
        inside, and the rest of the batch a resumed capture fell inside.

        Each instruction is charged in the reference order of
        :mod:`repro.wasm.predecode` (capture, charge, budget trap, progress
        callback); a non-control one then runs through the reference's
        closure for it, built on first use per instance and pc (a hop
        builds only what it steps).  Reaching the first instruction of the
        batch's basic block reports its entry to an active profiler, before
        the capture test, as the reference does.
        """
        inst = self.instance
        stats, limits = inst.stats, inst.limits
        visits = stats.visits
        cost_on = inst.cost_model is not None
        func_index = inst.module.num_imported_funcs + defined_index
        ops = self._ops.get(defined_index)
        if ops is None:
            ops = self._ops[defined_index] = {}
        steps = self._module_code.funcs[defined_index].batch_steps[batch - 1]
        prof = inst._profiler
        block_pc = None
        if prof is not None:
            block = [step[0] for step in steps if step[4]]
            if block:
                block_pc, label = block[0], inst._func_labels[defined_index]
        for k in range(first, len(steps)):
            pc, name, cycles, control, is_op = steps[k]
            if pc == block_pc:
                prof.record_segment(label, pc, len(block))
            if limits.snapshot_at is not None and stats.executed >= limits.snapshot_at:
                raise self._capture_at((func_index, pc, control), stack, locals_)
            visits[name] += 1
            stats.executed += 1
            if cost_on:
                stats.cycles += cycles
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
            if is_op:
                op = ops.get(pc)
                if op is None:
                    body = inst.module.funcs[defined_index].body
                    op = ops[pc] = compile_simple(body[pc], inst)
                op(stack, locals_)

    def _unwind(self, defined_index: int, seg_index: int, failed_index: int) -> None:
        """Charge what ran of a batch whose basic block trapped.

        The trap path has taken the whole batch back; this charges its
        leading control instructions and the block up to ``failed_index``,
        the in-block position of the trapping instruction, which stays
        charged (in the reference order visits precede execution), plus
        the memory stats of the accesses completed before it.  Trailing
        control charges never happened.  An index of -1 means an
        instruction classified as non-trapping raised (invalid module); the
        whole block stays charged then.  The block's entry is reported to
        an active profiler here, since the batch counter no longer holds it.
        """
        fc = self._module_code.funcs[defined_index]
        batch, mem_prefix = fc.segs[seg_index]
        steps = fc.batch_steps[batch - 1]
        block = [k for k, step in enumerate(steps) if step[4]]
        ran = block[failed_index] + 1  # -1 (no trap point reached): all of it
        inst = self.instance
        stats = inst.stats
        visits = stats.visits
        cost_on = inst.cost_model is not None
        for _pc, name, cycles, _control, _is_op in steps[:ran]:
            visits[name] += 1
            if cost_on:
                stats.cycles += cycles
        stats.executed += ran
        loads, stores, bytes_loaded, bytes_stored = mem_prefix[failed_index]
        stats.loads += loads
        stats.bytes_loaded += bytes_loaded
        stats.stores += stores
        stats.bytes_stored += bytes_stored
        if inst._profiler is not None:
            inst._profiler.record_segment(
                inst._func_labels[defined_index], steps[block[0]][0], len(block)
            )
