"""WebAssembly stack-machine interpreter.

Executes validated modules with precise MVP semantics and, crucially for
AccTEE, *counts every instruction it visits*.  These visit counts are the
ground truth against which the instrumentation passes are verified: an
instrumented module's injected counter must equal the weighted visit count of
the original module on the same inputs.

Visit semantics are chosen so that control-flow joins are observable:

* ``end`` is visited on every path leaving its block — a branch to a
  block/if label jumps *to* the matching ``end`` (which pops the frame), and
  the true arm of an ``if``/``else`` jumps from ``else`` to the ``end``;
* a branch to a ``loop`` label re-visits the ``loop`` instruction itself,
  so the loop header starts a basic block executed once per iteration;
* ``return`` (and falling off the function body) leaves without visiting
  enclosing ``end`` markers.

The CFG builder in :mod:`repro.instrument.cfg` mirrors exactly these rules.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from repro.obs.profiler import active_profiler
from repro.wasm.costmodel import CostModel
from repro.wasm.engines import (
    ENGINE_NAMES,
    FALLBACK_ENGINE,
    UnknownEngineError,
    resolve_engine,
)
from repro.wasm.instructions import Instr
from repro.wasm.memory import LinearMemory, MemoryAccessError
from repro.wasm.module import Module
from repro.wasm.types import FuncType, GlobalType, ValType


class Trap(Exception):
    """A WebAssembly trap: execution aborts, no result is produced."""


@dataclass(frozen=True)
class CapturedFrame:
    """One suspended interpreter frame inside a snapshot.

    ``kind`` records how the frame suspended: ``"at_current"`` — the frame
    that hit the snapshot threshold; its ``pc`` instruction has not been
    charged or executed yet.  ``"at_call"`` — an ancestor frame suspended
    inside a ``call``/``call_indirect`` at ``pc``; its arguments are already
    popped, and resuming pushes the callee's results, counts the call and
    continues at ``pc + 1``.
    """

    func_index: int  # combined function index space (imports first)
    pc: int
    stack: tuple
    locals: tuple
    #: (opcode, start, end, stack_height, arity) per open control frame
    control: tuple
    kind: str  # "at_current" | "at_call"


class CaptureUnwind(BaseException):
    """Internal stack-unwind signal used while capturing a snapshot.

    A ``BaseException`` so generic ``except Exception`` handlers between the
    capture point and the top-level ``invoke`` cannot swallow it.  Each
    interpreter frame it passes through appends its :class:`CapturedFrame`
    (innermost first); ``invoke`` converts the finished unwind into a
    :class:`SnapshotCaptured`.
    """

    def __init__(self):
        self.frames: list[CapturedFrame] = []


class SnapshotCaptured(Exception):
    """Execution suspended at ``ExecutionLimits.snapshot_at``.

    Raised by :meth:`Instance.invoke` (and the snapshot package's resume
    helpers) instead of returning a value; ``.snapshot`` holds the full
    serializable execution state (:class:`repro.wasm.snapshot.Snapshot`).
    """

    def __init__(self, snapshot):
        super().__init__("execution state captured at observation point")
        self.snapshot = snapshot


#: Engine used when ``Instance(engine=None)`` and ``REPRO_WASM_ENGINE`` is
#: unset.  Kept for backwards compatibility; the registry in
#: :mod:`repro.wasm.engines` is the authoritative source (it reads the
#: environment variable at instantiation time, not import time).
DEFAULT_ENGINE = FALLBACK_ENGINE

#: Recognised values for ``Instance(engine=...)`` (re-exported from
#: :mod:`repro.wasm.engines` for backwards compatibility).
ENGINES = ENGINE_NAMES


class LinkError(Exception):
    """Raised at instantiation when imports cannot be satisfied."""


@dataclass
class ExecutionLimits:
    """Resource limits enforced during execution (the sandbox's outer guard)."""

    max_instructions: int | None = None
    max_call_depth: int = 500
    #: invoke ``progress_callback(stats)`` every this many executed
    #: instructions — the hook behind AccTEE's periodic accounting reports
    progress_interval: int | None = None
    progress_callback: Callable[["ExecutionStats"], None] | None = None
    #: arm state capture: suspend at the first observation point where
    #: ``stats.executed >= snapshot_at`` and raise :class:`SnapshotCaptured`
    #: from ``invoke`` carrying a :class:`repro.wasm.snapshot.Snapshot`.
    #: Every engine captures on its own frames (``compile`` from compiled
    #: code), the same engine-independent frames at the same point.
    snapshot_at: int | None = None


@dataclass
class ExecutionStats:
    """Counts collected while executing: the accounting ground truth."""

    visits: Counter = field(default_factory=Counter)
    executed: int = 0  # running total, kept alongside the per-name Counter
    cycles: float = 0.0
    loads: int = 0
    stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    calls: int = 0
    host_calls: int = 0
    #: (total_visits at the time, new page count) per successful memory.grow —
    #: drives the instruction-integral memory accounting policy (paper §3.5).
    grow_history: list[tuple[int, int]] = field(default_factory=list)

    @property
    def total_visits(self) -> int:
        return self.executed

    def weighted_visits(self, weights: dict[str, float]) -> float:
        """Total weight of all visited instructions under a weight table."""
        return sum(weights.get(name, 1.0) * n for name, n in self.visits.items())

    def unweighted_excluding(self, excluded: frozenset[str]) -> int:
        return sum(n for name, n in self.visits.items() if name not in excluded)


@dataclass
class HostFunction:
    """A host ("glue code") function callable from WebAssembly."""

    functype: FuncType
    fn: Callable[..., object]
    name: str = "<host>"


class GlobalInstance:
    """Runtime instance of a global variable."""

    def __init__(self, gtype: GlobalType, value):
        self.type = gtype
        self.value = value


class TableInstance:
    """Runtime funcref table (stores function indices or None)."""

    def __init__(self, minimum: int, maximum: int | None):
        self.elements: list[int | None] = [None] * minimum
        self.maximum = maximum


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _signed(value: int, bits: int) -> int:
    if value >= 1 << (bits - 1):
        return value - (1 << bits)
    return value


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trunc_rem(a: int, b: int) -> int:
    return a - _trunc_div(a, b) * b


def _f32(value: float) -> float:
    """Round a Python float to f32 precision."""
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _float_min(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def _float_max(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def _nearest(value: float) -> float:
    if math.isnan(value) or math.isinf(value):
        return value
    result = float(round(value))  # Python rounds half to even, as Wasm requires
    if result == 0.0 and math.copysign(1.0, value) < 0:
        return -0.0
    return result


def _trunc_to_int(value: float, bits: int, signed_result: bool) -> int:
    if math.isnan(value):
        raise Trap("invalid conversion to integer: NaN")
    if math.isinf(value):
        raise Trap("integer overflow in trunc")
    truncated = math.trunc(value)
    if signed_result:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    if truncated < lo or truncated > hi:
        raise Trap("integer overflow in trunc")
    return truncated & ((1 << bits) - 1)


def _clz(value: int, bits: int) -> int:
    if value == 0:
        return bits
    return bits - value.bit_length()


def _ctz(value: int, bits: int) -> int:
    if value == 0:
        return bits
    return (value & -value).bit_length() - 1


def _rotl(value: int, count: int, bits: int) -> int:
    count %= bits
    mask = (1 << bits) - 1
    return ((value << count) | (value >> (bits - count))) & mask


def _rotr(value: int, count: int, bits: int) -> int:
    count %= bits
    mask = (1 << bits) - 1
    return ((value >> count) | (value << (bits - count))) & mask


def function_labels(module: Module) -> tuple[str, ...]:
    """Human-readable labels for *defined* functions, for profiler reports.

    Preference order: export name, the WAT ``$identifier``, then a
    positional ``func[i]`` fallback (combined index space, imports first).
    """
    n_imported = module.num_imported_funcs
    labels = [""] * len(module.funcs)
    for export in module.exports:
        if export.kind == "func" and export.index >= n_imported:
            defined = export.index - n_imported
            if defined < len(labels) and not labels[defined]:
                labels[defined] = export.name
    for i, func in enumerate(module.funcs):
        if not labels[i]:
            labels[i] = func.name or f"func[{n_imported + i}]"
    return tuple(labels)


# ---------------------------------------------------------------------------
# Structure maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _StructInfo:
    """For a structured instruction at index i: its else/end partner indices."""

    end: int
    else_: int | None = None


def build_structure_map(body: Sequence[Instr]) -> dict[int, _StructInfo]:
    """Map each block/loop/if index to its matching else/end indices."""
    result: dict[int, _StructInfo] = {}
    stack: list[tuple[int, int | None]] = []  # (opener index, else index)
    for i, instr in enumerate(body):
        name = instr.name
        if name in ("block", "loop", "if"):
            stack.append((i, None))
        elif name == "else":
            if not stack:
                raise Trap("else without open block")
            opener, _ = stack.pop()
            stack.append((opener, i))
        elif name == "end":
            if not stack:
                raise Trap("end without open block")
            opener, else_index = stack.pop()
            result[opener] = _StructInfo(end=i, else_=else_index)
    if stack:
        raise Trap("unbalanced block structure")
    return result


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------


@dataclass
class _ControlEntry:
    opcode: str  # "block" | "loop" | "if"
    start: int
    end: int
    stack_height: int
    arity: int


class Instance:
    """An instantiated module, ready to invoke exported functions.

    ``imports`` maps ``module -> field -> object`` where objects are
    :class:`HostFunction`, :class:`LinearMemory`, :class:`GlobalInstance`
    or :class:`TableInstance`.

    ``engine`` selects the execution engine (see :mod:`repro.wasm.engines`):
    ``"predecode"`` (the default) compiles every function body once at
    instantiation into a flat handler array with per-basic-block visit
    batching, ``"compile"`` translates function bodies to Python source with
    folded meter counters (:mod:`repro.wasm.compile_engine`), and
    ``"legacy"`` keeps the original per-instruction string-dispatch loop.
    All three produce identical :class:`ExecutionStats`.
    """

    def __init__(
        self,
        module: Module,
        imports: dict[str, dict[str, object]] | None = None,
        cost_model: CostModel | None = None,
        limits: ExecutionLimits | None = None,
        engine: str | None = None,
        module_hash: bytes | None = None,
    ):
        self.module = module
        #: sha256 of ``encode_module(module)`` when the caller already holds
        #: it (see :attr:`module_hash`)
        self._module_hash = module_hash
        self.cost_model = cost_model
        self.limits = limits or ExecutionLimits()
        self.stats = ExecutionStats()
        imports = imports or {}

        # -- functions: imported host functions first
        self.host_funcs: list[HostFunction] = []
        for imp in module.imports:
            if imp.kind != "func":
                continue
            resolved = self._resolve(imports, imp)
            if not isinstance(resolved, HostFunction):
                raise LinkError(f"import {imp.module}.{imp.field} is not a function")
            declared = module.types[imp.desc]
            if resolved.functype != declared:
                raise LinkError(
                    f"import {imp.module}.{imp.field} type mismatch: "
                    f"declared {declared}, provided {resolved.functype}"
                )
            self.host_funcs.append(resolved)

        # -- memory
        self.memory: LinearMemory | None = None
        for imp in module.imports:
            if imp.kind == "memory":
                resolved = self._resolve(imports, imp)
                if not isinstance(resolved, LinearMemory):
                    raise LinkError(f"import {imp.module}.{imp.field} is not a memory")
                self.memory = resolved
        if module.memories:
            limits_decl = module.memories[0].limits
            self.memory = LinearMemory(limits_decl.minimum, limits_decl.maximum)

        # -- globals: imported then defined
        self.globals: list[GlobalInstance] = []
        for imp in module.imports:
            if imp.kind == "global":
                resolved = self._resolve(imports, imp)
                if not isinstance(resolved, GlobalInstance):
                    raise LinkError(f"import {imp.module}.{imp.field} is not a global")
                self.globals.append(resolved)
        for g in module.globals:
            value = self._eval_const(g.init)
            self.globals.append(GlobalInstance(g.type, value))

        # -- table
        self.table: TableInstance | None = None
        for imp in module.imports:
            if imp.kind == "table":
                resolved = self._resolve(imports, imp)
                if not isinstance(resolved, TableInstance):
                    raise LinkError(f"import {imp.module}.{imp.field} is not a table")
                self.table = resolved
        if module.tables:
            decl = module.tables[0].limits
            self.table = TableInstance(decl.minimum, decl.maximum)

        # -- active segments
        for seg in module.data:
            if self.memory is None:
                raise LinkError("data segment without memory")
            offset = self._eval_const(seg.offset)
            try:
                self.memory.write(offset, seg.data)
            except MemoryAccessError as exc:
                raise LinkError(f"data segment out of bounds: {exc}") from exc
        for elem in module.elems:
            if self.table is None:
                raise LinkError("element segment without table")
            offset = self._eval_const(elem.offset)
            if offset + len(elem.func_indices) > len(self.table.elements):
                raise LinkError("element segment out of bounds")
            for i, func_index in enumerate(elem.func_indices):
                self.table.elements[offset + i] = func_index

        self._call_depth = 0
        #: hot-path profiler (repro.obs): snapshotted from the process-wide
        #: active profiler at each top-level invoke; None keeps the engines'
        #: profiler hooks on their no-cost path
        self._profiler = None
        self._func_labels: tuple[str, ...] | None = None

        # -- execution engine (None: the legacy loop); every engine runs
        # snapshot-armed and resumed frames on its own frames
        engine = resolve_engine(engine)
        self.engine = engine
        if engine == "predecode":
            from repro.wasm.predecode import PredecodedEngine

            self._engine = PredecodedEngine(self)
            self._engine.compile_all()
        elif engine == "compile":
            from repro.wasm.compile_engine import CompiledEngine

            self._engine = CompiledEngine(self)
        else:
            self._engine = None

        if module.start is not None:
            self.call_function(module.start, [])

    @staticmethod
    def _resolve(imports: dict[str, dict[str, object]], imp) -> object:
        try:
            return imports[imp.module][imp.field]
        except KeyError as exc:
            raise LinkError(f"unresolved import {imp.module}.{imp.field}") from exc

    def _eval_const(self, expr: list[Instr]):
        instr = expr[0]
        if instr.name == "i32.const":
            return instr.args[0] & _MASK32
        if instr.name == "i64.const":
            return instr.args[0] & _MASK64
        if instr.name in ("f32.const", "f64.const"):
            return instr.args[0]
        if instr.name == "global.get":
            return self.globals[instr.args[0]].value
        raise Trap(f"unsupported constant expression {instr.name}")

    @cached_property
    def _structs(self) -> list[dict[int, _StructInfo]]:
        """Structure maps per defined function, for the engines that jump by
        them (predecode, legacy); compiled code has its structure built in."""
        return [build_structure_map(f.body) for f in self.module.funcs]

    @property
    def module_hash(self) -> bytes:
        """sha256 of the module's canonical encoding, computed at most once
        per instance (snapshots and the compiled-code cache key on it)."""
        if self._module_hash is None:
            from repro.tcrypto.hashing import sha256
            from repro.wasm.binary import encode_module

            self._module_hash = sha256(encode_module(self.module))
        return self._module_hash

    @property
    def exec_engine(self) -> str:
        """The engine whose frames run this instance's calls, armed, resumed
        or not (a ``compile`` instance's declined functions, listed in its
        engine's ``fallback_functions``, run on ``predecode``)."""
        return self.engine

    # -- public API ------------------------------------------------------------

    def invoke(self, export_name: str, *args):
        """Invoke an exported function with Python ints/floats."""
        self._profiler = active_profiler()
        if self._profiler is not None and self._func_labels is None:
            self._func_labels = function_labels(self.module)
        func_index = self.module.export_index(export_name, "func")
        functype = self.module.func_type(func_index)
        if len(args) != len(functype.params):
            raise TypeError(
                f"{export_name} expects {len(functype.params)} arguments, got {len(args)}"
            )
        values = [self._to_wasm(arg, vt) for arg, vt in zip(args, functype.params)]
        try:
            results = self.call_function(func_index, values)
        except CaptureUnwind as unwind:
            from repro.wasm.snapshot.format import snapshot_from_unwind

            raise SnapshotCaptured(snapshot_from_unwind(self, unwind)) from None
        if not functype.results:
            return None
        result = results[0]
        if functype.results[0].is_int:
            return _signed(result, functype.results[0].bits)
        return result

    def global_value(self, name_or_index) -> object:
        """Read a global by export name or index (signed for integers)."""
        if isinstance(name_or_index, str):
            index = self.module.export_index(name_or_index, "global")
        else:
            index = name_or_index
        g = self.globals[index]
        if g.type.valtype.is_int:
            return _signed(g.value, g.type.valtype.bits)
        return g.value

    @staticmethod
    def _to_wasm(arg, vt: ValType):
        if vt.is_int:
            if not isinstance(arg, int):
                raise TypeError(f"expected int for {vt.value}, got {type(arg).__name__}")
            return arg & ((1 << vt.bits) - 1)
        return float(arg)

    # -- function invocation ------------------------------------------------------

    def call_function(self, func_index: int, args: list) -> list:
        """Call any function (imported or defined) by combined index."""
        n_imported = self.module.num_imported_funcs
        if func_index < n_imported:
            host = self.host_funcs[func_index]
            self.stats.host_calls += 1
            result = host.fn(*args)
            if not host.functype.results:
                return []
            vt = host.functype.results[0]
            if vt.is_int:
                return [int(result) & ((1 << vt.bits) - 1)]
            return [float(result)]

        if self._call_depth >= self.limits.max_call_depth:
            raise Trap("call stack exhausted")
        self._call_depth += 1
        try:
            defined = func_index - n_imported
            engine = self._engine
            prof = self._profiler
            if prof is not None:
                prof.enter_function(
                    self._func_labels[defined], self.stats.executed, self.stats.cycles
                )
                try:
                    if engine is not None:
                        return engine.exec_function(defined, args)
                    return self._exec_function(defined, args)
                finally:
                    prof.exit_function(self.stats.executed, self.stats.cycles)
            if engine is not None:
                return engine.exec_function(defined, args)
            return self._exec_function(defined, args)
        finally:
            self._call_depth -= 1

    # -- the main loop -----------------------------------------------------------

    def _exec_function(
        self, defined_index: int, args: list, resume: tuple | None = None
    ) -> list:
        module = self.module
        func = module.funcs[defined_index]
        functype = module.types[func.type_index]
        structs = self._structs[defined_index]
        body = func.body
        stats = self.stats
        cost = self.cost_model
        limits = self.limits
        snapshot_at = limits.snapshot_at
        prof = self._profiler
        prof_label = (
            self._func_labels[defined_index] if prof is not None else ""
        )

        if resume is not None:
            # re-enter a suspended frame exactly where its snapshot left it
            pc, stack, locals_, frames = resume
            control = [_ControlEntry(*entry) for entry in frames]
        else:
            locals_ = list(args)
            for vt in func.locals:
                locals_.append(0 if vt.is_int else 0.0)
            stack = []
            control = []
            pc = 0
        n = len(body)

        while pc < n:
            instr = body[pc]
            name = instr.name

            # capture BEFORE charging: the pc instruction has not executed,
            # so a resumed run re-charges and re-runs it — final stats are
            # byte-identical to the uninterrupted run
            if snapshot_at is not None and stats.executed >= snapshot_at:
                unwind = CaptureUnwind()
                unwind.frames.append(
                    self._captured_frame(
                        defined_index, pc, stack, locals_, control, "at_current"
                    )
                )
                raise unwind

            stats.visits[name] += 1
            stats.executed += 1
            if prof is not None:
                prof.record_point(prof_label, pc)
            if cost is not None:
                stats.cycles += cost.instruction_cycles(name)
            if limits.max_instructions is not None and stats.executed > limits.max_instructions:
                raise Trap("instruction budget exhausted")
            if (
                limits.progress_interval is not None
                and limits.progress_callback is not None
                and stats.executed % limits.progress_interval == 0
            ):
                limits.progress_callback(stats)

            # ---- control flow -------------------------------------------------
            if name == "end":
                if control:
                    control.pop()
                pc += 1
                continue
            if name in ("block", "loop"):
                info = structs[pc]
                # label arity: values a branch transports — results for a
                # block, none for a loop (MVP loops take no parameters)
                arity = 0 if name == "loop" else len(instr.args[0])
                control.append(_ControlEntry(name, pc, info.end, len(stack), arity))
                pc += 1
                continue
            if name == "if":
                info = structs[pc]
                cond = stack.pop()
                control.append(
                    _ControlEntry("if", pc, info.end, len(stack), len(instr.args[0]))
                )
                if cond:
                    pc += 1
                elif info.else_ is not None:
                    pc = info.else_ + 1
                else:
                    pc = info.end  # visit the end marker, which pops the frame
                continue
            if name == "else":
                # reached only by falling out of the true arm: jump to end
                entry = control[-1]
                pc = entry.end  # end pops the frame when visited
                continue
            if name == "br":
                pc = self._branch(instr.args[0], stack, control, pc)
                continue
            if name == "br_if":
                cond = stack.pop()
                if cond:
                    pc = self._branch(instr.args[0], stack, control, pc)
                else:
                    pc += 1
                continue
            if name == "br_table":
                depths, default = instr.args
                index = stack.pop()
                depth = depths[index] if index < len(depths) else default
                pc = self._branch(depth, stack, control, pc)
                continue
            if name == "return":
                break
            if name == "call":
                call_args = self._pop_args(stack, instr.args[0])
                try:
                    results = self.call_function(instr.args[0], call_args)
                except CaptureUnwind as unwind:
                    unwind.frames.append(
                        self._captured_frame(
                            defined_index, pc, stack, locals_, control, "at_call"
                        )
                    )
                    raise
                stack.extend(results)
                stats.calls += 1
                pc += 1
                continue
            if name == "call_indirect":
                type_index = instr.args[0]
                table_index = stack.pop()
                if self.table is None or table_index >= len(self.table.elements):
                    raise Trap("undefined table element")
                target = self.table.elements[table_index]
                if target is None:
                    raise Trap("uninitialized table element")
                target_type = module.func_type(target)
                if target_type != module.types[type_index]:
                    raise Trap("indirect call type mismatch")
                call_args = [stack.pop() for _ in target_type.params][::-1]
                try:
                    results = self.call_function(target, call_args)
                except CaptureUnwind as unwind:
                    unwind.frames.append(
                        self._captured_frame(
                            defined_index, pc, stack, locals_, control, "at_call"
                        )
                    )
                    raise
                stack.extend(results)
                stats.calls += 1
                pc += 1
                continue
            if name == "unreachable":
                raise Trap("unreachable executed")
            if name == "nop":
                pc += 1
                continue

            # ---- everything else ----------------------------------------------
            self._exec_simple(instr, name, stack, locals_)
            pc += 1

        # function exit: top |results| values
        n_results = len(functype.results)
        if n_results == 0:
            return []
        if len(stack) < n_results:
            raise Trap("function returned with empty stack")
        return stack[-n_results:]

    def _captured_frame(
        self,
        defined_index: int,
        pc: int,
        stack: list,
        locals_: list,
        control: list[_ControlEntry],
        kind: str,
    ) -> CapturedFrame:
        return CapturedFrame(
            func_index=self.module.num_imported_funcs + defined_index,
            pc=pc,
            stack=tuple(stack),
            locals=tuple(locals_),
            control=tuple(
                (c.opcode, c.start, c.end, c.stack_height, c.arity) for c in control
            ),
            kind=kind,
        )

    def _pop_args(self, stack: list, func_index: int) -> list:
        functype = self.module.func_type(func_index)
        count = len(functype.params)
        if count == 0:
            return []
        args = stack[-count:]
        del stack[-count:]
        return args

    @staticmethod
    def _branch(depth: int, stack: list, control: list[_ControlEntry], pc: int) -> int:
        if depth >= len(control):
            # branch out of the function body: treated as return; caller's
            # while loop ends because we jump past the end.
            del control[:]
            return 1 << 60
        entry = control[-1 - depth]
        # keep label-arity values, truncate the rest
        kept = stack[len(stack) - entry.arity :] if entry.arity else []
        del stack[entry.stack_height :]
        stack.extend(kept)
        if entry.opcode == "loop":
            # pop all frames above and including the target; re-visiting the
            # loop header re-pushes its frame
            del control[len(control) - 1 - depth :]
            return entry.start
        # pop frames *above* the target only; the visited end marker pops it
        del control[len(control) - depth :]
        return entry.end

    # -- non-control instructions -------------------------------------------------

    def _exec_simple(self, instr: Instr, name: str, stack: list, locals_: list) -> None:
        stats = self.stats
        if name == "local.get":
            stack.append(locals_[instr.args[0]])
            return
        if name == "local.set":
            locals_[instr.args[0]] = stack.pop()
            return
        if name == "local.tee":
            locals_[instr.args[0]] = stack[-1]
            return
        if name == "global.get":
            stack.append(self.globals[instr.args[0]].value)
            return
        if name == "global.set":
            self.globals[instr.args[0]].value = stack.pop()
            return
        if name == "drop":
            stack.pop()
            return
        if name == "select":
            cond = stack.pop()
            b = stack.pop()
            a = stack.pop()
            stack.append(a if cond else b)
            return

        dot = name.find(".")
        if dot == -1:
            if name == "memory.size":  # unreachable: no dot — handled below
                pass
        prefix = name[:dot] if dot != -1 else name
        suffix = name[dot + 1 :] if dot != -1 else ""

        if name.startswith("memory."):
            self._exec_memory_admin(name, stack)
            return
        if "load" in suffix or "store" in suffix:
            self._exec_memory_access(instr, name, prefix, suffix, stack)
            return
        if suffix == "const":
            stack.append(instr.args[0])
            return

        if prefix in ("i32", "i64"):
            bits = 32 if prefix == "i32" else 64
            self._exec_int(name, suffix, bits, stack)
        else:
            self._exec_float(name, prefix, suffix, stack)

    def _exec_memory_admin(self, name: str, stack: list) -> None:
        if self.memory is None:
            raise Trap("no memory")
        if name == "memory.size":
            stack.append(self.memory.pages)
        else:  # memory.grow
            delta = stack.pop()
            result = self.memory.grow(delta)
            if result >= 0:
                self.stats.grow_history.append((self.stats.total_visits, self.memory.pages))
            stack.append(result & _MASK32)

    def _exec_memory_access(self, instr: Instr, name: str, prefix: str, suffix: str, stack: list) -> None:
        if self.memory is None:
            raise Trap("no memory")
        _align, offset = instr.args
        is_store = "store" in suffix
        vt_bits = 32 if prefix in ("i32", "f32") else 64
        # partial-width accesses
        width = vt_bits // 8
        for marker, w in (("8", 1), ("16", 2), ("32", 4)):
            if suffix.endswith((f"load{marker}_s", f"load{marker}_u", f"store{marker}")):
                width = w
                break
        try:
            if is_store:
                value = stack.pop()
                address = (stack.pop() + offset) & _MASK64
                if prefix == "f32":
                    self.memory.store_f32(address, value)
                elif prefix == "f64":
                    self.memory.store_f64(address, value)
                else:
                    self.memory.store_int(address, value, width)
                self.stats.stores += 1
                self.stats.bytes_stored += width
            else:
                address = (stack.pop() + offset) & _MASK64
                if prefix == "f32":
                    result = self.memory.load_f32(address)
                elif prefix == "f64":
                    result = self.memory.load_f64(address)
                else:
                    signed = suffix.endswith("_s")
                    raw = self.memory.load_int(address, width, signed=signed)
                    result = raw & ((1 << vt_bits) - 1)
                stack.append(result)
                self.stats.loads += 1
                self.stats.bytes_loaded += width
        except MemoryAccessError as exc:
            raise Trap(str(exc)) from exc
        if self.cost_model is not None:
            self.stats.cycles += self.cost_model.memory_access_cycles(address, width, is_store)

    def _exec_int(self, name: str, suffix: str, bits: int, stack: list) -> None:
        mask = (1 << bits) - 1
        if suffix == "eqz":
            stack.append(1 if stack.pop() == 0 else 0)
            return
        if suffix in ("clz", "ctz", "popcnt"):
            v = stack.pop()
            if suffix == "clz":
                stack.append(_clz(v, bits))
            elif suffix == "ctz":
                stack.append(_ctz(v, bits))
            else:
                stack.append(bin(v).count("1"))
            return
        if suffix in ("wrap_i64",):
            stack.append(stack.pop() & _MASK32)
            return
        if suffix in ("extend_i32_s", "extend_i32_u"):
            v = stack.pop()
            if suffix.endswith("_s"):
                stack.append(_signed(v, 32) & _MASK64)
            else:
                stack.append(v & _MASK32)
            return
        if suffix.startswith("trunc_f"):
            v = stack.pop()
            stack.append(_trunc_to_int(v, bits, suffix.endswith("_s")))
            return
        if suffix.startswith("reinterpret"):
            v = stack.pop()
            fmt = "<f" if bits == 32 else "<d"
            ifmt = "<I" if bits == 32 else "<Q"
            if bits == 32:
                v = _f32(v)
            stack.append(struct.unpack(ifmt, struct.pack(fmt, v))[0])
            return

        b = stack.pop()
        a = stack.pop()
        sa, sb = _signed(a, bits), _signed(b, bits)
        if suffix == "add":
            stack.append((a + b) & mask)
        elif suffix == "sub":
            stack.append((a - b) & mask)
        elif suffix == "mul":
            stack.append((a * b) & mask)
        elif suffix == "div_s":
            if b == 0:
                raise Trap("integer divide by zero")
            if sa == -(1 << (bits - 1)) and sb == -1:
                raise Trap("integer overflow")
            stack.append(_trunc_div(sa, sb) & mask)
        elif suffix == "div_u":
            if b == 0:
                raise Trap("integer divide by zero")
            stack.append((a // b) & mask)
        elif suffix == "rem_s":
            if b == 0:
                raise Trap("integer divide by zero")
            stack.append(_trunc_rem(sa, sb) & mask)
        elif suffix == "rem_u":
            if b == 0:
                raise Trap("integer divide by zero")
            stack.append((a % b) & mask)
        elif suffix == "and":
            stack.append(a & b)
        elif suffix == "or":
            stack.append(a | b)
        elif suffix == "xor":
            stack.append(a ^ b)
        elif suffix == "shl":
            stack.append((a << (b % bits)) & mask)
        elif suffix == "shr_u":
            stack.append(a >> (b % bits))
        elif suffix == "shr_s":
            stack.append((sa >> (b % bits)) & mask)
        elif suffix == "rotl":
            stack.append(_rotl(a, b, bits))
        elif suffix == "rotr":
            stack.append(_rotr(a, b, bits))
        elif suffix == "eq":
            stack.append(1 if a == b else 0)
        elif suffix == "ne":
            stack.append(1 if a != b else 0)
        elif suffix == "lt_s":
            stack.append(1 if sa < sb else 0)
        elif suffix == "lt_u":
            stack.append(1 if a < b else 0)
        elif suffix == "gt_s":
            stack.append(1 if sa > sb else 0)
        elif suffix == "gt_u":
            stack.append(1 if a > b else 0)
        elif suffix == "le_s":
            stack.append(1 if sa <= sb else 0)
        elif suffix == "le_u":
            stack.append(1 if a <= b else 0)
        elif suffix == "ge_s":
            stack.append(1 if sa >= sb else 0)
        elif suffix == "ge_u":
            stack.append(1 if a >= b else 0)
        else:  # pragma: no cover - validator rejects unknown ops earlier
            raise Trap(f"unhandled instruction {name}")

    def _exec_float(self, name: str, prefix: str, suffix: str, stack: list) -> None:
        narrow = prefix == "f32"

        def out(value: float) -> None:
            stack.append(_f32(value) if narrow else value)

        if suffix.startswith("convert_i"):
            v = stack.pop()
            bits = 32 if "i32" in suffix else 64
            if suffix.endswith("_s"):
                v = _signed(v, bits)
            out(float(v))
            return
        if suffix == "demote_f64":
            out(stack.pop())
            return
        if suffix == "promote_f32":
            stack.append(float(stack.pop()))
            return
        if suffix.startswith("reinterpret"):
            v = stack.pop()
            if narrow:
                stack.append(struct.unpack("<f", struct.pack("<I", v & _MASK32))[0])
            else:
                stack.append(struct.unpack("<d", struct.pack("<Q", v & _MASK64))[0])
            return

        unary = {
            "abs": abs,
            "neg": lambda v: -v,
            "sqrt": lambda v: math.sqrt(v) if v >= 0 else math.nan,
            "ceil": lambda v: v if math.isnan(v) or math.isinf(v) else float(math.ceil(v)),
            "floor": lambda v: v if math.isnan(v) or math.isinf(v) else float(math.floor(v)),
            "trunc": lambda v: v if math.isnan(v) or math.isinf(v) else float(math.trunc(v)),
            "nearest": _nearest,
        }
        if suffix in unary:
            out(unary[suffix](stack.pop()))
            return

        b = stack.pop()
        a = stack.pop()
        if suffix == "add":
            out(a + b)
        elif suffix == "sub":
            out(a - b)
        elif suffix == "mul":
            out(a * b)
        elif suffix == "div":
            if b == 0.0:
                if a == 0.0 or math.isnan(a):
                    out(math.nan)
                else:
                    out(math.copysign(math.inf, a) * math.copysign(1.0, b))
            else:
                out(a / b)
        elif suffix == "min":
            out(_float_min(a, b))
        elif suffix == "max":
            out(_float_max(a, b))
        elif suffix == "copysign":
            out(math.copysign(a, b))
        elif suffix == "eq":
            stack.append(1 if a == b else 0)
        elif suffix == "ne":
            stack.append(1 if a != b else 0)
        elif suffix == "lt":
            stack.append(1 if a < b else 0)
        elif suffix == "gt":
            stack.append(1 if a > b else 0)
        elif suffix == "le":
            stack.append(1 if a <= b else 0)
        elif suffix == "ge":
            stack.append(1 if a >= b else 0)
        else:  # pragma: no cover
            raise Trap(f"unhandled instruction {name}")
