"""WebAssembly module instances, execution limits and visit statistics.

An :class:`Instance` holds a validated module's runtime state and runs its
functions on one of the engines in :mod:`repro.wasm.engines`, with precise
MVP semantics and, crucially for AccTEE, *counting every instruction it
visits*.  These visit counts are the ground truth against which the
instrumentation passes are verified: an instrumented module's injected
counter must equal the weighted visit count of the original module on the
same inputs.  The numeric helpers below are shared by both engines.

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

from repro.wasm.costmodel import CostModel
from repro.wasm.engines import (
    ENGINE_NAMES,
    UnknownEngineError,
    resolve_engine,
)
from repro.wasm.instructions import Instr
from repro.wasm.memory import LinearMemory, MemoryAccessError
from repro.wasm.module import Module
from repro.wasm.types import FuncType, GlobalType, ValType

#: The process-wide profiler :meth:`Instance.invoke` snapshots, installed
#: by :func:`repro.obs.profiler.enable_profiling`; kept here so that the
#: engines import no observability module.
_active_profiler = None


def active_profiler():
    """The installed :class:`~repro.obs.profiler.Profiler`, or ``None``."""
    return _active_profiler


def set_active_profiler(profiler) -> None:
    global _active_profiler
    _active_profiler = profiler


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


#: Recognised values for ``Instance(engine=...)`` (re-exported from
#: :mod:`repro.wasm.engines` for backwards compatibility).
ENGINES = ENGINE_NAMES


class LinkError(Exception):
    """Raised at instantiation when imports cannot be satisfied."""


@dataclass(frozen=True)
class ExecutionLimits:
    """Resource limits enforced during execution (the sandbox's outer guard).
    Frozen: ``compile`` reads them once per call, predecode per instruction."""

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


class Instance:
    """An instantiated module, ready to invoke exported functions.

    ``imports`` maps ``module -> field -> object`` where objects are
    :class:`HostFunction`, :class:`LinearMemory`, :class:`GlobalInstance`
    or :class:`TableInstance`.

    ``engine`` selects the execution engine (see :mod:`repro.wasm.engines`):
    ``"compile"`` (the default) translates function bodies to Python source
    with folded meter counters (:mod:`repro.wasm.compile_engine`), and
    ``"predecode"`` (the semantics reference) decodes every function body
    once at instantiation into a flat handler array and charges each
    instruction as it runs (:mod:`repro.wasm.predecode`).  Both produce
    identical :class:`ExecutionStats`.
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
        #: the :class:`~repro.wasm.runtime.HostEnvironment` bound to this
        #: instance (set by its ``instantiate``/``bind``); a snapshot capture
        #: records its I/O position
        self.host_env = None
        #: hot-path profiler (repro.obs): snapshotted from the process-wide
        #: active profiler at each top-level invoke; None keeps the engines'
        #: profiler hooks on their no-cost path
        self._profiler = None
        self._func_labels: tuple[str, ...] | None = None

        # -- execution engine; every engine runs snapshot-armed and resumed
        # frames on its own frames
        engine = resolve_engine(engine)
        self.engine = engine
        if engine == "predecode":
            from repro.wasm.predecode import PredecodedEngine

            self._engine = PredecodedEngine(self)
            self._engine.compile_all()
        else:
            from repro.wasm.compile_engine import CompiledEngine

            self._engine = CompiledEngine(self)

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
        """Structure maps per defined function, for predecode, which jumps by
        them; compiled code has its structure built in."""
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

    # -- public API ------------------------------------------------------------

    def invoke(self, export_name: str, *args):
        """Invoke an exported function with Python ints/floats."""
        self._profiler = _active_profiler
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
            prof = self._profiler
            if prof is not None:
                prof.enter_function(
                    self._func_labels[defined], self.stats.executed, self.stats.cycles
                )
                try:
                    return self._engine.exec_function(defined, args)
                finally:
                    prof.exit_function(self.stats.executed, self.stats.cycles)
            return self._engine.exec_function(defined, args)
        finally:
            self._call_depth -= 1
