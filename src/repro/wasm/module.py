"""Module-level IR: functions, globals, memories, tables, imports, exports."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.wasm.instructions import Instr
from repro.wasm.types import FuncType, GlobalType, Limits, MemoryType, TableType, ValType


@dataclass
class Function:
    """A defined function: its type, extra locals and flat instruction body.

    ``name`` is the optional ``$identifier`` from the text format; indices are
    what the semantics use.  ``body`` excludes the implicit trailing ``end``
    of the binary format — the interpreter treats falling off the end of the
    list as the function's return point.
    """

    type_index: int
    locals: tuple[ValType, ...] = ()
    body: list[Instr] = field(default_factory=list)
    name: str | None = None


@dataclass
class Global:
    """A module global with a constant initializer expression."""

    type: GlobalType
    init: list[Instr] = field(default_factory=list)
    name: str | None = None


@dataclass(frozen=True)
class Export:
    """An export: external name plus the kind and index of the exported item."""

    name: str
    kind: str  # "func" | "memory" | "global" | "table"
    index: int


@dataclass(frozen=True)
class Import:
    """An import: module/field names plus a type descriptor.

    ``desc`` is a :class:`FuncType` index for functions, or the respective
    type object for memories, globals and tables.
    """

    module: str
    field: str
    kind: str  # "func" | "memory" | "global" | "table"
    desc: object
    name: str | None = None


@dataclass(frozen=True)
class DataSegment:
    """An active data segment: bytes copied into memory at instantiation."""

    memory_index: int
    offset: list[Instr]
    data: bytes


@dataclass(frozen=True)
class ElemSegment:
    """An active element segment: function indices copied into a table."""

    table_index: int
    offset: list[Instr]
    func_indices: tuple[int, ...]


@dataclass
class Module:
    """A complete WebAssembly module.

    Index spaces follow the spec: imported functions (and globals) come
    before defined ones.  ``funcs``/``globals`` hold only *defined* items;
    helpers below translate between the combined index space and the defined
    lists.
    """

    types: list[FuncType] = field(default_factory=list)
    imports: list[Import] = field(default_factory=list)
    funcs: list[Function] = field(default_factory=list)
    tables: list[TableType] = field(default_factory=list)
    memories: list[MemoryType] = field(default_factory=list)
    globals: list[Global] = field(default_factory=list)
    exports: list[Export] = field(default_factory=list)
    start: int | None = None
    elems: list[ElemSegment] = field(default_factory=list)
    data: list[DataSegment] = field(default_factory=list)
    name: str | None = None

    # -- index-space helpers -------------------------------------------------

    @property
    def imported_funcs(self) -> list[Import]:
        return [imp for imp in self.imports if imp.kind == "func"]

    @property
    def imported_globals(self) -> list[Import]:
        return [imp for imp in self.imports if imp.kind == "global"]

    @property
    def num_imported_funcs(self) -> int:
        return len(self.imported_funcs)

    @property
    def num_imported_globals(self) -> int:
        return len(self.imported_globals)

    def func_type(self, func_index: int) -> FuncType:
        """Resolve the :class:`FuncType` of any function index (imports first)."""
        n_imp = self.num_imported_funcs
        if func_index < n_imp:
            type_index = self.imported_funcs[func_index].desc
        else:
            defined = func_index - n_imp
            if defined >= len(self.funcs):
                raise IndexError(f"function index {func_index} out of range")
            type_index = self.funcs[defined].type_index
        return self.types[type_index]

    def func_param_count(self, func_index: int) -> int:
        """Number of parameters of any function index (imports first).

        The pre-decoded engine bakes this into ``call`` entries so argument
        popping needs no type lookup in the hot loop.
        """
        return len(self.func_type(func_index).params)

    def global_type(self, global_index: int) -> GlobalType:
        """Resolve the :class:`GlobalType` of any global index (imports first)."""
        n_imp = self.num_imported_globals
        if global_index < n_imp:
            return self.imported_globals[global_index].desc
        defined = global_index - n_imp
        if defined >= len(self.globals):
            raise IndexError(f"global index {global_index} out of range")
        return self.globals[defined].type

    def add_type(self, functype: FuncType) -> int:
        """Intern a function type, returning its index."""
        for i, existing in enumerate(self.types):
            if existing == functype:
                return i
        self.types.append(functype)
        return len(self.types) - 1

    def export_index(self, name: str, kind: str = "func") -> int:
        """Look up the index of an export by name."""
        for export in self.exports:
            if export.name == name and export.kind == kind:
                return export.index
        raise KeyError(f"no {kind} export named {name!r}")

    def global_names(self) -> set[str]:
        """All $identifiers used for globals (imported and defined)."""
        names = {g.name for g in self.globals if g.name}
        names |= {imp.name for imp in self.imported_globals if imp.name}
        return names

    def clone(self) -> "Module":
        """Deep-enough copy: instruction tuples are immutable, bodies are not."""
        return Module(
            types=list(self.types),
            imports=list(self.imports),
            funcs=[
                replace(f, body=list(f.body), locals=tuple(f.locals))
                for f in self.funcs
            ],
            tables=list(self.tables),
            memories=list(self.memories),
            globals=[replace(g, init=list(g.init)) for g in self.globals],
            exports=list(self.exports),
            start=self.start,
            elems=list(self.elems),
            data=list(self.data),
            name=self.name,
        )

    def total_body_instructions(self) -> int:
        """Total number of instructions across all defined function bodies."""
        return sum(len(f.body) for f in self.funcs)
