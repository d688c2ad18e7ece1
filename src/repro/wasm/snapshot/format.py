"""Snapshot format v3: versioned, engine-independent execution state.

A :class:`Snapshot` serializes everything a suspended (or freshly
instantiated) sandbox needs to continue somewhere else: the exact meter
counters (:class:`~repro.wasm.interpreter.ExecutionStats`), globals, the
funcref table, linear memory — stored as a page-level delta against a
deterministic *base image* (the module's fresh memory with its data
segments applied), so warm-pool images and early-execution snapshots stay
small — plus one :class:`~repro.wasm.interpreter.CapturedFrame` per
suspended interpreter frame and, optionally, the host I/O channel position.

Capture happens at *observation points* only — an instruction boundary
where ``stats.executed >= snapshot_at``, checked in the same order as the
budget and progress checks — and always **before** the pending instruction
is charged, so a resumed run re-charges and re-executes it and finishes
with byte-identical stats.  Every engine captures on its own frames —
``predecode`` from its explicit frames, ``compile`` from compiled code —
and both emit the same :class:`CapturedFrame` at the same point
(``tests/wasm/test_snapshot_differential.py`` compares the encoded bytes),
so a snapshot taken under either engine restores into the other.

The wire encoding (format version 3) is binary, little-endian, in
sections whose sizes all follow from a fixed head:

* head: ``b"RWSN"``, ``u32`` version, the 32-byte module hash, a flags
  byte (memory / table / I/O present), the engine name's length, eleven
  ``u32`` counts (visits, visit-name bytes, grow events, globals, table
  elements, frames, control entries, memory pages, delta pages, output
  bytes, tagged values), then ``u64`` ``executed``, ``loads``,
  ``stores``, ``bytes_loaded``, ``bytes_stored``, ``calls``,
  ``host_calls`` and the I/O ``read_pos``, ``bytes_in``, ``bytes_out``,
  ``calls``;
* the engine name; the visit names (sorted, joined by newlines) and their
  ``u64`` counts; the grow history as ``u64`` pairs;
* one ``(func_index, pc, kind, #stack, #locals, #control)`` record per
  frame, outermost first, then every frame's control entries as
  ``(opcode, start, end, height, arity)`` records;
* the delta page indices (``u32``, ascending), then the raw bytes of
  those pages, 64 KiB each, then the I/O output bytes;
* one tag byte per value, then the values: ``cycles``, the globals, the
  table elements, and each frame's stack and locals, packed as the
  ``struct`` format the tags spell (``Q``/``q`` 64-bit int, ``d`` IEEE-754
  double, bit-exact, ``x`` None).

The encoding is deterministic: encoding the same state twice yields the
same bytes, so ``sha256(encode_snapshot(s))`` is a stable identity usable
in checkpoint receipts.  Decoding checks every count against the blob's
length before it sizes a read, and raises :class:`SnapshotError` on any
malformed blob.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable

from repro.lru import LRUCache
from repro.tcrypto.hashing import sha256
from repro.wasm.interpreter import CapturedFrame, CaptureUnwind, Instance
from repro.wasm.memory import MAX_PAGES, PAGE_SIZE
from repro.wasm.module import Module
from repro.wasm.runtime import HostEnvironment, IOAccount

MAGIC = b"RWSN"
FORMAT_VERSION = 3


class SnapshotError(Exception):
    """A snapshot cannot be encoded, decoded or applied."""


@dataclass(frozen=True)
class IOState:
    """Host I/O channel position at capture time.

    The channel's *input* bytes are not stored — the dispatcher that owns
    the request already has them (they travel with the task) — only the
    read cursor, the output produced so far and the accounted byte totals.
    """

    read_pos: int = 0
    output: bytes = b""
    bytes_in: int = 0
    bytes_out: int = 0
    calls: int = 0


@dataclass(frozen=True)
class Snapshot:
    """Full serialized execution state of one sandbox instance.

    ``frames`` is outermost-first; empty frames mean a *warm image* — the
    state right after instantiation (start function included), used by warm
    pools to reset a live instance to pristine per request.
    """

    version: int
    module_hash: bytes
    engine: str  # engine the capturing instance was configured with
    stats: dict  # plain-value ExecutionStats fields (visits as a dict)
    globals: tuple
    memory_pages: int | None  # None: module has no memory
    memory_delta: tuple  # ((page_index, page_bytes), ...) vs the base image
    table: tuple | None  # funcref elements, None when no table
    frames: tuple  # CapturedFrame, outermost-first
    io: IOState | None = None

    @property
    def executed(self) -> int:
        return self.stats["executed"]

    def hash(self) -> bytes:
        return sha256(encode_snapshot(self))


# -- base memory image ---------------------------------------------------------


def _segment_offset(module: Module, expr) -> int:
    """Deterministic best-effort const-eval of a data-segment offset.

    Both the capturing and the restoring side run this same function, so
    the page delta is exact even where the best effort diverges from the
    instance's actual initial memory (e.g. imported-global offsets).
    """
    instr = expr[0]
    if instr.name in ("i32.const", "i64.const"):
        return int(instr.args[0])
    if instr.name == "global.get":
        index = instr.args[0]
        defined = index - module.num_imported_globals
        if 0 <= defined < len(module.globals):
            init = module.globals[defined].init[0]
            if init.name in ("i32.const", "i64.const"):
                return int(init.args[0])
    return 0


def base_memory_image(module: Module) -> bytearray:
    """The module's fresh linear memory: minimum pages + data segments."""
    if not module.memories:
        return bytearray()
    image = bytearray(module.memories[0].limits.minimum * PAGE_SIZE)
    for seg in module.data:
        offset = _segment_offset(module, seg.offset)
        if 0 <= offset and offset + len(seg.data) <= len(image):
            image[offset : offset + len(seg.data)] = seg.data
    return image


#: module hash -> that module's base memory image
BASE_IMAGES: LRUCache[bytes] = LRUCache(64)


def instance_base_image(instance: Instance) -> bytes:
    """:func:`base_memory_image` of the instance's module, built once per
    module (keyed by :attr:`Instance.module_hash`): every capture and every
    reset compares against or copies it."""
    return BASE_IMAGES.get_or_build(
        instance.module_hash, lambda: bytes(base_memory_image(instance.module))
    )


_ZERO_PAGE = bytes(PAGE_SIZE)


def _memory_state(instance: Instance):
    """Page count and the pages that differ from the base image.

    A clean page costs one ``memcmp`` in place (``startswith`` at the
    page's offset, against a view of the base image) and a dirty page one
    copy; pages past the base image compare against zeros.
    """
    memory = instance.memory
    if memory is None:
        return None, ()
    data = memory._data
    pages = len(data) // PAGE_SIZE
    base = memoryview(instance_base_image(instance))
    delta = []
    for lo in range(0, pages * PAGE_SIZE, PAGE_SIZE):
        if not data.startswith(base[lo : lo + PAGE_SIZE] or _ZERO_PAGE, lo):
            with memoryview(data) as view:
                delta.append((lo // PAGE_SIZE, bytes(view[lo : lo + PAGE_SIZE])))
    return pages, tuple(delta)


# -- capture -------------------------------------------------------------------


def _stats_state(instance: Instance) -> dict:
    stats = instance.stats
    return {
        "visits": dict(stats.visits),
        "executed": stats.executed,
        "cycles": stats.cycles,
        "loads": stats.loads,
        "stores": stats.stores,
        "bytes_loaded": stats.bytes_loaded,
        "bytes_stored": stats.bytes_stored,
        "calls": stats.calls,
        "host_calls": stats.host_calls,
        "grow_history": [tuple(e) for e in stats.grow_history],
    }


def capture_instance(
    instance: Instance, frames=(), io: IOState | None = None
) -> Snapshot:
    """Snapshot an instance's full state (with ``frames=()``: a warm image)."""
    pages, delta = _memory_state(instance)
    snapshot = Snapshot(
        version=FORMAT_VERSION,
        module_hash=instance.module_hash,
        engine=instance.engine,
        stats=_stats_state(instance),
        globals=tuple(g.value for g in instance.globals),
        memory_pages=pages,
        memory_delta=delta,
        table=tuple(instance.table.elements) if instance.table is not None else None,
        frames=tuple(frames),
        io=io,
    )
    return snapshot


def snapshot_from_unwind(instance: Instance, unwind: CaptureUnwind) -> Snapshot:
    """Finish a capture: unwound frames arrive innermost-first.  An instance
    bound to a host environment (:attr:`Instance.host_env`) also records
    the environment's I/O position; :func:`rewind_io` is the inverse."""
    env = instance.host_env
    return capture_instance(
        instance,
        frames=tuple(reversed(unwind.frames)),
        io=None if env is None else _io_state(env),
    )


def _io_state(env: HostEnvironment) -> IOState:
    return IOState(
        read_pos=env.channel._read_pos,
        output=bytes(env.channel.output),
        bytes_in=env.account.bytes_in,
        bytes_out=env.account.bytes_out,
        calls=env.account.calls,
    )


def rewind_io(env: HostEnvironment, input_data: bytes, io: IOState | None) -> None:
    """Point ``env``'s channel at ``input_data`` and its meters at ``io``.

    The input bytes travel with the request, not the snapshot; ``io=None``
    rewinds to the start (a fresh request on a reused environment).  The
    environment's one reset: it also drops the ``host_log`` values an
    earlier request left, which no snapshot carries.
    """
    io = io or IOState()
    env.log_values.clear()
    channel = env.channel
    channel.input_data = input_data
    channel.output = bytearray(io.output)
    channel._read_pos = io.read_pos
    env.account = IOAccount(io.bytes_in, io.bytes_out, io.calls)


# -- wire encoding -------------------------------------------------------------
#
# Few Python-level operations per blob: the head carries every count, so
# each section's offset follows from it and is checked against the blob
# before any section is read; the visit counts, grow history and frame
# records are packed by one struct call, the delta page indices by another;
# values of mixed type travel as one tag string, itself a struct format, and
# one struct body.  A job's hops repeat the same visit names, control stacks
# and value tags, so what is built from those alone (the sorted names, a
# frame's control records, each section's ``struct.Struct``) is built once
# and cached.  The caches a decode fills are keyed by sections of a blob
# that crossed an untrusted hop, so they keep few entries.

#: magic, version, module hash, section flags, engine name length, eleven
#: counts (visits, visit-name bytes, grow events, globals, table elements,
#: frames, control entries, memory pages, delta pages, output bytes, tagged
#: values), seven integer meters and the four I/O position fields
_HEAD = struct.Struct("<4sI32sBB11I11Q")
#: per frame: func_index, pc, kind, stack/locals/control entry counts
_FRAME_FMT = "IIBIII"
#: per control entry: opcode, start, end, stack height, arity
_CONTROL = struct.Struct("<BIIII")
_FRAME_SIZE = struct.calcsize("<" + _FRAME_FMT)
_HAS_MEMORY, _HAS_TABLE, _HAS_IO = 1, 2, 4
_KINDS = ("at_current", "at_call")
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_OPS = ("block", "loop", "if")
_OP_CODES = {op: code for code, op in enumerate(_OPS)}


@lru_cache(maxsize=256)
def _records_struct(n_q: int, n_frames: int) -> struct.Struct:
    """``n_q`` visit counts and grow-history ints, then the frame records."""
    return struct.Struct(f"<{n_q}Q{_FRAME_FMT * n_frames}")


@lru_cache(maxsize=64)
def _indices_struct(n_delta: int) -> struct.Struct:
    return struct.Struct(f"<{n_delta}I")


@lru_cache(maxsize=256)
def _control_records(control: tuple) -> bytes:
    return b"".join([_CONTROL.pack(_OP_CODES[op], *entry) for op, *entry in control])


@lru_cache(maxsize=64)
def _control_entries(records: bytes) -> tuple:
    return tuple([(_OPS[op], *entry) for op, *entry in _CONTROL.iter_unpack(records)])


@lru_cache(maxsize=64)
def _values_struct(tags: bytes) -> struct.Struct:
    """The ``struct`` a tag string spells; an unknown tag is a ``ValueError``."""
    if tags.translate(None, b"qQdx"):
        raise ValueError("unknown value tag")
    return struct.Struct(b"<" + tags)


@lru_cache(maxsize=256)
def _visit_names(keys: tuple) -> tuple[int, bytes, Callable[[dict], tuple]]:
    """How many visit names ``keys`` holds, their sorted wire form, and a
    getter of their counts in that order.  One job records the same names
    in the same order hop after hop (a restore inserts them sorted, new
    ones follow), so a hop sorts nothing."""
    names = sorted(keys)
    blob = "\n".join(names).encode("utf-8")
    if blob.count(b"\n") != max(len(names) - 1, 0):
        raise ValueError("a visit name contains a newline")
    if len(names) > 1:
        return len(names), blob, itemgetter(*names)
    return len(names), blob, lambda visits: tuple(visits[name] for name in names)


@lru_cache(maxsize=64)
def _split_names(blob: bytes) -> tuple:
    return tuple(blob.decode("utf-8").split("\n"))


def _tags(values: list) -> bytes:
    return bytes(
        [
            100 if type(v) is float else 120 if v is None else 81 if v >= 0 else 113
            for v in values  # d, x, Q, q
        ]
    )


def _frozen(cls, **fields):
    """A frozen dataclass instance built without its generated
    ``__init__``, whose one ``object.__setattr__`` call per field is most
    of a decode's object construction; the caller passes every field."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def encode_snapshot(snapshot: Snapshot, _observe: bool = True) -> bytes:
    # ``_observe`` is accepted and ignored: encoding records no telemetry
    # (a worker's slice record carries the encoded size)
    try:
        return _encode(snapshot)
    except (struct.error, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"cannot encode snapshot: {exc!r}") from None


def _encode(snapshot: Snapshot) -> bytes:
    if len(snapshot.module_hash) != 32:
        raise ValueError("module hash is not 32 bytes")
    stats = snapshot.stats
    visits = stats["visits"]
    n_visits, names_blob, counts = _visit_names(tuple(visits))
    ints = list(counts(visits))
    for event in stats["grow_history"]:
        ints += event
    n_q = len(ints)
    table = snapshot.table or ()
    values = [stats["cycles"], *snapshot.globals, *table]
    controls = []
    n_control = 0
    for f in snapshot.frames:
        values += f.stack
        values += f.locals
        ints += (
            f.func_index, f.pc, _KIND_CODES[f.kind],
            len(f.stack), len(f.locals), len(f.control),
        )
        controls.append(_control_records(f.control))
        n_control += len(f.control)
    indices = []
    pages = []
    for index, page in snapshot.memory_delta:
        if len(page) != PAGE_SIZE:
            raise ValueError("a delta page is not one page long")
        indices.append(index)
        pages.append(page)
    tags = _tags(values)
    if b"x" in tags:
        values = [v for v in values if v is not None]
    io = snapshot.io
    engine = snapshot.engine.encode("utf-8")
    head = _HEAD.pack(
        MAGIC,
        snapshot.version,
        snapshot.module_hash,
        (snapshot.memory_pages is not None) * _HAS_MEMORY
        | (snapshot.table is not None) * _HAS_TABLE
        | (io is not None) * _HAS_IO,
        len(engine),
        n_visits,
        len(names_blob),
        (n_q - n_visits) // 2,
        len(snapshot.globals),
        len(table),
        len(snapshot.frames),
        n_control,
        snapshot.memory_pages or 0,
        len(pages),
        len(io.output) if io is not None else 0,
        len(tags),
        stats["executed"],
        stats["loads"],
        stats["stores"],
        stats["bytes_loaded"],
        stats["bytes_stored"],
        stats["calls"],
        stats["host_calls"],
        *((io.read_pos, io.bytes_in, io.bytes_out, io.calls) if io else (0, 0, 0, 0)),
    )
    return b"".join(
        [
            head,
            engine,
            names_blob,
            _records_struct(n_q, len(snapshot.frames)).pack(*ints),
            *controls,
            _indices_struct(len(indices)).pack(*indices),
            *pages,
            io.output if io is not None else b"",
            tags,
            _values_struct(tags).pack(*values),
        ]
    )


def decode_snapshot(blob: bytes) -> Snapshot:
    """Decode a snapshot blob; any malformed blob raises :class:`SnapshotError`.

    Blobs cross untrusted hops (worker to gateway to worker), so every
    count is checked against the blob's length before it sizes a read.
    """
    if blob[:4] != MAGIC:
        raise SnapshotError("not a snapshot: bad magic")
    if len(blob) < 8:
        raise SnapshotError("not a snapshot: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot format version {version}")
    if len(blob) < _HEAD.size:
        raise SnapshotError("not a snapshot: truncated header")
    try:
        return _decode(blob)
    except (struct.error, ValueError, IndexError) as exc:
        raise SnapshotError(f"corrupt snapshot body: {exc!r}") from None


def _decode(blob: bytes) -> Snapshot:
    (
        _magic, version, module_hash, flags, engine_len,
        n_visits, names_len, n_grow, n_globals, n_table, n_frames, n_control,
        memory_pages, n_delta, output_len, n_values,
        executed, loads, stores, bytes_loaded, bytes_stored, calls, host_calls,
        read_pos, io_in, io_out, io_calls,
    ) = _HEAD.unpack_from(blob)
    names_at = _HEAD.size + engine_len
    ints_at = names_at + names_len
    n_q = n_visits + 2 * n_grow
    control_at = ints_at + 8 * n_q + _FRAME_SIZE * n_frames
    indices_at = control_at + _CONTROL.size * n_control
    pages_at = indices_at + 4 * n_delta
    output_at = pages_at + PAGE_SIZE * n_delta
    tags_at = output_at + output_len
    values_at = tags_at + n_values
    if values_at > len(blob):
        raise ValueError("a section runs past the end of the blob")
    if (
        flags & ~(_HAS_MEMORY | _HAS_TABLE | _HAS_IO)
        or not flags & _HAS_MEMORY and (memory_pages or n_delta)
        or not flags & _HAS_TABLE and n_table
        or not flags & _HAS_IO and (read_pos or io_in or io_out or io_calls or output_len)
        or memory_pages > MAX_PAGES
    ):
        raise ValueError("inconsistent section counts")

    names = _split_names(blob[names_at:ints_at]) if n_visits else ()
    if len(names) != n_visits or not n_visits and names_len:
        raise ValueError("visit name count does not match")
    ints = _records_struct(n_q, n_frames).unpack_from(blob, ints_at)
    indices = _indices_struct(n_delta).unpack_from(blob, indices_at)
    if indices and (
        indices[-1] >= memory_pages
        or n_delta > 1
        and any(a >= b for a, b in zip(indices, indices[1:]))
    ):
        raise ValueError("delta pages out of order or past the memory")

    tags = blob[tags_at:values_at]
    values_struct = _values_struct(tags)
    if values_struct.size != len(blob) - values_at:
        raise ValueError("value section length does not match its tags")
    values = values_struct.unpack_from(blob, values_at)
    if b"x" in tags:
        it = iter(values)
        values = tuple([None if tag == 120 else next(it) for tag in tags])  # 120: "x"

    v = 1 + n_globals + n_table
    at = control_at
    frames = []
    for i in range(n_q, len(ints), 6):
        func_index, pc, kind, n_stack, n_locals, n_ctl = ints[i : i + 6]
        end = at + _CONTROL.size * n_ctl
        if end > indices_at:
            raise ValueError("frame sizes do not match the section counts")
        frames.append(
            _frozen(
                CapturedFrame,
                func_index=func_index,
                pc=pc,
                stack=values[v : v + n_stack],
                locals=values[v + n_stack : v + n_stack + n_locals],
                control=_control_entries(blob[at:end]),
                kind=_KINDS[kind],
            )
        )
        v += n_stack + n_locals
        at = end
    if v != n_values or at != indices_at:
        raise ValueError("frame sizes do not match the section counts")

    # read-only views into the blob: a page is copied once, into memory
    view = memoryview(blob).toreadonly()
    memory_delta = tuple(
        zip(indices, [view[lo : lo + PAGE_SIZE] for lo in range(pages_at, output_at, PAGE_SIZE)])
    )
    return _frozen(
        Snapshot,
        version=version,
        module_hash=module_hash,
        engine=blob[_HEAD.size : names_at].decode("utf-8"),
        stats={
            "visits": dict(zip(names, ints)),
            "executed": executed,
            "cycles": values[0],
            "loads": loads,
            "stores": stores,
            "bytes_loaded": bytes_loaded,
            "bytes_stored": bytes_stored,
            "calls": calls,
            "host_calls": host_calls,
            "grow_history": list(zip(ints[n_visits:n_q:2], ints[n_visits + 1 : n_q : 2])),
        },
        globals=values[1 : 1 + n_globals],
        memory_pages=memory_pages if flags & _HAS_MEMORY else None,
        memory_delta=memory_delta,
        table=values[1 + n_globals : 1 + n_globals + n_table] if flags & _HAS_TABLE else None,
        frames=tuple(frames),
        io=(
            IOState(read_pos, blob[output_at:tags_at], io_in, io_out, io_calls)
            if flags & _HAS_IO
            else None
        ),
    )
