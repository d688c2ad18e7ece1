"""Snapshot format v2: versioned, engine-independent execution state.

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

The wire encoding is ``b"RWSN"`` + a little-endian ``u32`` format version +
a canonical JSON document (sorted keys, floats carried as bit-exact hex of
their IEEE-754 representation, page contents base64).  The encoding is
deterministic: encoding the same state twice yields the same bytes, so
``sha256(encode_snapshot(s))`` is a stable identity usable in checkpoint
receipts.
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass

from repro.lru import LRUCache
from repro.obs.instruments import SNAPSHOT_BYTES, SNAPSHOTS_TAKEN
from repro.tcrypto.hashing import sha256
from repro.wasm.interpreter import CapturedFrame, CaptureUnwind, Instance
from repro.wasm.memory import PAGE_SIZE
from repro.wasm.module import Module
from repro.wasm.runtime import HostEnvironment, IOAccount

MAGIC = b"RWSN"
FORMAT_VERSION = 2


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
        return sha256(encode_snapshot(self, _observe=False))


# -- value encoding (floats bit-exact) -----------------------------------------


def _enc_val(value):
    if isinstance(value, float):
        return {"f": struct.pack("<d", value).hex()}
    return value


def _dec_val(value):
    if isinstance(value, dict):
        return struct.unpack("<d", bytes.fromhex(value["f"]))[0]
    return value


def _enc_vals(values) -> list:
    return [_enc_val(v) for v in values]


def _dec_vals(values) -> tuple:
    return tuple(_dec_val(v) for v in values)


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
    memory = instance.memory
    if memory is None:
        return None, ()
    base = instance_base_image(instance)
    data = memory._data
    pages = len(data) // PAGE_SIZE
    delta = []
    for i in range(pages):
        lo = i * PAGE_SIZE
        page = bytes(data[lo : lo + PAGE_SIZE])
        ref = base[lo : lo + PAGE_SIZE]
        if len(ref) < PAGE_SIZE:
            ref = ref + _ZERO_PAGE[len(ref) :]
        if page != ref:
            delta.append((i, page))
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
    SNAPSHOTS_TAKEN.inc(kind="warm" if not frames else "suspend")
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


def _frame_to_json(frame: CapturedFrame) -> dict:
    return {
        "func_index": frame.func_index,
        "pc": frame.pc,
        "stack": _enc_vals(frame.stack),
        "locals": _enc_vals(frame.locals),
        "control": [list(entry) for entry in frame.control],
        "kind": frame.kind,
    }


def _frame_from_json(payload: dict) -> CapturedFrame:
    return CapturedFrame(
        func_index=payload["func_index"],
        pc=payload["pc"],
        stack=_dec_vals(payload["stack"]),
        locals=_dec_vals(payload["locals"]),
        control=tuple(
            (op, start, end, height, arity)
            for op, start, end, height, arity in payload["control"]
        ),
        kind=payload["kind"],
    )


def encode_snapshot(snapshot: Snapshot, _observe: bool = True) -> bytes:
    payload = {
        "module_hash": snapshot.module_hash.hex(),
        "engine": snapshot.engine,
        "stats": {
            key: (
                {name: count for name, count in sorted(value.items())}
                if key == "visits"
                else _enc_val(value)
                if key == "cycles"
                else [list(e) for e in value]
                if key == "grow_history"
                else value
            )
            for key, value in snapshot.stats.items()
        },
        "globals": _enc_vals(snapshot.globals),
        "memory": (
            None
            if snapshot.memory_pages is None
            else {
                "pages": snapshot.memory_pages,
                "delta": [
                    [index, base64.b64encode(page).decode("ascii")]
                    for index, page in snapshot.memory_delta
                ],
            }
        ),
        "table": list(snapshot.table) if snapshot.table is not None else None,
        "frames": [_frame_to_json(f) for f in snapshot.frames],
        "io": (
            None
            if snapshot.io is None
            else {
                "read_pos": snapshot.io.read_pos,
                "output": base64.b64encode(snapshot.io.output).decode("ascii"),
                "bytes_in": snapshot.io.bytes_in,
                "bytes_out": snapshot.io.bytes_out,
                "calls": snapshot.io.calls,
            }
        ),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = MAGIC + struct.pack("<I", snapshot.version) + body
    if _observe:
        SNAPSHOT_BYTES.observe(float(len(blob)))
    return blob


def decode_snapshot(blob: bytes) -> Snapshot:
    if blob[:4] != MAGIC:
        raise SnapshotError("not a snapshot: bad magic")
    if len(blob) < 8:
        raise SnapshotError("not a snapshot: truncated header")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot format version {version}")
    try:
        payload = json.loads(blob[8:].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotError(f"corrupt snapshot body: {exc}") from None
    stats = dict(payload["stats"])
    stats["visits"] = dict(stats["visits"])
    stats["cycles"] = _dec_val(stats["cycles"])
    stats["grow_history"] = [tuple(e) for e in stats["grow_history"]]
    memory = payload["memory"]
    io = payload["io"]
    return Snapshot(
        version=version,
        module_hash=bytes.fromhex(payload["module_hash"]),
        engine=payload["engine"],
        stats=stats,
        globals=_dec_vals(payload["globals"]),
        memory_pages=None if memory is None else memory["pages"],
        memory_delta=(
            ()
            if memory is None
            else tuple(
                (index, base64.b64decode(page)) for index, page in memory["delta"]
            )
        ),
        table=None if payload["table"] is None else tuple(payload["table"]),
        frames=tuple(_frame_from_json(f) for f in payload["frames"]),
        io=(
            None
            if io is None
            else IOState(
                read_pos=io["read_pos"],
                output=base64.b64decode(io["output"]),
                bytes_in=io["bytes_in"],
                bytes_out=io["bytes_out"],
                calls=io["calls"],
            )
        ),
    )
