"""The versioned snapshot wire format: deterministic, exact, self-checking.

Pins the properties the rest of the stack leans on:

* ``encode -> decode -> encode`` is the identity on bytes (a deterministic
  binary body, so the sha256 of the encoding is a stable snapshot
  identity);
* linear memory ships as a page-level delta against the module's base
  image — untouched pages never travel;
* restoring into the wrong module is refused by hash, truncated or
  alien blobs are refused by magic/version;
* a hostile blob — truncated, a byte flipped, a count pointing past the
  end — raises :class:`SnapshotError` and nothing else, and never sizes
  an allocation past what the blob could hold;
* a warm image (capture of an idle instance) has no frames and restores
  an instance to its pristine post-instantiation state.
"""

import struct
import tracemalloc
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.wasm.interpreter import ENGINES, ExecutionLimits, Instance
from repro.wasm.memory import PAGE_SIZE
from repro.wasm.runtime import HostEnvironment
from repro.wasm.snapshot import format as snapshot_format
from repro.wasm.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotCaptured,
    SnapshotError,
    apply_state,
    base_memory_image,
    capture_instance,
    decode_snapshot,
    encode_snapshot,
    restore_instance,
)
from repro.wasm.wat_parser import parse_wat

# memory with a data segment, a mutable global, and exports that touch both
MEMMOD = """
(module
  (memory (export "mem") 2 4)
  (data (i32.const 16) "acctee-base-image")
  (global $acc (mut i32) (i32.const 0))
  (global $pi (mut f64) (f64.const 3.141592653589793))
  (func (export "poke") (param i32 i32)
    (i32.store (local.get 0) (local.get 1))
    (global.set $acc (i32.add (global.get $acc) (i32.const 1))))
  (func (export "grow") (result i32)
    (memory.grow (i32.const 1)))
  (func (export "spin") (param i32) (result i32)
    (local i32)
    (loop $top
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (local.get 1)))
"""


def fresh(engine=None, **limits_kwargs) -> Instance:
    return Instance(
        parse_wat(MEMMOD),
        limits=ExecutionLimits(**limits_kwargs),
        engine=engine,
    )


def suspend(instance: Instance, export: str, *args):
    with pytest.raises(SnapshotCaptured) as captured:
        instance.invoke(export, *args)
    return captured.value.snapshot


class TestEncoding:
    def test_round_trip_is_identity_on_bytes(self):
        inst = fresh(snapshot_at=50)
        snap = suspend(inst, "spin", 1000)
        blob = encode_snapshot(snap)
        assert blob[:4] == MAGIC
        assert struct.unpack("<I", blob[4:8])[0] == FORMAT_VERSION
        again = encode_snapshot(decode_snapshot(blob))
        assert again == blob

    def test_encoding_is_deterministic(self):
        inst = fresh(snapshot_at=50)
        snap = suspend(inst, "spin", 1000)
        assert encode_snapshot(snap) == encode_snapshot(snap)
        assert snap.hash() == decode_snapshot(encode_snapshot(snap)).hash()

    def test_float_globals_round_trip_bit_exact(self):
        inst = fresh(snapshot_at=30)
        snap = suspend(inst, "spin", 1000)
        restored = decode_snapshot(encode_snapshot(snap))
        assert restored.globals == snap.globals
        assert any(
            struct.pack("<d", g) == struct.pack("<d", 3.141592653589793)
            for g in restored.globals
            if isinstance(g, float)
        )

    def test_bad_magic_rejected(self):
        inst = fresh(snapshot_at=10)
        blob = encode_snapshot(suspend(inst, "spin", 1000))
        with pytest.raises(SnapshotError, match="magic"):
            decode_snapshot(b"XXXX" + blob[4:])

    def test_unknown_version_rejected(self):
        inst = fresh(snapshot_at=10)
        blob = encode_snapshot(suspend(inst, "spin", 1000))
        alien = blob[:4] + struct.pack("<I", FORMAT_VERSION + 1) + blob[8:]
        with pytest.raises(SnapshotError, match="version"):
            decode_snapshot(alien)

    def test_truncated_blob_rejected(self):
        with pytest.raises(SnapshotError):
            decode_snapshot(MAGIC)


    def test_trailing_bytes_rejected(self):
        blob = encode_snapshot(suspend(fresh(snapshot_at=10), "spin", 1000))
        with pytest.raises(SnapshotError):
            decode_snapshot(blob + b"\0")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_section_round_trips(self, engine):
        snap = every_section(engine)
        assert snap.io.output == b"DCBA"
        assert snap.table is not None and None in snap.table
        assert snap.stats["grow_history"] and len(snap.frames) == 2
        assert [index for index, _page in snap.memory_delta] == [0, 1]
        blob = encode_snapshot(snap)
        assert decode_snapshot(blob) == snap
        assert encode_snapshot(decode_snapshot(blob)) == blob

    def test_every_section_encodes_identically_under_both_engines(self):
        blobs = {encode_snapshot(replace(every_section(e), engine="-")) for e in ENGINES}
        assert len(blobs) == 1

    def test_visit_order_does_not_change_the_bytes(self):
        snap = every_section("compile")
        visits = snap.stats["visits"]
        shuffled = replace(
            snap, stats={**snap.stats, "visits": dict(reversed(list(visits.items())))}
        )
        assert list(shuffled.stats["visits"]) != list(visits)
        assert encode_snapshot(shuffled) == encode_snapshot(snap)

    def test_interleaved_captures_keep_their_own_sections(self):
        # the codec caches pieces per visit-name set, control stack and tag
        # string; captures of different shape, taken in turn, stay apart
        snaps = [
            every_section("compile"),
            suspend(fresh("compile", snapshot_at=50), "spin", 1000),
            every_section("predecode"),
        ]
        blobs = [encode_snapshot(s) for s in snaps]
        for snap, blob in [*zip(snaps, blobs), *zip(snaps, blobs)]:
            assert encode_snapshot(snap) == blob
            assert decode_snapshot(blob) == snap


# memory that grows, a funcref table with empty slots, an i64 and an f64
# global, host output, and a capture two frames deep (one suspended in
# call_indirect): every section of the wire format carries something
EVERY_SECTION = """
(module
  (import "env" "io_write" (func $io_write (param i32 i32) (result i32)))
  (type $t (func (param i32) (result i32)))
  (memory 1 4)
  (table 3 funcref)
  (elem (i32.const 1) $inner)
  (global $g (mut f64) (f64.const 2.5))
  (global $n (mut i64) (i64.const -1))
  (func $inner (param i32) (result i32)
    (local i32)
    (i32.store (i32.const 70000) (local.get 0))
    (loop $top
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (local.get 1))
  (func (export "run") (param i32) (result i32)
    (drop (memory.grow (i32.const 1)))
    (i32.store (i32.const 16) (i32.const 0x41424344))
    (drop (call $io_write (i32.const 16) (i32.const 4)))
    (global.set $g (f64.add (global.get $g) (f64.const 0.25)))
    (block (result i32)
      (call_indirect (type $t) (local.get 0) (i32.const 1)))))
"""


@cache
def every_section(engine: str):
    instance = HostEnvironment().instantiate(
        parse_wat(EVERY_SECTION), limits=ExecutionLimits(snapshot_at=60), engine=engine
    )
    return suspend(instance, "run", 500)


@cache
def real_blobs() -> tuple:
    """Real captures under both engines: one with two pages, host output,
    a table and two frames; one with no page at all."""
    blobs = []
    for engine in ENGINES:
        blobs.append(encode_snapshot(every_section(engine)))
        blobs.append(encode_snapshot(suspend(fresh(engine, snapshot_at=50), "spin", 1000)))
    return tuple(blobs)


def _structure(blob: bytes) -> list:
    """Offsets of the bytes that are not raw page contents."""
    pages = b"".join(page for _index, page in decode_snapshot(blob).memory_delta)
    lo = blob.find(pages) if pages else len(blob)
    return [*range(lo), *range(lo + len(pages), len(blob))]


def _decode_bounded(blob: bytes) -> None:
    """Decode, allowing only :class:`SnapshotError`, and check that the
    decode allocated no more than a small multiple of the blob."""
    tracemalloc.start()
    try:
        decode_snapshot(blob)
    except SnapshotError:
        pass
    finally:
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak <= 4 * len(blob) + (1 << 16), peak


@st.composite
def hostile(draw):
    blob = draw(st.sampled_from(real_blobs()))
    how = draw(st.sampled_from(("truncate", "flip", "count")))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "flip":
        at = draw(st.sampled_from(_structure(blob)) | st.integers(0, len(blob) - 1))
        mask = draw(st.integers(1, 255))
        return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :]
    # overwrite a 4- or 8-byte little-endian field in the structural part
    width = draw(st.sampled_from((4, 8)))
    at = draw(st.sampled_from(_structure(blob)[: -width or None]))
    value = draw(
        st.sampled_from((len(blob), len(blob) // 8 + 1, 2**31, 2**32 - 1))
        | st.integers(0, 2 ** (8 * width) - 1)
    )
    return blob[:at] + value.to_bytes(width, "little") + blob[at + width :]


class TestHostileInput:
    """The blob crosses untrusted hops (worker to gateway to worker)."""

    @seed(36)
    @settings(max_examples=300, deadline=None)
    @given(blob=hostile())
    def test_decode_raises_only_snapshot_error(self, blob):
        _decode_bounded(blob)

    def test_every_truncation_of_a_small_capture_is_refused(self):
        blob = real_blobs()[1]
        for n in range(len(blob)):
            with pytest.raises(SnapshotError):
                decode_snapshot(blob[:n])


class TestMemoryDelta:
    def test_untouched_memory_ships_no_pages(self):
        inst = fresh(snapshot_at=20)
        snap = suspend(inst, "spin", 1000)
        assert snap.memory_delta == ()

    def test_only_dirty_pages_travel(self):
        inst = fresh()
        inst.invoke("poke", PAGE_SIZE + 8, 0xBEEF)  # dirty page 1 only
        snap = capture_instance(inst)
        assert [index for index, _page in snap.memory_delta] == [1]

    def test_data_segment_is_part_of_the_base_image(self):
        # bytes placed by a data segment are base image, not delta —
        # page 0 only becomes dirty once something else writes to it
        module = parse_wat(MEMMOD)
        base = base_memory_image(module)
        assert base[16:33] == b"acctee-base-image"
        inst = Instance(module)
        snap = capture_instance(inst)
        assert snap.memory_delta == ()

    def test_restore_rebuilds_exact_memory_and_globals(self):
        inst = fresh()
        inst.invoke("poke", 100, 7)
        inst.invoke("poke", PAGE_SIZE * 2 - 4, 9)
        inst.invoke("grow")
        snap = decode_snapshot(encode_snapshot(capture_instance(inst)))

        restored = restore_instance(snap, parse_wat(MEMMOD))
        assert bytes(restored.memory._data) == bytes(inst.memory._data)
        assert [g.value for g in restored.globals] == [g.value for g in inst.globals]
        assert restored.stats.executed == inst.stats.executed
        assert restored.stats.visits == inst.stats.visits

    def test_base_image_is_built_once_per_module(self, monkeypatch):
        # every capture diffs against the base image and every reset copies
        # it; both must read exactly what an uncached build gives
        built = []
        uncached = snapshot_format.base_memory_image

        def counting(module):
            built.append(module)
            return uncached(module)

        snapshot_format.BASE_IMAGES.clear()
        monkeypatch.setattr(snapshot_format, "base_memory_image", counting)
        module = parse_wat(MEMMOD)
        pristine = bytes(Instance(module).memory._data)
        warm = capture_instance(Instance(module))
        source, target = Instance(module), Instance(module)
        for value in range(1, 4):
            source.invoke("poke", PAGE_SIZE + value, value)
            if value == 2:
                source.invoke("grow")
            snap = capture_instance(source)
            assert [index for index, _page in snap.memory_delta] == [1]
            apply_state(target, snap)
            assert bytes(target.memory._data) == bytes(source.memory._data)
            apply_state(target, warm)
            assert bytes(target.memory._data) == pristine
        assert uncached(module)[16:33] == pristine[16:33] == b"acctee-base-image"
        assert len(built) == 1
        capture_instance(Instance(parse_wat(MEMMOD.replace("base-image", "other-data"))))
        assert len(built) == 2


class TestRestoreSafety:
    def test_wrong_module_refused_by_hash(self):
        inst = fresh(snapshot_at=20)
        snap = suspend(inst, "spin", 1000)
        other = parse_wat('(module (func (export "f") (result i32) (i32.const 1)))')
        with pytest.raises(SnapshotError, match="hash"):
            restore_instance(snap, other)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_image_has_no_frames_and_resets_state(self, engine):
        template = fresh(engine=engine)
        image = capture_instance(template)
        assert image.frames == ()

        worker = fresh(engine=engine)
        worker.invoke("poke", 64, 123)
        worker.invoke("spin", 500)
        assert worker.stats.executed > 0
        apply_state(worker, image)
        assert worker.stats.executed == 0
        assert bytes(worker.memory._data) == bytes(template.memory._data)
        # and the reset instance is immediately reusable at full speed
        assert worker.invoke("spin", 10) == 10
