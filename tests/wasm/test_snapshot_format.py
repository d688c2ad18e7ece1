"""The versioned snapshot wire format: deterministic, exact, self-checking.

Pins the properties the rest of the stack leans on:

* ``encode -> decode -> encode`` is the identity on bytes (canonical JSON
  body, so the sha256 of the encoding is a stable snapshot identity);
* linear memory ships as a page-level delta against the module's base
  image — untouched pages never travel;
* restoring into the wrong module is refused by hash, truncated or
  alien blobs are refused by magic/version;
* a warm image (capture of an idle instance) has no frames and restores
  an instance to its pristine post-instantiation state.
"""

import struct

import pytest

from repro.wasm.interpreter import ENGINES, ExecutionLimits, Instance
from repro.wasm.memory import PAGE_SIZE
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
