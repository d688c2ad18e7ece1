"""Tests for linear memory."""

import pytest

from repro.wasm.memory import LinearMemory, MemoryAccessError, PAGE_SIZE


def test_initial_size():
    mem = LinearMemory(2)
    assert mem.pages == 2
    assert mem.size_bytes == 2 * PAGE_SIZE


def test_grow_returns_old_size():
    mem = LinearMemory(1, maximum_pages=3)
    assert mem.grow(2) == 1
    assert mem.pages == 3


def test_grow_respects_maximum():
    mem = LinearMemory(1, maximum_pages=2)
    assert mem.grow(5) == -1
    assert mem.pages == 1


def test_grow_negative_fails():
    assert LinearMemory(1).grow(-1) == -1


def test_grow_returns_old_page_count():
    mem = LinearMemory(1)
    assert mem.grow(1) == 1
    assert mem.grow(3) == 2
    assert mem.pages == 5


def test_peak_equals_current():
    mem = LinearMemory(1)
    mem.grow(4)
    assert mem.peak_bytes == mem.size_bytes == 5 * PAGE_SIZE


def test_read_write_roundtrip():
    mem = LinearMemory(1)
    mem.write(100, b"hello")
    assert mem.read(100, 5) == b"hello"


def test_zero_initialised():
    assert LinearMemory(1).read(0, 16) == b"\x00" * 16


def test_out_of_bounds_read():
    mem = LinearMemory(1)
    with pytest.raises(MemoryAccessError):
        mem.read(PAGE_SIZE - 2, 4)
    with pytest.raises(MemoryAccessError):
        mem.read(-1, 1)


def test_out_of_bounds_write():
    mem = LinearMemory(1)
    with pytest.raises(MemoryAccessError):
        mem.write(PAGE_SIZE - 1, b"ab")


def test_int_access_signed_and_unsigned():
    mem = LinearMemory(1)
    mem.store_int(0, -1, 4)
    assert mem.load_int(0, 4, signed=False) == 0xFFFFFFFF
    assert mem.load_int(0, 4, signed=True) == -1
    mem.store_int(8, 0x1234, 2)
    assert mem.load_int(8, 2, signed=False) == 0x1234


def test_little_endian_layout():
    mem = LinearMemory(1)
    mem.store_int(0, 0x0A0B0C0D, 4)
    assert mem.read(0, 4) == b"\x0d\x0c\x0b\x0a"


def test_float_access():
    mem = LinearMemory(1)
    mem.store_f64(16, 3.25)
    assert mem.load_f64(16) == 3.25
    mem.store_f32(24, 1.5)
    assert mem.load_f32(24) == 1.5


def test_f32_overflow_becomes_infinity():
    mem = LinearMemory(1)
    mem.store_f32(0, 1e300)
    assert mem.load_f32(0) == float("inf")


def test_initial_size_cap():
    with pytest.raises(ValueError):
        LinearMemory(0x10001)
    with pytest.raises(ValueError):
        LinearMemory(4, maximum_pages=2)
