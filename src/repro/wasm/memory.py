"""Linear memory: a growable, bounds-checked byte array in 64 KiB pages.

Linear memory can only grow (the property AccTEE's memory accounting relies
on, §3.5 of the paper), so :class:`LinearMemory` records its peak size —
which equals its current size — and exposes the page history for the
instruction-integral accounting policy.
"""

from __future__ import annotations

import struct

PAGE_SIZE = 0x10000  # 64 KiB
#: Hard cap of the 32-bit address space, in pages.
MAX_PAGES = 0x10000


class MemoryAccessError(Exception):
    """Out-of-bounds linear memory access (translates to a trap)."""


class LinearMemory:
    """A WebAssembly linear memory instance."""

    def __init__(self, minimum_pages: int, maximum_pages: int | None = None):
        if minimum_pages > MAX_PAGES:
            raise ValueError("initial memory exceeds 4 GiB address space")
        if maximum_pages is not None and maximum_pages < minimum_pages:
            raise ValueError("memory maximum below minimum")
        self._data = bytearray(minimum_pages * PAGE_SIZE)
        self._maximum = maximum_pages

    @property
    def pages(self) -> int:
        return len(self._data) // PAGE_SIZE

    @property
    def size_bytes(self) -> int:
        return len(self._data)

    @property
    def peak_bytes(self) -> int:
        """Peak = current size, because linear memory never shrinks."""
        return len(self._data)

    def grow(self, delta_pages: int) -> int:
        """Grow by ``delta_pages``; returns the old page count, or -1 on failure."""
        if delta_pages < 0:
            return -1
        old = self.pages
        new = old + delta_pages
        if new > MAX_PAGES:
            return -1
        if self._maximum is not None and new > self._maximum:
            return -1
        self._data.extend(bytes(delta_pages * PAGE_SIZE))
        return old

    # -- raw byte access -------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        if address < 0 or length < 0 or address + length > len(self._data):
            raise MemoryAccessError(
                f"read of {length} bytes at {address} out of bounds ({len(self._data)})"
            )
        return bytes(self._data[address : address + length])

    def write(self, address: int, data: bytes) -> None:
        if address < 0 or address + len(data) > len(self._data):
            raise MemoryAccessError(
                f"write of {len(data)} bytes at {address} out of bounds ({len(self._data)})"
            )
        self._data[address : address + len(data)] = data

    # -- typed access (little-endian, as the spec requires) ---------------------

    def load_int(self, address: int, byte_width: int, signed: bool) -> int:
        raw = self.read(address, byte_width)
        return int.from_bytes(raw, "little", signed=signed)

    def store_int(self, address: int, value: int, byte_width: int) -> None:
        mask = (1 << (byte_width * 8)) - 1
        self.write(address, (value & mask).to_bytes(byte_width, "little"))

    def load_f32(self, address: int) -> float:
        return struct.unpack("<f", self.read(address, 4))[0]

    def store_f32(self, address: int, value: float) -> None:
        try:
            self.write(address, struct.pack("<f", value))
        except OverflowError:
            inf = float("inf") if value > 0 else float("-inf")
            self.write(address, struct.pack("<f", inf))

    def load_f64(self, address: int) -> float:
        return struct.unpack("<d", self.read(address, 8))[0]

    def store_f64(self, address: int, value: float) -> None:
        self.write(address, struct.pack("<d", value))
