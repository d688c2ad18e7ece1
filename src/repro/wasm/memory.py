"""Linear memory: a growable, bounds-checked byte array in 64 KiB pages.

A running Wasm program can only grow its linear memory (the property
AccTEE's memory accounting relies on, §3.5 of the paper).  The one way to
shrink it is :meth:`LinearMemory.resize`, which restoring a snapshot calls
to give an instance the captured page count; :attr:`LinearMemory.peak_bytes`
is therefore the current size, the peak of the run the memory last
restored to, not a peak over every run it has held.

Compiled code indexes typed views of the bytes; a view is valid only until
the next size change (see :class:`LinearMemory`).
"""

from __future__ import annotations

import struct

PAGE_SIZE = 0x10000  # 64 KiB
#: Hard cap of the 32-bit address space, in pages.
MAX_PAGES = 0x10000


class MemoryAccessError(Exception):
    """Out-of-bounds linear memory access (translates to a trap)."""


class LinearMemory:
    """A WebAssembly linear memory instance.

    Besides the bytes, it owns one native-endian typed view of them per
    full-width access type (``view_f64``, ``view_f32``, ``view_u32``,
    ``view_u64``), which compiled code indexes for aligned accesses.  A
    bytearray with live views cannot change size, so every size change
    (:meth:`grow`, :meth:`resize`) releases the views first and builds new
    ones after: a view taken before a size change is dead after it, and
    whoever holds one rebinds it from the memory.
    """

    def __init__(self, minimum_pages: int, maximum_pages: int | None = None):
        if minimum_pages > MAX_PAGES:
            raise ValueError("initial memory exceeds 4 GiB address space")
        if maximum_pages is not None and maximum_pages < minimum_pages:
            raise ValueError("memory maximum below minimum")
        self._data = bytearray(minimum_pages * PAGE_SIZE)
        self._maximum = maximum_pages
        self._bind_views()

    def _bind_views(self) -> None:
        base = memoryview(self._data)
        self._views = (base, base.cast("d"), base.cast("f"), base.cast("I"), base.cast("Q"))
        _, self.view_f64, self.view_f32, self.view_u32, self.view_u64 = self._views

    def _set_size(self, size: int) -> None:
        """Resize the bytes (zeros past the old end): the typed views are
        released before and rebuilt after, since a bytearray with live
        views refuses to change size."""
        for view in self._views:
            view.release()
        try:
            if size < len(self._data):
                del self._data[size:]
            else:
                self._data.extend(bytes(size - len(self._data)))
        finally:
            self._bind_views()

    @property
    def pages(self) -> int:
        return len(self._data) // PAGE_SIZE

    @property
    def size_bytes(self) -> int:
        return len(self._data)

    @property
    def peak_bytes(self) -> int:
        """The current size: a program never shrinks its memory, so its
        current size is its peak (only :meth:`resize`, on a snapshot
        restore, shrinks it, to the restored run's own size)."""
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
        if delta_pages:
            self._set_size(new * PAGE_SIZE)
        return old

    def resize(self, pages: int) -> None:
        """Set the size to ``pages`` (restoring a snapshot may shrink it):
        pages past the old end are zero."""
        if pages * PAGE_SIZE != len(self._data):
            self._set_size(pages * PAGE_SIZE)

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
