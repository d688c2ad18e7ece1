"""Instance pools: instantiate once, lease and reset a live instance per slice.

Per-slice setup cost for an instrumented module is dominated by
instantiation — the compile engine (the default) binds its cached code
into a fresh namespace (and builds a slow path's per-instruction closures
on first use), the predecode reference decodes every function body at
``Instance()`` time.  A
:class:`WarmPool` pays that cost once per pooled slot: it builds a
template instance, captures its pristine post-instantiation state as a
warm-image :class:`~repro.wasm.snapshot.Snapshot` (frames empty), and
leases each slice a pooled live instance reset in place with
:func:`~repro.wasm.snapshot.apply_state` — to the warm image for a fresh
call, to the snapshot for a resume — exactly as a fresh instance would
start it.  Every slice runs this way
(:func:`~repro.core.accounting_enclave.run_slice`), in the accounting
enclave and in gateway workers alike.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.wasm.interpreter import ExecutionLimits, Instance
from repro.wasm.module import Module
from repro.wasm.runtime import HostEnvironment
from repro.wasm.snapshot.format import Snapshot, capture_instance, rewind_io
from repro.wasm.snapshot.restore import apply_state, require_module, slice_limits


class WarmHandle(NamedTuple):
    """One pooled live instance, leased to exactly one slice at a time.

    ``built`` is the ``(start, end)`` ``perf_counter_ns`` stamps of the
    pool build this lease paid for, ``None`` when it reused an idle
    instance; ``image`` says that build also captured the pool's warm
    image.  A slice's record reads both
    (:func:`~repro.core.accounting_enclave.run_slice`).
    """

    instance: Instance
    env: HostEnvironment
    built: tuple[int, int] | None = None
    image: bool = False


@dataclass
class WarmPool:
    """A bounded pool of pre-instantiated instances of one module.

    ``module_hash`` is ``sha256(encode_module(module))`` when the caller
    holds it already, so no pooled instance encodes the module again.
    Nothing is instantiated until the first :meth:`acquire`.

    The module's start function runs once per pooled instance, when it is
    built, under the instruction budget of the lease that builds it.  It
    cannot perform host I/O (the environment binds an instance only once
    its start function has returned, so ``io_read``/``io_write`` trap), so
    the warm image carries no I/O for a lease to bill or rewind.
    """

    module: Module
    engine: str | None = None
    module_hash: bytes | None = None
    max_size: int = 4
    hits: int = 0
    builds: int = 0
    _idle: list[WarmHandle] = field(default_factory=list)
    _image: Snapshot | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")

    # -- building ----------------------------------------------------------------

    def _build(self, limits: ExecutionLimits) -> WarmHandle:
        started = time.perf_counter_ns()
        env = HostEnvironment()
        # the start function runs under the lease's instruction budget,
        # but never captures or reports progress
        instance = env.instantiate(
            self.module,
            limits=replace(
                limits, snapshot_at=None, progress_interval=None, progress_callback=None
            ),
            engine=self.engine,
            module_hash=self.module_hash,
        )
        with self._lock:
            self.builds += 1
            image = self._image is None
            if image:
                # the pristine post-instantiation state (start function
                # included) — every acquire resets a pooled instance to this
                self._image = capture_instance(instance)
        return WarmHandle(instance, env, (started, time.perf_counter_ns()), image)

    # -- leasing -----------------------------------------------------------------

    def acquire(
        self,
        input_data: bytes = b"",
        limits: ExecutionLimits | None = None,
        snapshot: Snapshot | None = None,
    ) -> WarmHandle:
        """Lease an instance reset to the warm image, ready to invoke, or
        to ``snapshot`` (of this module only), ready to resume under
        ``limits`` whose ``snapshot_at`` counts on from it."""
        limits = limits or ExecutionLimits()
        with self._lock:
            handle = self._idle.pop() if self._idle else None
            self.hits += handle is not None
        if handle is None:
            handle = self._build(limits)
        if snapshot is not None:
            require_module(snapshot, self._image.module_hash)
            limits = slice_limits(limits, snapshot)
        state = snapshot or self._image
        apply_state(handle.instance, state)
        rewind_io(handle.env, input_data, state.io)
        handle.instance.limits = limits
        return handle

    def release(self, handle: WarmHandle) -> None:
        """Return a leased instance; surplus handles beyond ``max_size`` drop."""
        if handle.built is not None:  # the next lease of it builds nothing
            handle = WarmHandle(handle.instance, handle.env)
        with self._lock:
            if len(self._idle) < self.max_size:
                self._idle.append(handle)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "builds": self.builds,
                "idle": len(self._idle),
                "max_size": self.max_size,
            }
