"""Versioned, engine-independent sandbox execution-state snapshots.

Capture a running sandbox at an observation point, serialize everything —
value stack, locals, call frames, globals, linear memory (page delta
against a deterministic base image), exact meter counters, I/O position —
and restore into any engine.  See :mod:`repro.wasm.snapshot.format` for
the capture/wire half, :mod:`repro.wasm.snapshot.restore` for the
restore/resume half and :mod:`repro.wasm.snapshot.pool` for the instance
pools every slice leases from.
"""

from repro.wasm.interpreter import CapturedFrame, SnapshotCaptured
from repro.wasm.snapshot.format import (
    FORMAT_VERSION,
    MAGIC,
    IOState,
    Snapshot,
    SnapshotError,
    base_memory_image,
    capture_instance,
    decode_snapshot,
    encode_snapshot,
    rewind_io,
    snapshot_from_unwind,
)
from repro.wasm.snapshot.pool import WarmHandle, WarmPool
from repro.wasm.snapshot.restore import (
    apply_state,
    restore_instance,
    resume_instance,
    resume_invoke,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "CapturedFrame",
    "IOState",
    "Snapshot",
    "SnapshotCaptured",
    "SnapshotError",
    "WarmHandle",
    "WarmPool",
    "apply_state",
    "base_memory_image",
    "capture_instance",
    "decode_snapshot",
    "encode_snapshot",
    "restore_instance",
    "resume_instance",
    "resume_invoke",
    "rewind_io",
    "snapshot_from_unwind",
]
