"""Restore snapshots into live instances and resume suspended frames.

``restore_instance`` builds a fresh :class:`~repro.wasm.interpreter.Instance`
for *any* engine and overwrites its state in place from a snapshot —
memory (base image + page delta), globals, table, and the exact meter
counters.  ``resume_instance`` then re-enters the suspended call stack:
frames are replayed innermost-first as direct entries into the instance's
own engine (compiled code re-enters the same generated function a fresh
call runs, skipping forward to where the capture fell), and each
ancestor frame — suspended inside ``call``/``call_indirect`` — receives its
callee's results, charges the deferred ``calls`` counter (every engine
charges it *after* the callee returns) and continues at ``pc + 1``.  A
resumed run therefore finishes with stats byte-identical to the
uninterrupted one.
"""

from __future__ import annotations

from dataclasses import replace

from repro.tcrypto.hashing import sha256
from repro.wasm.binary import encode_module
from repro.wasm.interpreter import (
    CaptureUnwind,
    ExecutionLimits,
    Instance,
    SnapshotCaptured,
    _signed,
)
from repro.wasm.memory import MAX_PAGES, PAGE_SIZE, LinearMemory
from repro.wasm.module import Module
from repro.wasm.snapshot.format import (
    Snapshot,
    _ZERO_PAGE,
    SnapshotError,
    instance_base_image,
    snapshot_from_unwind,
)


def restore_instance(
    snapshot: Snapshot,
    module: Module,
    *,
    imports: dict | None = None,
    cost_model=None,
    limits: ExecutionLimits | None = None,
    engine: str | None = None,
    module_hash: bytes | None = None,
) -> Instance:
    """Instantiate ``module`` under any engine and load ``snapshot`` into it.

    The module must be byte-identical to the one the snapshot was taken
    from (same instrumented encoding — the hash pins weight-table-relevant
    structure, not just source).  ``module_hash`` is
    ``sha256(encode_module(module))`` when the caller computed it already
    (a worker does so once per module it decodes); otherwise it is
    computed here.
    """
    if module_hash is None:
        module_hash = sha256(encode_module(module))
    require_module(snapshot, module_hash)
    instance = Instance(
        module,
        imports=imports,
        cost_model=cost_model,
        limits=limits,
        engine=engine,
        module_hash=module_hash,
    )
    apply_state(instance, snapshot)
    return instance


def require_module(snapshot: Snapshot, module_hash: bytes) -> None:
    """Refuse a snapshot taken from another module than ``module_hash``'s."""
    if module_hash != snapshot.module_hash:
        raise SnapshotError(
            "module hash mismatch: snapshot was taken from a different module"
        )


def slice_limits(limits: ExecutionLimits, snapshot: Snapshot) -> ExecutionLimits:
    """``limits`` for a slice resumed from ``snapshot``: a relative
    ``snapshot_at`` counts on from the instructions already executed."""
    if limits.snapshot_at is None:
        return limits
    return replace(limits, snapshot_at=snapshot.executed + limits.snapshot_at)


def apply_state(instance: Instance, snapshot: Snapshot) -> None:
    """Overwrite a live instance's state from a snapshot, in place.

    In place matters: the engines bind the instance's memory/globals/stats
    objects at instantiation, so state must be written *into* those objects
    rather than replacing them.  Per-call state an earlier call left (the
    profiler ``invoke`` armed) is cleared, so a pooled instance, reset by
    this, carries nothing a fresh one would not.
    """
    instance._profiler = None
    memory = instance.memory
    if snapshot.memory_pages is not None:
        if memory is None:
            raise SnapshotError("snapshot has memory but the instance does not")
        maximum = memory._maximum if memory._maximum is not None else MAX_PAGES
        if snapshot.memory_pages > maximum:
            raise SnapshotError("snapshot has more memory pages than the instance allows")
        _reset_memory(memory, instance_base_image(instance), snapshot)
    if len(snapshot.globals) != len(instance.globals):
        raise SnapshotError("snapshot global count does not match the instance")
    for g, value in zip(instance.globals, snapshot.globals):
        g.value = value
    if snapshot.table is not None:
        if instance.table is None:
            raise SnapshotError("snapshot has a table but the instance does not")
        instance.table.elements[:] = list(snapshot.table)

    stats = instance.stats
    state = snapshot.stats
    stats.visits.clear()
    dict.update(stats.visits, state["visits"])
    stats.executed = state["executed"]
    stats.cycles = state["cycles"]
    stats.loads = state["loads"]
    stats.stores = state["stores"]
    stats.bytes_loaded = state["bytes_loaded"]
    stats.bytes_stored = state["bytes_stored"]
    stats.calls = state["calls"]
    stats.host_calls = state["host_calls"]
    stats.grow_history[:] = [tuple(e) for e in state["grow_history"]]


def _reset_memory(memory: LinearMemory, base: bytes, snapshot: Snapshot) -> None:
    """Make ``memory`` the snapshot's memory: its delta pages over the base
    image, zeros past it.  A page that already holds its target (a pooled
    instance resuming the capture it took, or a page the last slice left
    clean) costs one ``memcmp`` and is not rewritten."""
    memory.resize(snapshot.memory_pages)
    data = memory._data
    size = len(data)
    delta = dict(snapshot.memory_delta)
    base_view = memoryview(base)
    for lo in range(0, size, PAGE_SIZE):
        page = delta.get(lo // PAGE_SIZE) or base_view[lo : lo + PAGE_SIZE] or _ZERO_PAGE
        if not data.startswith(page, lo):
            data[lo : lo + PAGE_SIZE] = page


def resume_instance(instance: Instance, snapshot: Snapshot) -> list:
    """Re-enter a snapshot's suspended call stack; returns raw results.

    Frames resume innermost-first.  If the instance's limits are re-armed
    (``snapshot_at`` set), a fresh :class:`CaptureUnwind` may escape any
    frame — the still-suspended outer frames are appended to it so the
    re-capture covers the whole stack, and the unwind propagates to the
    caller (see :func:`resume_invoke`).
    """
    frames = snapshot.frames
    if not frames:
        raise SnapshotError("snapshot has no suspended frames to resume")
    n_imported = instance.module.num_imported_funcs
    run = instance._engine.exec_function
    saved_depth = instance._call_depth
    results: list = []
    try:
        for depth in range(len(frames) - 1, -1, -1):
            frame = frames[depth]
            stack = list(frame.stack)
            locals_ = list(frame.locals)
            pc = frame.pc
            if frame.kind == "at_call":
                # the frame suspended inside call/call_indirect with args
                # already popped: push the callee's results and charge the
                # deferred post-return bookkeeping before continuing
                stack.extend(results)
                instance.stats.calls += 1
                pc += 1
            instance._call_depth = depth + 1
            try:
                results = run(
                    frame.func_index - n_imported,
                    [],
                    resume=(pc, stack, locals_, frame.control),
                )
            except CaptureUnwind as unwind:
                for outer in reversed(frames[:depth]):
                    unwind.frames.append(outer)
                raise
    finally:
        instance._call_depth = saved_depth
    return results


def resume_invoke(instance: Instance, snapshot: Snapshot):
    """Resume and convert results exactly like ``Instance.invoke`` does.

    Raises :class:`SnapshotCaptured` (carrying the next snapshot) if the
    instance's limits are re-armed and another observation point is hit.
    """
    try:
        results = resume_instance(instance, snapshot)
    except CaptureUnwind as unwind:
        raise SnapshotCaptured(snapshot_from_unwind(instance, unwind)) from None
    functype = instance.module.func_type(snapshot.frames[0].func_index)
    if not functype.results:
        return None
    result = results[0]
    if functype.results[0].is_int:
        return _signed(result, functype.results[0].bits)
    return result
