"""The gateway's execution pool: run instrumented workloads concurrently.

Execution and accounting are deliberately split (see
:class:`repro.core.accounting_enclave.RawExecution`): workers — plain
processes, standing in for the per-request enclave instances of the paper's
FaaS deployment — execute the *already instrumented* module and return raw
meter readings; the tenant's accounting enclave back in the gateway process
turns those into signed receipts.  Workers therefore never hold signing
keys, and a compromised worker can at worst mis-execute its own tenant's
request — exactly the blast radius the two-way sandbox promises.  The
execution itself is the accounting enclave's own
:func:`~repro.core.accounting_enclave.run_slice`; a worker adds only its
wire concerns — the module cache, snapshot encoding, warm-pool leases and
fault act-out.

The default pool is a :class:`~concurrent.futures.ProcessPoolExecutor`
(real parallelism for the pure-Python interpreter); ``kind="thread"`` gives
a threaded fallback for platforms where subprocesses are unavailable, and is
also what the test suite uses for speed.  Each worker process keeps a small
module cache keyed by module hash, so per-request work is instantiate +
execute, matching the paper's cached-side-module FaaS setup (§4.3).

Workers are assumed to fail: a crashed worker process poisons the whole
``ProcessPoolExecutor`` (every later submit raises ``BrokenProcessPool``),
so :class:`WorkerPool` detects the break and rebuilds the executor in
place.  The pool never hands the executor more than ``workers`` tasks at a
time — the surplus waits in the pool's own backlog, outside the executor —
so on a break the backlog (provably never started) re-dispatches
transparently onto the replacement, while the few tasks that may have been
in flight surface as typed :class:`~repro.service.faults.WorkerCrashed`
errors for the gateway's bounded retry layer.  After ``max_rebuilds``
process-pool rebuilds the pool falls back to threads for the rest of its
life rather than fork-looping.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, replace

from repro.core.accounting_enclave import RawExecution, run_slice
from repro.obs.context import TelemetryCapture, TraceContext, activate, worker_event
from repro.obs.events import emit as emit_event
from repro.obs.instruments import (
    POOL_EXEC_WALL,
    POOL_REBUILDS,
    POOL_TASKS,
    POOL_TASKS_IN_FLIGHT,
    POOL_UTILISATION,
)
from repro.service.faults import WorkerCrashed, corrupt_raw, perform_pre_fault
from repro.service.warmpool import WarmPool
from repro.tcrypto.hashing import sha256
from repro.wasm.binary import decode_module, encode_module
from repro.wasm.interpreter import ExecutionLimits
from repro.wasm.module import Module
from repro.wasm.snapshot import decode_snapshot, encode_snapshot


class _Decoded:
    """One decoded module and its digest, ``sha256(encode_module(module))``.

    The digest is computed from this very module the first time a dispatch
    needs it (the compiled-code cache key, snapshot capture, the restore
    check, the reading's workload hash) and then reused by every later
    dispatch of the module, instead of re-encoding it up to three times per
    dispatch.  Decoded modules are never mutated, so the digest cannot go
    stale.
    """

    __slots__ = ("module", "_digest")

    def __init__(self, module: Module):
        self.module = module
        self._digest: bytes | None = None

    @property
    def digest(self) -> bytes:
        if self._digest is None:
            self._digest = sha256(encode_module(self.module))
        return self._digest


#: Worker-side decoded-module cache (per process; in the threaded pool all
#: workers share it, so every access goes through ``_MODULE_CACHE_LOCK`` —
#: decoded modules themselves are never mutated by instantiation, but the
#: dict bookkeeping is a classic check-then-act race without the lock).
#: Ordered, so eviction is true LRU: hits move the entry to the MRU end.
_MODULE_CACHE: "OrderedDict[bytes, _Decoded]" = OrderedDict()
_MODULE_CACHE_MAX = 64
_MODULE_CACHE_LOCK = threading.Lock()


@dataclass(frozen=True)
class ExecutionTask:
    """Everything a worker needs to run one request — plain bytes and ints,
    so it pickles cheaply across the process boundary.

    ``fault`` is the chaos-testing hook: when the gateway's
    :class:`~repro.service.faults.FaultPlan` selects this request, the fault
    kind (and its numeric argument, e.g. a hang duration) ships with the
    task and the worker acts it out.  ``None`` — the default and the entire
    production path — executes normally.
    """

    module_bytes: bytes
    module_hash: bytes
    counter_global_index: int
    export: str
    args: tuple
    input_data: bytes = b""
    engine: str | None = None
    max_instructions: int | None = None
    fault: str | None = None
    fault_arg: float = 0.0
    #: preemption slice: suspend after this many *further* executed
    #: instructions (relative, so the gateway passes the same slice when
    #: re-dispatching a snapshot) and return the encoded snapshot
    snapshot_at: int | None = None
    #: resume payload: an encoded snapshot to restore and continue instead
    #: of invoking ``export`` fresh
    snapshot: bytes | None = None
    #: serve from this worker's warm pool (instantiate once per process,
    #: reset a pooled instance per request)
    warm: bool = False
    #: distributed-trace context (``TraceContext.to_wire()`` tuple), set by
    #: the gateway only when the request is head-sampled — its presence is
    #: what arms the worker-side telemetry capture
    trace: tuple | None = None


@dataclass(frozen=True)
class WorkerResult:
    """A finished task: raw meter readings plus the worker's own wall time.

    ``snapshot`` set means the task was *preempted*, not completed: ``raw``
    carries the meters as of the capture (for checkpoint billing) and the
    gateway re-dispatches the snapshot to continue the job.
    """

    raw: RawExecution
    exec_wall_s: float
    snapshot: bytes | None = None
    #: the engine whose frames ran the task (``Instance.exec_engine``);
    #: empty when nothing executed (the modeled backend)
    exec_engine: str = ""
    #: backhauled worker telemetry (``TelemetryCapture.to_wire()`` dict):
    #: spans, events and metric deltas recorded while the task's trace
    #: context was active, merged by the gateway with origin-pid tagging
    telemetry: dict | None = None


def _cached_decoded(task: ExecutionTask) -> _Decoded:
    with _MODULE_CACHE_LOCK:
        decoded = _MODULE_CACHE.get(task.module_hash)
        if decoded is not None:
            _MODULE_CACHE.move_to_end(task.module_hash)
            worker_event("module_cache", outcome="hit")
            return decoded
    # decode outside the lock — it is the expensive part, and two threads
    # decoding the same module concurrently is wasteful but harmless
    worker_event("module_cache", outcome="decode")
    decoded = _Decoded(decode_module(task.module_bytes))
    with _MODULE_CACHE_LOCK:
        if task.module_hash not in _MODULE_CACHE:
            while len(_MODULE_CACHE) >= _MODULE_CACHE_MAX:
                _MODULE_CACHE.popitem(last=False)
            _MODULE_CACHE[task.module_hash] = decoded
        else:
            _MODULE_CACHE.move_to_end(task.module_hash)
        return _MODULE_CACHE[task.module_hash]


def _cached_module(task: ExecutionTask) -> Module:
    return _cached_decoded(task).module


#: Per-process warm pools keyed by (module hash, engine) — in the threaded
#: pool all workers share them (WarmPool itself is lock-protected).
_WARM_POOLS: "dict[tuple[bytes, str | None], WarmPool]" = {}
_WARM_POOLS_LOCK = threading.Lock()


def _warm_pool(task: ExecutionTask) -> WarmPool:
    key = (task.module_hash, task.engine)
    with _WARM_POOLS_LOCK:
        pool = _WARM_POOLS.get(key)
        if pool is None:
            pool = WarmPool(
                module=_cached_module(task), engine=task.engine, max_size=8
            )
            _WARM_POOLS[key] = pool
    return pool


def execute_task(task: ExecutionTask) -> WorkerResult:
    """Run one request in this process and return its raw meter readings.

    The run is :func:`~repro.core.accounting_enclave.run_slice`, the code
    :meth:`AccountingEnclave.invoke` and :meth:`~AccountingEnclave.resume`
    run, so a gateway run and a serial in-enclave run of the same requests
    produce byte-identical resource vectors.

    Three variants share this entry point: a fresh invocation (the default),
    a warm-pool invocation (``task.warm`` — lease a pooled instance instead
    of instantiating), and a resume (``task.snapshot`` — decode a snapshot
    and continue the suspended call stack).  With ``task.snapshot_at`` set,
    any variant may *preempt* instead of completing: the result then carries
    the encoded snapshot and meters-as-of-capture for checkpoint billing.

    When the task carries a trace context (``task.trace``, set only for
    head-sampled requests), a :class:`~repro.obs.context.TelemetryCapture`
    is activated thread-locally for the task's duration: worker-side spans,
    events and metric deltas record into it and ship home on the result.
    A worker that crashes mid-task loses its capture with the process —
    which is the truthful telemetry for that hop.
    """
    started = time.perf_counter()
    if task.trace is None:
        return _execute_any(task, started)
    ctx = TraceContext.from_wire(task.trace)
    capture = TelemetryCapture(ctx)
    with activate(capture):
        with capture.span(
            "worker.task",
            hop=ctx.hop,
            resume=task.snapshot is not None,
            warm=task.warm,
        ) as root:
            result = _execute_any(task, started)
            root.set_attribute("preempted", result.snapshot is not None)
    return replace(result, telemetry=capture.to_wire())


def _execute_any(task: ExecutionTask, started: float) -> WorkerResult:
    """Run one task's slice (fault act-out happens first)."""
    if task.fault is not None:
        perform_pre_fault(task.fault, task.fault_arg)
    decoded = _cached_decoded(task)
    snapshot = decode_snapshot(task.snapshot) if task.snapshot is not None else None
    limits = ExecutionLimits(
        max_instructions=task.max_instructions, snapshot_at=task.snapshot_at
    )
    handle = None
    if task.warm and snapshot is None:
        pool = _warm_pool(task)
        handle = pool.acquire(task.input_data, limits=limits)
    raw, captured, exec_engine = run_slice(
        decoded.module,
        decoded.digest,
        task.counter_global_index,
        task.export,
        task.args,
        task.input_data,
        limits,
        task.engine,
        snapshot=snapshot,
        lease=handle,
        snapshot_bytes=len(task.snapshot) if snapshot is not None else 0,
    )
    if task.fault == "corrupt":
        raw = corrupt_raw(raw)
    if handle is not None:
        pool.release(handle)
    return WorkerResult(
        raw=raw,
        exec_wall_s=time.perf_counter() - started,
        snapshot=encode_snapshot(captured) if captured is not None else None,
        exec_engine=exec_engine,
    )


def cores_available() -> int:
    """CPU cores actually schedulable for this process (affinity-aware)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class WorkerPool:
    """A bounded, self-healing pool of execution workers.

    ``kind="process"`` (the default) runs tasks in subprocesses;
    ``kind="thread"`` in threads.  If the process pool cannot be created
    (no ``fork``/``spawn`` support, restricted environments) the pool
    silently falls back to threads and records that in :attr:`kind`.

    A crashed worker process permanently breaks a
    ``ProcessPoolExecutor``; this pool survives it.  At most ``workers``
    tasks are ever inside the executor — the surplus waits in the pool's
    own backlog, which the executor never sees.  When the executor breaks
    it is replaced in place (counted in :attr:`rebuilds`), the backlog —
    provably queued, never started — drains transparently onto the
    replacement, and only the ≤ ``workers`` tasks that may have been
    mid-execution fail, with a typed
    :class:`~repro.service.faults.WorkerCrashed`, so the caller can apply
    its own retry policy without ever double-executing work.  After
    ``max_rebuilds`` process-pool rebuilds the pool degrades to threads
    permanently.

    ``adaptive=True`` probes the cores actually available to this process
    (cgroup/affinity aware) and shrinks a *process* pool to that count:
    oversubscribing CPU-bound workers past physical parallelism only adds
    scheduler thrash — the multi-worker cliff.  Thread pools are left
    alone (their workers block on I/O-ish waits, not cores).  The
    requested size stays visible as :attr:`requested_workers`.
    """

    def __init__(
        self,
        workers: int = 1,
        kind: str = "process",
        max_rebuilds: int = 3,
        adaptive: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if kind not in ("process", "thread"):
            raise ValueError(f"unknown pool kind {kind!r}")
        self.requested_workers = workers
        if adaptive and kind == "process":
            workers = max(1, min(workers, cores_available()))
        self.workers = workers
        self.max_rebuilds = max_rebuilds
        self.rebuilds = 0
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        # guards _executor, _active, _backlog, rebuilds, _shutdown; never
        # held across executor calls or callbacks
        self._lock = threading.Lock()
        self._active = 0  # tasks currently inside the executor (≤ workers)
        self._backlog: "deque[tuple[ExecutionTask, Future]]" = deque()
        self._shutdown = False
        self._executor: Executor
        if kind == "process":
            try:
                self._executor = ProcessPoolExecutor(max_workers=workers)
            except (OSError, ValueError, NotImplementedError):
                kind = "thread"
        if kind == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="metering-worker"
            )
        self.kind = kind

    def submit(self, task: ExecutionTask) -> Future:
        """Schedule one task; the future resolves to a :class:`WorkerResult`.

        The returned future is the pool's own, not the executor's: tasks
        beyond the worker count wait in the pool's backlog, so a pool
        rebuild can transparently re-dispatch them without the caller (or
        the broken executor) ever noticing.
        """
        POOL_TASKS.inc()
        with self._in_flight_lock:
            self._in_flight += 1
            self._publish_load()
        outer: Future = Future()
        outer.add_done_callback(self._task_done)
        with self._lock:
            if self._shutdown:
                closed = True
                dispatch_now = False
            elif self._active < self.workers:
                closed = False
                self._active += 1
                dispatch_now = True
            else:
                closed = False
                self._backlog.append((task, outer))
                dispatch_now = False
        if closed:
            outer.set_exception(RuntimeError("worker pool shut down"))
        elif dispatch_now:
            self._dispatch(task, outer)
        return outer

    # -- dispatch & recovery -----------------------------------------------------

    def _dispatch(self, task: ExecutionTask, outer: Future) -> None:
        """Hand one task to the executor (the caller holds an active slot)."""
        for attempt in (0, 1):
            with self._lock:
                executor = self._executor
            try:
                inner = executor.submit(execute_task, task)
            except BrokenExecutor:
                # the submit itself failed, so the task never reached the
                # broken executor — rebuild and try once on the replacement
                self._rebuild(executor)
                if attempt == 0:
                    continue
                self._release_slot()
                outer.set_exception(
                    WorkerCrashed("worker pool broke repeatedly while dispatching")
                )
                return
            except RuntimeError as exc:  # executor shut down
                self._release_slot()
                outer.set_exception(exc)
                return
            inner.add_done_callback(lambda f: self._relay(f, executor, outer))
            return

    def _relay(self, inner: Future, executor: Executor, outer: Future) -> None:
        exc = inner.exception()
        if isinstance(exc, BrokenExecutor):
            self._rebuild(executor)
        self._release_slot()
        if isinstance(exc, BrokenExecutor):
            # the executor cannot say whether this task was mid-execution
            # when the worker died, so never silently re-run it — surface a
            # typed crash and let the gateway's bounded retry layer decide
            outer.set_exception(WorkerCrashed(str(exc) or "worker process died"))
        elif exc is not None:
            outer.set_exception(exc)
        else:
            outer.set_result(inner.result())

    def _release_slot(self) -> None:
        """Free one executor slot, draining the backlog onto the (possibly
        rebuilt) executor first — backlogged tasks provably never started."""
        with self._lock:
            if self._backlog:
                task, outer = self._backlog.popleft()  # slot stays occupied
            else:
                self._active -= 1
                return
        self._dispatch(task, outer)

    def _rebuild(self, broken: Executor) -> None:
        """Replace a broken executor in place (at most once per breakage)."""
        with self._lock:
            if self._executor is not broken or self._shutdown:
                return  # another thread already rebuilt (or we are closing)
            self.rebuilds += 1
            POOL_REBUILDS.inc()
            if self.kind == "process" and self.rebuilds <= self.max_rebuilds:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            else:
                # repeated breakage: degrade to threads for good
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="metering-worker"
                )
                self.kind = "thread"
            emit_event("pool_rebuild", rebuilds=self.rebuilds, pool_kind=self.kind)
        broken.shutdown(wait=False)

    # -- bookkeeping -------------------------------------------------------------

    def _task_done(self, future: Future) -> None:
        with self._in_flight_lock:
            self._in_flight = max(0, self._in_flight - 1)
            self._publish_load()
        if not future.cancelled() and future.exception() is None:
            result = future.result()
            POOL_EXEC_WALL.observe(result.exec_wall_s, engine=result.exec_engine)

    def _publish_load(self) -> None:
        # caller holds _in_flight_lock
        POOL_TASKS_IN_FLIGHT.set(self._in_flight)
        POOL_UTILISATION.set(min(1.0, self._in_flight / self.workers))

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._shutdown = True
            executor = self._executor
            stranded = list(self._backlog)
            self._backlog.clear()
        for _task, outer in stranded:
            # backlogged tasks never reached the executor; fail them rather
            # than leave their futures pending forever
            outer.set_exception(RuntimeError("worker pool shut down"))
        executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
