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
wire concerns — the module cache and its instance pools, snapshot
encoding and fault act-out.  A worker records no telemetry: each result
carries one fixed :class:`~repro.core.slices.SliceRecord` (boundary stamps
and a few facts), from which the gateway rebuilds the task's spans, events
and metrics through the :data:`~repro.core.slices.SLICE` table.

The default pool runs one long-lived worker process per slot (real
parallelism for the pure-Python interpreter), each fed over its own duplex
``multiprocessing`` pipe; ``kind="thread"`` gives a threaded fallback for
platforms where subprocesses are unavailable, and is also what the test
suite uses for speed.  Each worker process keeps a small module cache keyed
by module hash, each entry with a pool of live instances per engine
(:class:`~repro.wasm.snapshot.WarmPool`, the same pool type the accounting
enclave leases from), so per-slice work is lease and reset a pooled
instance, then execute, matching the paper's cached-side-module FaaS setup
(§4.3).

Each worker holds a window of two tasks: the one it runs and the next,
already waiting in its pipe.  A worker's loop is receive, execute, send, so
it starts the next hop the moment it has sent the last result, while the
gateway is still accounting that one.  Empty slots fill first; a second
task enters a pipe only when every worker already holds one, and the
surplus waits in the pool's own backlog.  One pump thread in the gateway
waits on every pipe and process sentinel, refills slots from the backlog
and resolves the pool's futures outside the pool lock, so it also runs
their done-callbacks: the gateway's accounting of each result, and the
submit of a preempted request's next slice.

Workers are assumed to fail.  A worker reads its next task only after it
has sent the last result in full, so when one dies the pump first takes
the results still buffered in its pipe; after that, only the worker's
oldest unanswered task can have been running.  That one fails as a typed
:class:`~repro.service.faults.WorkerCrashed` for the gateway's bounded
retry layer; every later task in its pipe provably never started and goes
back to the front of the backlog, to run on the respawned worker without
the caller noticing.  Each respawn counts in :attr:`WorkerPool.rebuilds`;
after :data:`MAX_REBUILDS` of them the pool falls back to threads for the
rest of its life rather than fork-looping.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler

from repro.core.accounting_enclave import RawExecution, run_slice
from repro.core.slices import SliceRecord
from repro.lru import LRUCache
from repro.obs.events import emit as emit_event
from repro.obs.instruments import (
    POOL_EXEC_WALL,
    POOL_REBUILDS,
    POOL_TASKS,
    POOL_TASKS_IN_FLIGHT,
    POOL_UTILISATION,
)
from repro.service.faults import WorkerCrashed, corrupt_raw, perform_pre_fault
from repro.tcrypto.hashing import sha256
from repro.wasm.binary import decode_module, encode_module
from repro.wasm.engines import resolve_engine
from repro.wasm.interpreter import ExecutionLimits
from repro.wasm.module import Module
from repro.wasm.snapshot import WarmPool, decode_snapshot, encode_snapshot


class _Decoded:
    """One decoded module, its digest ``sha256(encode_module(module))`` and
    its instance pools, one per engine.

    The digest is computed from this very module the first time a dispatch
    needs it (the compiled-code cache key, snapshot capture, the restore
    check, the reading's workload hash) and then reused by every later
    dispatch of the module, instead of re-encoding it up to three times per
    dispatch.  Decoded modules are never mutated, so the digest cannot go
    stale.  The pools are evicted with the entry.
    """

    __slots__ = ("module", "_digest", "_pools")

    def __init__(self, module: Module):
        self.module = module
        self._digest: bytes | None = None
        self._pools: dict[str, WarmPool] = {}

    def pool(self, engine: str | None) -> WarmPool:
        """This module's instance pool for ``engine`` (resolved, so a task
        on the default engine follows ``REPRO_WASM_ENGINE``)."""
        engine = resolve_engine(engine)
        pool = self._pools.get(engine)
        if pool is None:  # racing threads may each make one; one is kept
            pool = self._pools.setdefault(engine, WarmPool(
                module=self.module, module_hash=self.digest, engine=engine, max_size=8
            ))
        return pool

    @property
    def digest(self) -> bytes:
        if self._digest is None:
            self._digest = sha256(encode_module(self.module))
        return self._digest


#: Worker-side decoded-module cache, keyed by module hash (per process; in
#: the threaded pool all workers share it).
MODULE_CACHE: LRUCache[_Decoded] = LRUCache(64)


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
    #: distributed-trace context (``TraceContext.to_wire()`` tuple: trace
    #: id, parent span id, sink set, hop), set by the gateway whenever any
    #: telemetry sink (tracing, events, metrics) is on; the worker records
    #: the same slice record either way
    trace: tuple | None = None


@dataclass(frozen=True)
class WorkerResult:
    """A finished task: raw meter readings plus the worker's own wall time.

    ``snapshot`` set means the task was *preempted*, not completed: ``raw``
    carries the meters as of the capture (for checkpoint billing) and the
    gateway re-dispatches the snapshot to continue the job.

    ``record`` is the task's :class:`~repro.core.slices.SliceRecord`, its
    boundary stamps and facts, the same fixed fields whichever sinks are
    on.  The gateway applies :data:`~repro.core.slices.SLICE` to it; it
    never reaches ``raw`` or anything signed.
    """

    raw: RawExecution
    exec_wall_s: float
    snapshot: bytes | None = None
    #: the engine whose frames ran the task (``Instance.engine``);
    #: empty when nothing executed (the modeled backend)
    exec_engine: str = ""
    #: empty (every stamp 0) when nothing executed (the modeled backend)
    record: SliceRecord = SliceRecord()


def _cached_decoded(task: ExecutionTask) -> tuple[_Decoded, str]:
    """The task's decoded module and the lookup's outcome, ``"hit"`` or
    ``"decode"``."""
    outcome = "hit"

    def decode() -> _Decoded:
        nonlocal outcome
        outcome = "decode"
        return _Decoded(decode_module(task.module_bytes))

    return MODULE_CACHE.get_or_build(task.module_hash, decode), outcome


def execute_task(task: ExecutionTask) -> WorkerResult:
    """Run one request in this process and return its raw meter readings.

    The run is :func:`~repro.core.accounting_enclave.run_slice`, the code
    :meth:`AccountingEnclave.invoke` and :meth:`~AccountingEnclave.resume`
    run, so a gateway run and a serial in-enclave run of the same requests
    produce byte-identical resource vectors.

    Both variants lease a pooled instance of the module and reset it: a
    fresh invocation to the warm image, a resume (``task.snapshot``) to the
    decoded snapshot, whose suspended call stack it then continues.  With
    ``task.snapshot_at`` set, either may *preempt* instead of completing:
    the result then carries the encoded snapshot and meters-as-of-capture
    for checkpoint billing.  A fault the task carries is acted out first.

    The task records no telemetry.  Beside the slice's own stamps, its
    :class:`~repro.core.slices.SliceRecord` holds where the task began and
    ended and where its module lookup began, the lookup's outcome, the
    fault acted out, the encoded capture's size and the wall clock at the
    start; the gateway applies :data:`~repro.core.slices.SLICE` to it.  A
    worker that crashes mid-task returns no record — which is the truthful
    telemetry for that hop.
    """
    task_ns, wall_s = time.perf_counter_ns(), time.time()
    if task.fault is not None:
        perform_pre_fault(task.fault, task.fault_arg)
    lookup_ns = time.perf_counter_ns()
    decoded, cache = _cached_decoded(task)
    snapshot = decode_snapshot(task.snapshot) if task.snapshot is not None else None
    limits = ExecutionLimits(
        max_instructions=task.max_instructions, snapshot_at=task.snapshot_at
    )
    raw, captured, record = run_slice(
        decoded.pool(task.engine),
        task.counter_global_index,
        task.export,
        task.args,
        task.input_data,
        limits,
        snapshot=snapshot,
        snapshot_bytes=len(task.snapshot) if snapshot is not None else 0,
    )
    if task.fault == "corrupt":
        raw = corrupt_raw(raw)
    blob = encode_snapshot(captured) if captured is not None else None
    end_ns = time.perf_counter_ns()
    return WorkerResult(
        raw=raw,
        exec_wall_s=(end_ns - task_ns) / 1e9,
        snapshot=blob,
        exec_engine=record.exec_engine,
        record=record._replace(
            task_ns=task_ns,
            lookup_ns=lookup_ns,
            end_ns=end_ns,
            cache=cache,
            fault=task.fault or "",
            fault_arg=task.fault_arg,
            suspend_bytes=len(blob) if blob is not None else 0,
            wall_s=wall_s,
        ),
    )


def cores_available() -> int:
    """CPU cores actually schedulable for this process (affinity-aware)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Worker respawns a process pool makes before it degrades to threads.
MAX_REBUILDS = 3
#: Tasks one worker process holds at once: the one it runs and the next,
#: waiting in its pipe.
_WINDOW = 2
#: Largest pickled task that may wait in a busy worker's pipe.  A busy
#: worker has read all of its running task, so the waiting one is alone in
#: the pipe and, this small, fits the pipe's buffer on every platform.  A
#: larger task waits in the backlog until a worker is idle, and so reading:
#: a send blocked on a busy worker would hold the pool lock, and stall the
#: pump, until that worker finished — for good, if the worker's own result
#: then filled the pipe the pump no longer read.
_WINDOW_BYTES = 8192


def _serve_pipe(conn) -> None:
    """A worker process's loop: receive a task, run it, send its outcome.

    The next task is read only after the last outcome has been sent in
    full, which is what makes a crash exact: of the tasks in this worker's
    pipe, only the oldest unanswered one can have started.  ``None`` asks
    the worker to exit.
    """
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the gateway is gone
            return
        if task is None:
            return
        try:
            outcome = (True, execute_task(task))
        except Exception as exc:
            outcome = (False, exc)
        try:
            conn.send(outcome)
        except OSError:  # the gateway is gone
            return
        except Exception as exc:  # pickling failed, so nothing was written
            conn.send((False, RuntimeError(f"task outcome does not pickle: {exc!r}")))


class _Worker:
    """One worker process, the gateway's end of its pipe, and the tasks sent
    down that pipe without an answer yet, oldest first."""

    __slots__ = ("process", "conn", "sent", "accepting", "retired")

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve_pipe, args=(child,), name="metering-worker", daemon=True
        )
        self.process.start()
        child.close()
        self.sent: "deque[tuple[ExecutionTask, Future, memoryview]]" = deque()
        self.accepting = True  # False once retired or found dead
        self.retired = False  # told to exit: its exit is no crash


def _resolve(future: Future, ok: bool, value) -> None:
    if ok:
        future.set_result(value)
    else:
        future.set_exception(value)


#: Pools whose worker processes may be running, closed at interpreter exit
#: so that a worker ``multiprocessing`` terminates there is not respawned.
_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


@atexit.register
def _close_pools() -> None:
    for pool in list(_POOLS):
        pool.shutdown(wait=False)


class WorkerPool:
    """A bounded, self-healing pool of execution workers.

    ``kind="process"`` (the default) runs tasks in long-lived worker
    processes, started with the default ``multiprocessing`` context at the
    first submit; ``kind="thread"`` runs them in threads.  If worker
    processes cannot be started (no ``fork``/``spawn`` support, restricted
    environments) the pool falls back to threads, records that in
    :attr:`kind` and announces it with a ``pool_rebuild`` event
    (``pool_kind="thread"``).

    A process worker holds at most two tasks (see the module docstring);
    the surplus waits in the pool's own backlog.  When a worker dies, only
    its oldest unanswered task fails, with a typed
    :class:`~repro.service.faults.WorkerCrashed`, so the caller can apply
    its own retry policy without ever double-executing work; the tasks
    queued behind it never started and run on a respawned worker (counted
    in :attr:`rebuilds`).  After :data:`MAX_REBUILDS` respawns the pool
    degrades to threads permanently.

    A *process* pool shrinks to the cores actually available to this
    process (cgroup/affinity aware): oversubscribing CPU-bound workers past
    physical parallelism only adds scheduler thrash — the multi-worker
    cliff.  Thread pools keep their size (their workers block on I/O-ish
    waits, not cores).  The requested size stays visible as
    :attr:`requested_workers`.
    """

    def __init__(self, workers: int = 1, kind: str = "process"):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if kind not in ("process", "thread"):
            raise ValueError(f"unknown pool kind {kind!r}")
        self.requested_workers = workers
        if kind == "process":
            workers = max(1, min(workers, cores_available()))
        self.workers = workers
        self.rebuilds = 0
        self.kind = kind
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        # guards everything below, and every send down a worker's pipe
        self._lock = threading.Lock()
        self._backlog: "deque[tuple[ExecutionTask, Future, memoryview | None]]" = deque()
        self._closed = False
        self._procs: list[_Worker] = []  # worker processes the pump watches
        self._pump: threading.Thread | None = None
        self._threads: ThreadPoolExecutor | None = None
        self._active = 0  # tasks running on threads (≤ workers)
        if kind == "thread":
            self._threads = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="metering-worker"
            )

    def submit(self, task: ExecutionTask) -> Future:
        """Schedule one task; the future resolves to a :class:`WorkerResult`."""
        POOL_TASKS.inc()
        with self._in_flight_lock:
            self._in_flight += 1
            self._publish_load()
        future: Future = Future()
        future.add_done_callback(self._task_done)
        payload = ForkingPickler.dumps(task) if self.kind == "process" else None
        with self._lock:
            closed = self._closed
            if not closed:
                self._backlog.append((task, future, payload))
                self._fill()
        if closed:
            future.set_exception(RuntimeError("worker pool shut down"))
        return future

    # -- dispatch --------------------------------------------------------------

    def _fill(self) -> None:
        """Move backlog tasks, oldest first, to workers with room (the
        caller holds the lock)."""
        backlog = self._backlog
        if self.kind == "process" and self._pump is None:
            self._start()  # may fall back to threads
        if self.kind == "thread":
            while backlog and self._active < self.workers:
                task, future, _payload = backlog.popleft()
                self._active += 1
                self._threads.submit(self._run_threaded, task, future)
            return
        while backlog:
            open_workers = [w for w in self._procs if w.accepting]
            if not open_workers:
                return  # the pump respawns them, then fills again
            worker = min(open_workers, key=lambda w: len(w.sent))  # idle first
            task, future, payload = backlog[0]
            if len(worker.sent) >= _WINDOW or (
                worker.sent and len(payload) > _WINDOW_BYTES
            ):
                return
            try:
                worker.conn.send_bytes(payload)
            except OSError:
                worker.accepting = False  # dead: its sentinel reaches the pump
                continue
            backlog.popleft()
            worker.sent.append((task, future, payload))

    def _start(self) -> None:
        """Start the worker processes and the pump (lock held)."""
        ctx = multiprocessing.get_context()
        try:
            for _ in range(self.workers):
                self._procs.append(_Worker(ctx))
        except OSError:
            self._degrade()  # no subprocesses here: run on threads
            emit_event("pool_rebuild", rebuilds=self.rebuilds, pool_kind=self.kind)
        if self._procs:
            self._pump = threading.Thread(
                target=self._pump_results, name="metering-pool-pump", daemon=True
            )
            self._pump.start()
            _POOLS.add(self)

    def _pump_results(self) -> None:
        """The gateway's side of every pipe: resolve each outcome as it
        arrives and handle worker deaths, until no worker is left."""
        watched: dict = {}
        while True:
            if not watched:
                with self._lock:
                    if not self._procs:
                        return
                    for worker in self._procs:
                        watched[worker.conn] = watched[worker.process.sentinel] = worker
            lost: set = set()
            for ready in wait(list(watched)):
                worker = watched[ready]
                if worker in lost:
                    continue
                if ready is worker.conn:
                    try:
                        ok, value = worker.conn.recv()
                    except (EOFError, OSError):
                        pass
                    except Exception as exc:  # an outcome that does not unpickle
                        self._answer(worker, False, exc)
                        continue
                    else:
                        self._answer(worker, ok, value)
                        continue
                lost.add(worker)
                self._lost(worker)
            if lost:
                watched = {}

    def _answer(self, worker: _Worker, ok: bool, value) -> None:
        """Resolve ``worker``'s oldest task, refilling its slot first."""
        with self._lock:
            _task, future, _payload = worker.sent.popleft()
            if self._backlog:
                self._fill()
        _resolve(future, ok, value)

    def _lost(self, worker: _Worker) -> None:
        """A worker process exited: answer what it finished, fail the one
        task it may have been running, requeue the rest and respawn it."""
        with self._lock:
            worker.accepting = False
        try:  # outcomes sent before the exit are still buffered in the pipe
            while worker.conn.poll():
                self._answer(worker, *worker.conn.recv())
        except Exception:  # EOF, or a last outcome cut short by the exit
            pass
        worker.process.join()
        worker.conn.close()
        with self._lock:
            self._procs.remove(worker)
            crashed = worker.sent.popleft()[1] if worker.sent else None
            if self._closed:
                stranded = [future for _task, future, _payload in worker.sent]
            else:
                stranded = []
                # these never started: the worker had not read past ``crashed``
                self._backlog.extendleft(reversed(worker.sent))
                if not worker.retired:
                    self._respawn()
                self._fill()
        if crashed is not None:
            crashed.set_exception(
                WorkerCrashed(
                    f"worker process {worker.process.pid} died "
                    f"(exit code {worker.process.exitcode})"
                )
            )
        for future in stranded:
            future.set_exception(RuntimeError("worker pool shut down"))

    def _respawn(self) -> None:
        """Replace a dead worker, or degrade to threads for good once
        :data:`MAX_REBUILDS` respawns are spent (lock held, pool open)."""
        self.rebuilds += 1
        POOL_REBUILDS.inc()
        try:
            if self.rebuilds > MAX_REBUILDS:
                raise OSError("worker respawns exhausted")
            self._procs.append(_Worker(multiprocessing.get_context()))
        except OSError:
            self._degrade()
        emit_event("pool_rebuild", rebuilds=self.rebuilds, pool_kind=self.kind)

    def _degrade(self) -> None:
        """Serve on threads from now on; live worker processes finish the
        tasks already in their pipes, then exit (lock held)."""
        self.kind = "thread"
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="metering-worker"
        )
        for worker in self._procs:
            self._retire(worker)

    @staticmethod
    def _retire(worker: _Worker) -> None:
        """Ask a worker to exit after the tasks in its pipe (lock held)."""
        if worker.retired:
            return
        worker.retired = True
        worker.accepting = False
        try:
            worker.conn.send(None)
        except OSError:
            pass  # already dead: the pump sees its sentinel

    def _run_threaded(self, task: ExecutionTask, future: Future) -> None:
        """One thread slot: run tasks until the backlog is empty."""
        while True:
            try:
                outcome = (True, execute_task(task))
            except Exception as exc:
                outcome = (False, exc)
            with self._lock:
                if self._backlog:
                    following = self._backlog.popleft()
                else:
                    self._active -= 1
                    following = None
            _resolve(future, *outcome)
            if following is None:
                return
            task, future, _payload = following

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
        """Close the pool: fail the backlog, let tasks already handed to a
        worker finish, then stop every worker (``wait``: and join them)."""
        with self._lock:
            # closed before any worker is told to exit, so no exit respawns
            self._closed = True
            stranded = list(self._backlog)
            self._backlog.clear()
            for worker in self._procs:
                self._retire(worker)
            pump, threads = self._pump, self._threads
        for _task, future, _payload in stranded:
            # backlogged tasks never reached a worker; fail them rather than
            # leave their futures pending forever
            future.set_exception(RuntimeError("worker pool shut down"))
        if threads is not None:
            threads.shutdown(wait=wait)
        if wait and pump is not None and pump is not threading.current_thread():
            pump.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
