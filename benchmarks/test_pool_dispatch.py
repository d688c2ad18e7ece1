"""What the worker pool's dispatch costs per hop, and how busy it keeps
the worker.

A request preempted every 5000 instructions crosses the pool once per
slice, so ``faas-preempt`` pays the dispatch path several times per
request.  This benchmark drives a 1-worker process pool straight through
``WorkerPool.submit`` with the ``faas-preempt`` kernels (atax, bicg, mvt,
jacobi-1d on the compile engine, ``snapshot_at=5000``): a closed loop that
re-dispatches each returned snapshot from the driving thread, as the
gateway's front end does, but without the gateway's accounting.

Two pools run side by side, in interleaved rounds:

* ``change`` — :class:`~repro.service.worker.WorkerPool`: one worker
  process per slot fed over its own pipe, two tasks per worker, one pump
  thread;
* ``parent`` — the dispatch it replaced, reproduced here in a few lines
  (:class:`ExecutorPool`): a ``ProcessPoolExecutor`` never handed more
  than ``workers`` tasks, the surplus in a backlog.  It leaves out the
  pool's in-flight metrics, so if anything it flatters the parent.

Per pool and per number of outstanding requests (1 and 4):

* per-hop round-trip overhead — the time from ``submit`` until the future
  resolved, minus the worker's own ``exec_wall_s``; p50 and p90 over every
  hop of every round.  At 4 outstanding it includes waiting behind the
  other requests' hops;
* worker busy share — the worker process's CPU time (``schedstat``) over
  the round's wall time.  Rounds alternate between the pools, and each
  reports the median of its per-round values; the change/parent ratio is
  the median of per-round ratios, so host drift hits both alike.  Beside
  it, the share of the round the worker waited runnable for a core: on a
  loaded host, busy + waiting near 1 means the worker never idled.

The gate: the change keeps its worker busy at least **0.75** of the time
at 4 outstanding.  On a shared 2-core host the change read 0.82-0.83 there
and the parent's dispatch 0.74-0.78, with the change's worker waiting
runnable for most of the rest.  Every request's final answer must equal
an in-process run's.

Artefacts: ``BENCH_pool.json`` (repo root) and
``benchmarks/results/pool_dispatch.txt``, written into the repository only
with ``REPRO_BENCH_WRITE=1`` (see :func:`benchmarks.conftest.artifact_path`).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_pool_dispatch.py -q -s``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import queue
import statistics
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace

import pytest

from benchmarks.conftest import artifact_path, emit_table, record
from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.service.worker import ExecutionTask, WorkerPool, execute_task
from repro.tcrypto.hashing import sha256
from repro.wasm.binary import encode_module
from repro.workloads import POLYBENCH_KERNELS


KERNELS = ("atax", "bicg", "mvt", "jacobi-1d")
ENGINE = "compile"
SNAPSHOT_AT = 5000
OUTSTANDING = (1, 4)
#: requests per round at each outstanding count (about 0.1-0.3 s a round)
REQUESTS = {1: 16, 4: 48}
ROUNDS = 9
MIN_BUSY_AT_4 = 0.75


class ExecutorPool:
    """The parent's process dispatch: a ``ProcessPoolExecutor`` holding at
    most ``workers`` tasks, the surplus in the pool's own backlog, and the
    next backlogged task dispatched before a result is relayed."""

    def __init__(self, workers: int = 1):
        self.workers = workers
        self._executor = ProcessPoolExecutor(max_workers=workers)
        self._lock = threading.Lock()
        self._active = 0
        self._backlog: deque = deque()

    def submit(self, task: ExecutionTask) -> Future:
        outer: Future = Future()
        with self._lock:
            dispatch_now = self._active < self.workers
            if dispatch_now:
                self._active += 1
            else:
                self._backlog.append((task, outer))
        if dispatch_now:
            self._dispatch(task, outer)
        return outer

    def _dispatch(self, task: ExecutionTask, outer: Future) -> None:
        inner = self._executor.submit(execute_task, task)
        inner.add_done_callback(lambda f: self._relay(f, outer))

    def _relay(self, inner: Future, outer: Future) -> None:
        with self._lock:
            following = self._backlog.popleft() if self._backlog else None
            if following is None:
                self._active -= 1
        if following is not None:
            self._dispatch(*following)
        if inner.exception() is not None:
            outer.set_exception(inner.exception())
        else:
            outer.set_result(inner.result())

    def shutdown(self) -> None:
        self._executor.shutdown()


def kernel_tasks() -> dict[str, ExecutionTask]:
    """Each kernel instrumented as the gateway does, as a preempting task."""
    sandbox = TwoWaySandbox.deploy(SandboxConfig(engine=ENGINE))
    tasks = {}
    for name in KERNELS:
        workload = sandbox.submit_module(POLYBENCH_KERNELS[name].compile())
        module_bytes = encode_module(workload.module)
        export, args = POLYBENCH_KERNELS[name].run
        tasks[name] = ExecutionTask(
            module_bytes=module_bytes,
            module_hash=sha256(module_bytes),
            counter_global_index=workload.evidence.counter_global_index,
            export=export,
            args=tuple(args),
            engine=ENGINE,
            snapshot_at=SNAPSHOT_AT,
        )
    return tasks


def final_value(task: ExecutionTask) -> object:
    """The answer of an in-process run, hop by hop."""
    result = execute_task(task)
    while result.snapshot is not None:
        result = execute_task(replace(task, snapshot=result.snapshot))
    return result.raw.value


def sched_s(pids: list[int]) -> tuple[float, float]:
    """Seconds the processes have run, and waited runnable for a core
    (``schedstat``, in nanoseconds)."""
    ran = waited = 0
    for pid in pids:
        with open(f"/proc/{pid}/schedstat") as handle:
            fields = handle.read().split()
        ran, waited = ran + int(fields[0]), waited + int(fields[1])
    return ran / 1e9, waited / 1e9


def drive(pool, pids, tasks, requests: int, outstanding: int) -> dict:
    """One round: ``requests`` requests, ``outstanding`` at a time, each
    re-dispatched with its snapshot until it completes."""
    done: queue.SimpleQueue = queue.SimpleQueue()
    order = [tasks[KERNELS[i % len(KERNELS)]] for i in range(requests)]
    answers: list[tuple[ExecutionTask, object]] = []

    def dispatch(task: ExecutionTask, request: ExecutionTask) -> None:
        sent = time.perf_counter()
        future = pool.submit(task)
        future.add_done_callback(
            lambda f: done.put((f, sent, time.perf_counter(), request))
        )

    overhead_us: list[float] = []
    (ran0, waited0), started = sched_s(pids), time.perf_counter()
    for request in order[:outstanding]:
        dispatch(request, request)
    begun = outstanding
    while len(answers) < requests:
        future, sent, resolved, request = done.get(timeout=60)
        result = future.result()
        overhead_us.append((resolved - sent - result.exec_wall_s) * 1e6)
        if result.snapshot is not None:
            dispatch(replace(request, snapshot=result.snapshot), request)
            continue
        answers.append((request, result.raw.value))
        if begun < requests:
            dispatch(order[begun], order[begun])
            begun += 1
    wall = time.perf_counter() - started
    ran, waited = sched_s(pids)
    return {
        "overhead_us": overhead_us,
        "busy": (ran - ran0) / wall,
        "waiting": (waited - waited0) / wall,
        "answers": answers,
    }


def start(make_pool, tasks) -> tuple[object, list[int]]:
    """A pool whose worker has run every kernel once, and its worker pids."""
    before = {p.pid for p in multiprocessing.active_children()}
    pool = make_pool()
    for task in tasks.values():
        result = pool.submit(task).result(timeout=60)
        while result.snapshot is not None:
            result = pool.submit(replace(task, snapshot=result.snapshot)).result(timeout=60)
    pids = sorted({p.pid for p in multiprocessing.active_children()} - before)
    assert len(pids) == 1, pids
    return pool, pids


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))]


@pytest.fixture(scope="module")
def pool_rows() -> dict:
    if not os.path.exists("/proc/self/schedstat"):
        pytest.skip("needs /proc/<pid>/schedstat for worker CPU time")
    tasks = kernel_tasks()
    reference = {task: final_value(task) for task in tasks.values()}
    pools = {
        "parent": start(ExecutorPool, tasks),
        "change": start(lambda: WorkerPool(workers=1, kind="process"), tasks),
    }
    rounds: dict = {(n, name): [] for n in OUTSTANDING for name in pools}
    wrong = 0
    try:
        for index in range(ROUNDS):
            for n in OUTSTANDING:
                # alternate which pool goes first, so neither always follows
                names = list(pools) if index % 2 == 0 else list(pools)[::-1]
                for name in names:
                    pool, pids = pools[name]
                    run = drive(pool, pids, tasks, REQUESTS[n], n)
                    wrong += sum(
                        repr(value) != repr(reference[task]) for task, value in run["answers"]
                    )
                    rounds[n, name].append(run)
    finally:
        for pool, _pids in pools.values():
            pool.shutdown()

    summary: dict = {}
    for n in OUTSTANDING:
        point: dict = {}
        for name in pools:
            runs = rounds[n, name]
            overheads = [v for run in runs for v in run["overhead_us"]]
            point[name] = {
                "hop_overhead_p50_us": round(quantile(overheads, 50), 1),
                "hop_overhead_p90_us": round(quantile(overheads, 90), 1),
                "busy_share": round(statistics.median(run["busy"] for run in runs), 3),
                "runnable_wait_share": round(
                    statistics.median(run["waiting"] for run in runs), 3
                ),
                "hops": len(overheads),
            }
        point["busy_ratio_change_over_parent"] = round(
            statistics.median(
                c["busy"] / p["busy"]
                for c, p in zip(rounds[n, "change"], rounds[n, "parent"])
            ),
            3,
        )
        summary[f"outstanding_{n}"] = point
    summary.update(
        {
            "setup": {
                "kernels": list(KERNELS),
                "engine": ENGINE,
                "snapshot_at": SNAPSHOT_AT,
                "workers": 1,
                "requests_per_round": {str(n): REQUESTS[n] for n in OUTSTANDING},
                "rounds": ROUNDS,
                "cores_available": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
            },
            "gate": {
                "min_busy_share_at_4": MIN_BUSY_AT_4,
                "busy_share_at_4": summary["outstanding_4"]["change"]["busy_share"],
            },
            "wrong_answers": wrong,
        }
    )
    artifact_path("BENCH_pool.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def test_pool_dispatch_table(pool_rows, benchmark):
    rows = []
    for n in OUTSTANDING:
        point = pool_rows[f"outstanding_{n}"]
        for name in ("parent", "change"):
            p = point[name]
            rows.append(
                [n, name, p["hop_overhead_p50_us"], p["hop_overhead_p90_us"],
                 p["busy_share"], p["runnable_wait_share"], p["hops"]]
            )
    emit_table(
        "pool_dispatch",
        "Worker pool dispatch, 1 process worker, faas-preempt kernels "
        f"(snapshot_at={SNAPSHOT_AT}, {ENGINE}), {ROUNDS} interleaved rounds",
        ["outstanding", "pool", "hop overhead p50 us", "p90 us", "worker busy",
         "runnable wait", "hops"],
        rows,
    )
    record(benchmark)


def test_every_answer_matches_an_in_process_run(pool_rows, benchmark):
    assert pool_rows["wrong_answers"] == 0
    record(benchmark)


def test_worker_busy_at_4_outstanding(pool_rows, benchmark):
    busy = pool_rows["outstanding_4"]["change"]["busy_share"]
    assert busy >= MIN_BUSY_AT_4, pool_rows["outstanding_4"]
    record(benchmark)
