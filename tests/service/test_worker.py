"""Unit tests for the worker pool and its per-process module cache.

The cache tests stub out ``decode_module`` so they exercise the worker's
use of its cache (hits, bounded size, thread safety) without compiling
anything; LRU order is pinned in ``tests/test_lru.py``.  The pool tests
use crash-faulted tasks, which fail before ever touching their module
bytes, so no real module is needed there either.
The process-pool tests run a small real module, to check the answers of
tasks that a crash moved to a respawned worker.  Full pool-through-gateway
behaviour (respawn after a real process crash) lives in ``test_faults.py``.
"""

import multiprocessing
import sys
import threading
from dataclasses import replace
from functools import partial

import pytest

import repro.service.worker as worker
from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.lru import LRUCache
from repro.obs.events import EventLog, disable_events, enable_events
from repro.service.faults import InjectedCrash, WorkerCrashed
from repro.service.worker import ExecutionTask, WorkerPool, execute_task
from repro.tcrypto.hashing import sha256
from repro.wasm.binary import encode_module

MINIC_SUM = """
int total(int n) {
    int t = 0;
    for (int i = 0; i < n; i = i + 1) t = t + i;
    return t;
}
"""


def make_task(tag: bytes, fault: str | None = None, fault_arg: float = 0.0) -> ExecutionTask:
    return ExecutionTask(
        module_bytes=b"module-" + tag,
        module_hash=tag.ljust(32, b"\x00"),
        counter_global_index=0,
        export="f",
        args=(),
        fault=fault,
        fault_arg=fault_arg,
    )


# -- module cache --------------------------------------------------------------


@pytest.fixture
def fresh_cache(monkeypatch):
    decoded: list[bytes] = []

    def fake_decode(module_bytes: bytes) -> object:
        decoded.append(module_bytes)
        return ("decoded", module_bytes)

    monkeypatch.setattr(worker, "MODULE_CACHE", LRUCache(2))
    monkeypatch.setattr(worker, "decode_module", fake_decode)
    return decoded


def test_module_cache_hits_skip_decoding(fresh_cache):
    task = make_task(b"a")
    first, decoded = worker._cached_decoded(task)
    second, hit = worker._cached_decoded(task)
    assert first is second
    assert (decoded, hit) == ("decode", "hit")
    assert len(fresh_cache) == 1


def test_module_cache_size_stays_bounded(fresh_cache):
    for i in range(10):
        worker._cached_decoded(make_task(b"m%d" % i))
    assert len(worker.MODULE_CACHE) == 2


def test_module_cache_concurrent_access_is_safe(fresh_cache):
    """Regression for the unsynchronized check-then-act eviction: hammer the
    cache from many threads and require it stays bounded and consistent."""
    errors: list[BaseException] = []

    def hammer(seed: int) -> None:
        try:
            for i in range(300):
                tag = b"m%d" % ((seed + i) % 5)
                module = worker._cached_decoded(make_task(tag))[0].module
                assert module == ("decoded", b"module-" + tag)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(worker.MODULE_CACHE) <= 2


def test_instance_pools_are_evicted_with_their_module():
    """A worker's instance pools hang off its module cache entries, so a
    worker that has run 65 modules holds live instances of at most 64."""
    from repro.wasm.wat_parser import parse_wat

    cache = worker.MODULE_CACHE
    cache.clear()
    for i in range(cache.capacity + 1):
        module_bytes = encode_module(
            parse_wat(
                "(module (global (mut i64) (i64.const 0)) "
                f'(func (export "f") (result i32) (i32.const {i})))'
            )
        )
        task = ExecutionTask(
            module_bytes=module_bytes,
            module_hash=sha256(module_bytes),
            counter_global_index=0,
            export="f",
            args=(),
        )
        assert execute_task(task).raw.value == i
    pools = [pool for decoded in cache.values() for pool in decoded._pools.values()]
    assert len(cache) == cache.capacity
    assert len(pools) == cache.capacity
    assert all(pool.stats()["idle"] == 1 for pool in pools)


# -- pool mechanics ------------------------------------------------------------


def test_thread_pool_backlog_drains_and_settles():
    """More tasks than workers: the surplus waits in the pool's own backlog
    and every future still resolves (here: to the injected crash)."""
    pool = WorkerPool(workers=1, kind="thread")
    try:
        futures = [pool.submit(make_task(b"x", fault="crash")) for _ in range(5)]
        for future in futures:
            with pytest.raises(InjectedCrash):
                future.result(timeout=10)
        assert pool._active == 0
        assert not pool._backlog
        assert pool._in_flight == 0
    finally:
        pool.shutdown()


def test_shutdown_fails_backlogged_tasks_instead_of_stranding_them():
    pool = WorkerPool(workers=1, kind="thread")
    blocker = pool.submit(make_task(b"x", fault="hang", fault_arg=0.3))
    backlogged = [pool.submit(make_task(b"y", fault="crash")) for _ in range(3)]
    pool.shutdown(wait=False)
    for future in backlogged:
        with pytest.raises(RuntimeError, match="shut down"):
            future.result(timeout=10)
    with pytest.raises(Exception):
        blocker.result(timeout=10)  # garbage module bytes fail decode


def test_submit_after_shutdown_raises():
    pool = WorkerPool(workers=1, kind="thread")
    pool.shutdown()
    future = pool.submit(make_task(b"x"))
    with pytest.raises(RuntimeError, match="shut down"):
        future.result(timeout=10)


# -- process pool: the two-task window, crashes and shutdown -------------------


@pytest.fixture(scope="module")
def sum_task() -> ExecutionTask:
    workload = TwoWaySandbox.deploy(SandboxConfig()).submit_minic(MINIC_SUM)
    module_bytes = encode_module(workload.module)
    return ExecutionTask(
        module_bytes=module_bytes,
        module_hash=sha256(module_bytes),
        counter_global_index=workload.evidence.counter_global_index,
        export="total",
        args=(40,),
    )


def require_processes(pool: WorkerPool) -> None:
    # worker processes start at the first submit
    if pool.kind != "process":
        pool.shutdown()
        pytest.skip("worker processes unavailable in this environment")


def queued_in_pipe(pool: WorkerPool) -> list:
    [proc] = pool._procs
    return [future for _task, future, _payload in proc.sent]


def test_crash_fails_only_the_task_that_was_running(sum_task):
    """One worker, window full: a task that dies mid-run fails alone; the
    task queued behind it in the same pipe and the backlogged one complete
    on the respawned worker with the right answer."""
    expected = execute_task(sum_task).raw
    pool = WorkerPool(workers=1, kind="process")
    try:
        crash = pool.submit(replace(sum_task, fault="crash", fault_arg=0.3))
        require_processes(pool)
        queued = pool.submit(sum_task)
        backlogged = pool.submit(sum_task)
        assert queued_in_pipe(pool) == [crash, queued]
        assert [future for _t, future, _p in pool._backlog] == [backlogged]
        with pytest.raises(WorkerCrashed):
            crash.result(timeout=30)
        assert queued.result(timeout=30).raw == expected
        assert backlogged.result(timeout=30).raw == expected
        assert pool.rebuilds == 1
        assert pool.kind == "process"
    finally:
        pool.shutdown()


def test_a_large_task_waits_for_an_idle_worker(sum_task):
    """Only a small task may wait in a busy worker's pipe: a large one could
    block the sending thread until the worker is done."""
    pool = WorkerPool(workers=1, kind="process")
    try:
        busy = pool.submit(replace(sum_task, fault="slow", fault_arg=0.3))
        require_processes(pool)
        large = pool.submit(replace(sum_task, input_data=bytes(3 * worker._WINDOW_BYTES)))
        assert queued_in_pipe(pool) == [busy]
        assert [future for _t, future, _p in pool._backlog] == [large]
        assert busy.result(timeout=30).raw.value == large.result(timeout=30).raw.value
    finally:
        pool.shutdown()


def test_crash_past_max_rebuilds_degrades_to_threads(monkeypatch, sum_task):
    expected = execute_task(sum_task).raw
    monkeypatch.setattr(worker, "MAX_REBUILDS", 0)
    pool = WorkerPool(workers=1, kind="process")
    try:
        crash = pool.submit(replace(sum_task, fault="crash", fault_arg=0.3))
        require_processes(pool)
        queued = pool.submit(sum_task)
        with pytest.raises(WorkerCrashed):
            crash.result(timeout=30)
        assert queued.result(timeout=30).raw == expected
        assert (pool.rebuilds, pool.kind) == (1, "thread")
        assert pool.submit(sum_task).result(timeout=30).raw == expected
    finally:
        pool.shutdown()


def test_pool_falls_back_to_threads_without_worker_processes(monkeypatch, sum_task):
    def refuse(_ctx):
        raise OSError("cannot start a process here")

    monkeypatch.setattr(worker, "_Worker", refuse)
    log = enable_events(EventLog())
    pool = WorkerPool(workers=2, kind="process")
    try:
        assert pool.submit(sum_task).result(timeout=30).raw == execute_task(sum_task).raw
        assert (pool.kind, pool.rebuilds) == ("thread", 0)
        # the fallback announces itself: never a silent degraded mode
        assert [(e.kind, e.fields) for e in log.events()] == [
            ("pool_rebuild", {"rebuilds": 0, "pool_kind": "thread"})
        ]
    finally:
        pool.shutdown()
        disable_events()


# a process pool shrinks to the cores available, so a multi-worker test
# needs at least two of them to run more than one worker
needs_two_cores = pytest.mark.skipif(
    worker.cores_available() < 2,
    reason="a process pool has one worker per available core; this needs two",
)


@needs_two_cores
def test_shutdown_stops_every_worker_process(sum_task):
    pool = WorkerPool(workers=2, kind="process")
    futures = [pool.submit(sum_task) for _ in range(5)]
    require_processes(pool)
    for future in futures:
        future.result(timeout=30)
    assert len(multiprocessing.active_children()) == pool.workers == 2
    pool.shutdown()
    assert multiprocessing.active_children() == []


def test_shutdown_during_a_crash_respawns_nothing(sum_task):
    """The worker dies after shutdown began: its crash fails the running
    task, the task behind it never started and fails as shut down, and no
    replacement worker outlives the pool."""
    pool = WorkerPool(workers=1, kind="process")
    crash = pool.submit(replace(sum_task, fault="crash", fault_arg=0.3))
    require_processes(pool)
    queued = pool.submit(sum_task)
    assert queued_in_pipe(pool) == [crash, queued]
    pool.shutdown()
    with pytest.raises(WorkerCrashed):
        crash.result(timeout=1)
    with pytest.raises(RuntimeError, match="shut down"):
        queued.result(timeout=1)
    assert pool.rebuilds == 0
    assert multiprocessing.active_children() == []


@pytest.fixture
def three_cores(monkeypatch):
    """A process pool of three really runs three worker processes, however
    many cores this host has: more workers than cores on a small host."""
    monkeypatch.setattr(worker, "cores_available", lambda: 3)


def test_concurrent_submits_lose_no_task(sum_task, three_cores):
    """Three workers, submits from several threads at a tiny switch
    interval: every task is answered once, correctly, and the pool ends
    with nothing queued or in flight."""
    expected = execute_task(sum_task).raw
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    pool = WorkerPool(workers=3, kind="process")
    futures: list = []
    try:

        def submit_some() -> None:
            for _ in range(15):
                futures.append(pool.submit(sum_task))

        threads = [threading.Thread(target=submit_some) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        require_processes(pool)
        assert pool.workers == len(pool._procs) == 3
        assert len(futures) == 60
        assert all(f.result(timeout=60).raw == expected for f in futures)
        assert not pool._backlog
        assert all(not proc.sent for proc in pool._procs)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


def test_resubmits_from_the_pump_thread_lose_no_task(sum_task, three_cores):
    """Each done-callback submits its chain's next task from the pump thread
    that resolved it, as the gateway does for every preempted slice, while
    the test's thread submits more: no deadlock, and every task of every
    chain is answered exactly once, correctly.  Each chain's fifth hop is
    too large to wait in a busy worker's pipe, so resubmits also go through
    the backlog."""
    expected = execute_task(sum_task).raw
    large = replace(sum_task, input_data=bytes(2 * worker._WINDOW_BYTES))
    chains, hops = 12, 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    pool = WorkerPool(workers=3, kind="process")
    answered: list = []  # (chain, hop, thread name, raw)
    lock = threading.Lock()
    finished = threading.Event()

    def follow(chain: int, hop: int, future) -> None:
        with lock:
            answered.append(
                (chain, hop, threading.current_thread().name, future.result().raw)
            )
            if len(answered) == chains * hops:
                finished.set()
        if hop + 1 < hops:
            task = large if (hop + 1) % 4 == 0 else sum_task
            pool.submit(task).add_done_callback(partial(follow, chain, hop + 1))

    try:
        # the first hop sleeps, so its callback is attached long before it
        # resolves, and every later hop is submitted from the pump thread
        first = replace(sum_task, fault="slow", fault_arg=0.05)
        for chain in range(chains):
            pool.submit(first).add_done_callback(partial(follow, chain, 0))
        require_processes(pool)
        direct = [pool.submit(sum_task) for _ in range(20)]
        assert finished.wait(timeout=120), f"only {len(answered)} tasks answered"
        assert all(f.result(timeout=60).raw == expected for f in direct)
        assert sorted((c, h) for c, h, _t, _r in answered) == [
            (c, h) for c in range(chains) for h in range(hops)
        ]
        assert all(raw == expected for _c, _h, _t, raw in answered)
        assert {t for _c, h, t, _r in answered if h > 0} == {"metering-pool-pump"}
        assert not pool._backlog
        assert all(not proc.sent for proc in pool._procs)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
