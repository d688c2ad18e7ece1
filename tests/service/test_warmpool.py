"""Warm pools: correct per-request isolation.

The pool's contract: an acquired instance is indistinguishable from a
freshly instantiated one, or, given a snapshot, a freshly restored one
(state reset to the warm image or the snapshot, fresh I/O accounting,
per-request limits).
"""

import pytest

from repro.wasm.interpreter import ExecutionLimits, Instance, Trap
from repro.wasm.snapshot import WarmPool
from repro.wasm.wat_parser import parse_wat

WORK = """
(module
  (memory (export "mem") 1)
  (global $calls (mut i32) (i32.const 0))
  (func (export "work") (param i32) (result i32)
    (local i32)
    (global.set $calls (i32.add (global.get $calls) (i32.const 1)))
    (i32.store (i32.const 0) (local.get 0))
    (loop $top
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0))))
    (i32.add (i32.load (i32.const 0)) (global.get $calls))))
"""


def make_pool(**kwargs) -> WarmPool:
    return WarmPool(module=parse_wat(WORK), **kwargs)


class TestReuseCorrectness:
    def test_acquired_instance_matches_fresh_instantiation(self):
        pool = make_pool()
        for arg in (5, 9, 5):
            handle = pool.acquire()
            value = handle.instance.invoke("work", arg)
            fresh = Instance(parse_wat(WORK))
            assert value == fresh.invoke("work", arg)
            assert handle.instance.stats.executed == fresh.stats.executed
            pool.release(handle)
        # three requests, first build then two warm hits
        assert pool.stats()["builds"] == 1
        assert pool.stats()["hits"] == 2

    def test_state_never_leaks_between_leases(self):
        pool = make_pool()
        first = pool.acquire()
        first.instance.invoke("work", 7)  # dirties memory, global, stats
        pool.release(first)
        second = pool.acquire()
        # the $calls global and linear memory were reset by the warm image
        assert second.instance.globals[0].value == 0
        assert second.instance.stats.executed == 0
        assert bytes(second.instance.memory._data[:4]) == b"\x00\x00\x00\x00"

    def test_per_request_limits_swap(self):
        pool = make_pool()
        handle = pool.acquire(limits=ExecutionLimits(max_instructions=10))
        with pytest.raises(Trap, match="budget"):
            handle.instance.invoke("work", 1000)
        pool.release(handle)
        # next lease runs unbounded again
        handle = pool.acquire()
        assert handle.instance.invoke("work", 1000) > 0

    def test_start_function_is_built_under_the_lease_budget(self):
        # a start loop of ~3,000 instructions; the instance a lease builds
        # runs it under that lease's limits, never armed to capture
        module = parse_wat("""
        (module
          (global $n (mut i32) (i32.const 0))
          (func $spin
            (loop $again
              (global.set $n (i32.add (global.get $n) (i32.const 1)))
              (br_if $again (i32.lt_u (global.get $n) (i32.const 1000)))))
          (func (export "n") (result i32) (global.get $n))
          (start $spin))
        """)
        pool = WarmPool(module=module)
        with pytest.raises(Trap, match="budget"):
            pool.acquire(limits=ExecutionLimits(max_instructions=100))
        # armed to capture at 10 instructions, the build still completes
        handle = pool.acquire(limits=ExecutionLimits(snapshot_at=10))
        assert handle.instance.globals[0].value == 1000
        assert pool.stats()["builds"] == 1

    def test_io_accounting_is_per_lease(self):
        pool = make_pool()
        handle = pool.acquire(input_data=b"abc")
        handle.env.account.bytes_in = 3
        pool.release(handle)
        handle = pool.acquire()
        assert handle.env.account.bytes_in == 0

    def test_release_beyond_capacity_drops(self):
        pool = make_pool(max_size=1)
        first, second = pool.acquire(), pool.acquire()
        pool.release(first)
        pool.release(second)
        assert pool.stats()["idle"] == 1


# -- a reused instance is a fresh instance ----------------------------------------
#
# Every slice runs on a pooled instance, so whatever one slice leaves
# behind — a trap mid-run, a capture with frames still live, grown memory,
# channel output, host_log values, an armed profiler — must be gone when the
# next slice starts: its readings and stats equal a fresh instance's.

ENGINES = ("predecode", "compile")

REUSE = """
(module
  (import "env" "io_read" (func $io_read (param i32 i32) (result i32)))
  (import "env" "io_write" (func $io_write (param i32 i32) (result i32)))
  (import "env" "host_log" (func $host_log (param i32)))
  (memory (export "mem") 1 4)
  (global $counter (mut i64) (i64.const 0))
  (global $calls (mut i32) (i32.const 0))
  (func $spin (param i32)
    (local i32)
    (loop $top
      (global.set $counter (i64.add (global.get $counter) (i64.const 1)))
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br_if $top (i32.lt_u (local.get 1) (local.get 0)))))
  (func (export "work") (param i32) (result i32)
    (global.set $calls (i32.add (global.get $calls) (i32.const 1)))
    (drop (call $io_read (i32.const 0) (i32.const 8)))
    (call $host_log (local.get 0))
    (i32.store (i32.const 16) (i32.add (i32.load (i32.const 16)) (local.get 0)))
    (call $spin (local.get 0))
    (drop (call $io_write (i32.const 0) (i32.const 4)))
    (i32.add (i32.load (i32.const 16)) (global.get $calls)))
  (func (export "grow") (param i32) (result i32)
    (local i32)
    (local.set 1 (memory.grow (local.get 0)))
    (i32.store (i32.const 65536) (i32.const 7))
    (local.get 1))
  (func (export "boom") (param i32) (result i32)
    (i32.store (i32.const 16) (i32.const 99))
    (global.set $calls (i32.const 5))
    (call $spin (local.get 0))
    unreachable))
"""

PROBE_INPUT = b"probe-in"


def reuse_module():
    from repro.tcrypto.hashing import sha256
    from repro.wasm.binary import encode_module

    module = parse_wat(REUSE)
    return module, sha256(encode_module(module))


def slice_(module, digest, engine, export="work", args=(30,), input_data=PROBE_INPUT,
           limits=None, snapshot=None, pool=None):
    """One ``run_slice`` on ``pool``, or on a pool of its own, whose first
    lease is a freshly built instance."""
    from repro.core.accounting_enclave import run_slice

    if pool is None:
        pool = WarmPool(module=module, module_hash=digest, engine=engine, max_size=1)
    return run_slice(
        pool, 0, export, args, input_data, limits or ExecutionLimits(),
        snapshot=snapshot,
    )


def fresh_stats(module, engine, export, args, input_data, limits, snapshot=None):
    """The stats a fresh instance ends the slice with, set up by the
    wasm-level primitives (``instantiate``, ``restore_instance``)."""
    from repro.wasm.runtime import HostEnvironment, IOChannel
    from repro.wasm.snapshot import (
        SnapshotCaptured,
        restore_instance,
        resume_invoke,
        rewind_io,
    )
    from repro.wasm.snapshot.restore import slice_limits

    if snapshot is None:
        env = HostEnvironment(IOChannel(input_data=input_data))
        instance = env.instantiate(module, limits=limits, engine=engine)
    else:
        env = HostEnvironment()
        rewind_io(env, input_data, snapshot.io)
        instance = restore_instance(
            snapshot, module, imports=env.imports(),
            limits=slice_limits(limits, snapshot), engine=engine,
        )
        env.bind(instance)
    try:
        if snapshot is None:
            instance.invoke(export, *args)
        else:
            resume_invoke(instance, snapshot)
    except (SnapshotCaptured, Trap):
        pass
    return instance.stats


def dirty_trap(pool, module, digest, engine):
    raw, _captured, _e = slice_(module, digest, engine, "boom", (40,), pool=pool)
    assert raw.trapped


def dirty_capture(pool, module, digest, engine):
    _raw, captured, _e = slice_(
        module, digest, engine, args=(400,), limits=ExecutionLimits(snapshot_at=60),
        pool=pool,
    )
    assert captured is not None and captured.frames


def dirty_grow(pool, module, digest, engine):
    raw, _captured, _e = slice_(module, digest, engine, "grow", (2,), pool=pool)
    assert raw.value == 1 and raw.grow_history


def dirty_output(pool, module, digest, engine):
    raw, _captured, _e = slice_(
        module, digest, engine, args=(9,), input_data=b"leaked-output", pool=pool
    )
    assert raw.output == b"leak"


def dirty_host_log(pool, module, digest, engine):
    slice_(module, digest, engine, args=(12345,), pool=pool)
    assert pool._idle[-1].env.log_values == [12345]


def dirty_profiled(pool, module, digest, engine):
    from repro.obs.profiler import profile

    with profile():
        slice_(module, digest, engine, args=(50,), pool=pool)
    assert pool._idle[-1].instance._profiler is not None


DIRTY = [dirty_trap, dirty_capture, dirty_grow, dirty_output, dirty_host_log,
         dirty_profiled]


def probes(module, digest, engine):
    """The next requests a reused instance serves: a fresh call, a resume
    run to completion, and a resume preempted again."""
    _raw, snapshot, _e = slice_(
        module, digest, engine, args=(300,), limits=ExecutionLimits(snapshot_at=80)
    )
    assert snapshot is not None
    return [
        dict(),
        dict(snapshot=snapshot),
        dict(snapshot=snapshot, limits=ExecutionLimits(snapshot_at=100)),
    ]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dirty", DIRTY, ids=lambda fn: fn.__name__)
def test_reused_instance_bills_like_a_fresh_one(engine, dirty):
    from repro.wasm.snapshot import encode_snapshot

    module, digest = reuse_module()
    for probe in probes(module, digest, engine):
        pool = WarmPool(module=module, module_hash=digest, engine=engine, max_size=1)
        dirty(pool, module, digest, engine)
        pooled = slice_(module, digest, engine, pool=pool, **probe)
        [handle] = pool._idle
        assert pool.stats()["builds"] == 1  # the probe really reused it
        fresh = slice_(module, digest, engine, **probe)
        assert pooled[0] == fresh[0]  # RawExecution: value, meters, peak, output
        # the slice records agree but for the lease: only the fresh one built
        facts = [(r.exec_engine, r.resume, r.preempted, r.trapped) for r in (pooled[2], fresh[2])]
        assert facts[0] == facts[1]
        assert not pooled[2].build_ns and fresh[2].build_ns
        assert (pooled[1] is None) == (fresh[1] is None)
        if fresh[1] is not None:
            assert encode_snapshot(pooled[1]) == encode_snapshot(fresh[1])
        expected = fresh_stats(
            module, engine, "work", (30,), PROBE_INPUT,
            probe.get("limits", ExecutionLimits()), probe.get("snapshot"),
        )
        assert handle.instance.stats == expected
        assert handle.instance.memory.peak_bytes == fresh[0].peak_memory_bytes
        assert handle.instance._profiler is None


@pytest.mark.parametrize("engine", ENGINES)
def test_pooled_environment_keeps_only_the_last_requests_log(engine):
    module, digest = reuse_module()
    pool = WarmPool(module=module, module_hash=digest, engine=engine, max_size=1)
    for arg in (3, 5, 8, 13):
        slice_(module, digest, engine, args=(arg,), pool=pool)
    [handle] = pool._idle
    assert pool.stats()["hits"] == 3
    assert handle.env.log_values == [13]


def test_snapshot_from_another_module_is_refused():
    from repro.wasm.snapshot import SnapshotError

    module, digest = reuse_module()
    _raw, snapshot, _e = slice_(
        module, digest, None, args=(300,), limits=ExecutionLimits(snapshot_at=80)
    )
    pool = make_pool(max_size=1)
    with pytest.raises(SnapshotError, match="module hash mismatch"):
        pool.acquire(snapshot=snapshot)
    assert pool.acquire().instance.invoke("work", 5) == 6  # still serving
