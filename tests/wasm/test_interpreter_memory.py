"""Tests for memory instructions and the host runtime environment."""

import pytest

from repro.wasm.interpreter import Instance, Trap
from repro.wasm.runtime import HostEnvironment, IOChannel
from repro.wasm.wat_parser import parse_wat


def make(source: str, **kwargs) -> Instance:
    return Instance(parse_wat(source), **kwargs)


def test_store_load_roundtrip():
    inst = make("""
    (module (memory 1)
      (func (export "f") (param i32 i32) (result i32)
        (i32.store (local.get 0) (local.get 1))
        (i32.load (local.get 0))))
    """)
    assert inst.invoke("f", 64, -123) == -123


def test_partial_width_loads_sign_handling():
    inst = make("""
    (module (memory 1)
      (func (export "s") (param i32) (i32.store8 (i32.const 0) (local.get 0)))
      (func (export "ls") (result i32) (i32.load8_s (i32.const 0)))
      (func (export "lu") (result i32) (i32.load8_u (i32.const 0))))
    """)
    inst.invoke("s", 0xFF)
    assert inst.invoke("ls") == -1
    assert inst.invoke("lu") == 255


def test_load16_variants():
    inst = make("""
    (module (memory 1)
      (func (export "s") (i32.store16 (i32.const 4) (i32.const 0x8001)))
      (func (export "ls") (result i32) (i32.load16_s (i32.const 4)))
      (func (export "lu") (result i32) (i32.load16_u (i32.const 4))))
    """)
    inst.invoke("s")
    assert inst.invoke("ls") == -32767
    assert inst.invoke("lu") == 0x8001


def test_i64_partial_loads():
    inst = make("""
    (module (memory 1)
      (func (export "s") (i64.store32 (i32.const 0) (i64.const 0xdeadbeef)))
      (func (export "lu") (result i64) (i64.load32_u (i32.const 0)))
      (func (export "ls") (result i64) (i64.load32_s (i32.const 0))))
    """)
    inst.invoke("s")
    assert inst.invoke("lu") == 0xDEADBEEF
    assert inst.invoke("ls") == 0xDEADBEEF - 2**32


def test_memarg_offset_applies():
    inst = make("""
    (module (memory 1)
      (func (export "f") (result i32)
        (i32.store offset=100 (i32.const 0) (i32.const 55))
        (i32.load (i32.const 100))))
    """)
    assert inst.invoke("f") == 55


def test_float_memory_roundtrip():
    inst = make("""
    (module (memory 1)
      (func (export "f") (param f64) (result f64)
        (f64.store (i32.const 8) (local.get 0))
        (f64.load (i32.const 8))))
    """)
    assert inst.invoke("f", -2.75) == -2.75


def test_out_of_bounds_access_traps():
    inst = make("""
    (module (memory 1)
      (func (export "f") (param i32) (result i32) (i32.load (local.get 0))))
    """)
    with pytest.raises(Trap, match="out of bounds"):
        inst.invoke("f", 0x10000 - 2)


def test_memory_size_and_grow():
    inst = make("""
    (module (memory 1 4)
      (func (export "size") (result i32) (memory.size))
      (func (export "grow") (param i32) (result i32) (memory.grow (local.get 0))))
    """)
    assert inst.invoke("size") == 1
    assert inst.invoke("grow", 2) == 1
    assert inst.invoke("size") == 3
    assert inst.invoke("grow", 5) == -1  # beyond declared maximum
    assert inst.invoke("size") == 3


def test_grow_history_recorded_in_stats():
    inst = make("""
    (module (memory 1)
      (func (export "f") (drop (memory.grow (i32.const 2)))))
    """)
    inst.invoke("f")
    assert len(inst.stats.grow_history) == 1
    assert inst.stats.grow_history[0][1] == 3


def test_data_segments_initialise_memory():
    inst = make("""
    (module (memory 1)
      (data (i32.const 10) "AB")
      (func (export "f") (result i32) (i32.load8_u (i32.const 10))))
    """)
    assert inst.invoke("f") == ord("A")


def test_load_store_stats():
    inst = make("""
    (module (memory 1)
      (func (export "f")
        (i64.store (i32.const 0) (i64.const 5))
        (drop (i32.load (i32.const 0)))
        (drop (i32.load8_u (i32.const 1)))))
    """)
    inst.invoke("f")
    assert inst.stats.stores == 1 and inst.stats.bytes_stored == 8
    assert inst.stats.loads == 2 and inst.stats.bytes_loaded == 5


class TestHostEnvironment:
    SOURCE = """
    (module
      (import "env" "io_read" (func $io_read (param i32 i32) (result i32)))
      (import "env" "io_write" (func $io_write (param i32 i32) (result i32)))
      (import "env" "io_available" (func $io_available (result i32)))
      (import "env" "host_log" (func $host_log (param i32)))
      (memory (export "memory") 1)
      (func (export "pump") (result i32)
        (local $n i32)
        (local.set $n (call $io_read (i32.const 0) (i32.const 64)))
        (drop (call $io_write (i32.const 0) (local.get $n)))
        (call $host_log (local.get $n))
        (call $io_available)))
    """

    def test_io_roundtrip_and_accounting(self):
        env = HostEnvironment(IOChannel(input_data=b"hello world"))
        inst = env.instantiate(parse_wat(self.SOURCE))
        remaining = inst.invoke("pump")
        assert remaining == 0
        assert bytes(env.channel.output) == b"hello world"
        assert env.account.bytes_in == 11
        assert env.account.bytes_out == 11
        assert env.account.calls == 2
        assert env.log_values == [11]

    def test_abort_traps(self):
        env = HostEnvironment()
        inst = env.instantiate(parse_wat("""
        (module
          (import "env" "abort" (func $abort))
          (memory 1)
          (func (export "f") (call $abort)))
        """))
        with pytest.raises(Trap, match="abort"):
            inst.invoke("f")


def test_import_type_mismatch_is_link_error():
    from repro.wasm.interpreter import HostFunction, LinkError
    from repro.wasm.types import FuncType, ValType

    module = parse_wat('(module (import "env" "f" (func $f (param i32))))')
    bad = {"env": {"f": HostFunction(FuncType((ValType.I64,), ()), lambda x: None)}}
    with pytest.raises(LinkError, match="type mismatch"):
        Instance(module, imports=bad)


def test_missing_import_is_link_error():
    from repro.wasm.interpreter import LinkError

    module = parse_wat('(module (import "env" "gone" (func $f)))')
    with pytest.raises(LinkError, match="unresolved"):
        Instance(module)
