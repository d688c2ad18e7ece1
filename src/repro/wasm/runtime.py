"""Host runtime ("glue code") for WebAssembly modules.

Plays the role Node.js/V8 glue code plays in the paper (§4.1): it provides
the import objects a module needs — environment functions, an I/O channel
interface and scratch memory — and is the layer AccTEE instruments for I/O
accounting (§3.5): every byte crossing the module boundary through these
functions is counted.

The I/O interface mirrors what Emscripten main modules export to side
modules: reads/writes go through linear memory with (pointer, length) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.wasm.interpreter import HostFunction, Instance, Trap
from repro.wasm.module import Module
from repro.wasm.types import FuncType, ValType


@dataclass
class IOAccount:
    """Accumulates the bytes that crossed the module boundary via I/O calls."""

    bytes_in: int = 0
    bytes_out: int = 0
    calls: int = 0

    @property
    def total(self) -> int:
        return self.bytes_in + self.bytes_out


@dataclass
class IOChannel:
    """A byte-stream channel the module can read from and write to.

    Used by the FaaS scenario to feed request bodies in and collect
    responses, and by the volunteer scenario for task inputs/results.
    """

    input_data: bytes = b""
    output: bytearray = field(default_factory=bytearray)
    _read_pos: int = 0

    def read(self, length: int) -> bytes:
        chunk = self.input_data[self._read_pos : self._read_pos + length]
        self._read_pos += len(chunk)
        return chunk

    def write(self, data: bytes) -> None:
        self.output.extend(data)

    @property
    def remaining(self) -> int:
        return len(self.input_data) - self._read_pos


class HostEnvironment:
    """Builds the import object for a module and tracks I/O usage.

    The exposed import namespace is ``env`` with:

    * ``io_read(ptr, len) -> i32``  — copy up to ``len`` bytes of channel
      input into linear memory at ``ptr``; returns bytes copied;
    * ``io_write(ptr, len) -> i32`` — copy ``len`` bytes out of linear
      memory to the channel output; returns bytes written;
    * ``io_available() -> i32``     — channel input bytes not yet read;
    * ``host_log(value) -> ()``     — debug tap, records i32 values;
    * ``abort() -> ()``             — traps.

    The I/O wrappers accumulate into :class:`IOAccount` — this is AccTEE's
    I/O accounting instrumentation, which lives in the trusted runtime
    rather than in workload code.
    """

    def __init__(self, channel: IOChannel | None = None):
        self.channel = channel or IOChannel()
        self.account = IOAccount()
        self.log_values: list[int] = []
        self._instance: Instance | None = None

    # -- host function bodies ----------------------------------------------------

    def _io_read(self, ptr: int, length: int) -> int:
        if self._instance is None or self._instance.memory is None:
            raise Trap("io_read requires an instantiated module with memory")
        chunk = self.channel.read(length)
        self._instance.memory.write(ptr, chunk)
        self.account.bytes_in += len(chunk)
        self.account.calls += 1
        return len(chunk)

    def _io_write(self, ptr: int, length: int) -> int:
        if self._instance is None or self._instance.memory is None:
            raise Trap("io_write requires an instantiated module with memory")
        data = self._instance.memory.read(ptr, length)
        self.channel.write(data)
        self.account.bytes_out += len(data)
        self.account.calls += 1
        return len(data)

    def _io_available(self) -> int:
        return self.channel.remaining

    def _host_log(self, value: int) -> None:
        self.log_values.append(value)

    @staticmethod
    def _abort() -> None:
        raise Trap("abort called")

    # -- imports object ------------------------------------------------------------

    def imports(self) -> dict[str, dict[str, object]]:
        i32 = ValType.I32
        return {
            "env": {
                "io_read": HostFunction(FuncType((i32, i32), (i32,)), self._io_read, "io_read"),
                "io_write": HostFunction(FuncType((i32, i32), (i32,)), self._io_write, "io_write"),
                "io_available": HostFunction(FuncType((), (i32,)), self._io_available, "io_available"),
                "host_log": HostFunction(FuncType((i32,), ()), self._host_log, "host_log"),
                "abort": HostFunction(FuncType((), ()), self._abort, "abort"),
            }
        }

    def instantiate(
        self, module: Module, engine: str | None = None, **kwargs
    ) -> Instance:
        """Instantiate ``module`` against this environment's imports.

        ``engine`` selects the execution engine (``"compile"`` or
        ``"predecode"``, defaulting to the interpreter-wide default) — the FaaS
        and volunteer scenarios thread it through so throughput experiments
        can compare both engines.
        """
        instance = Instance(module, imports=self.imports(), engine=engine, **kwargs)
        self.bind(instance)
        return instance

    def bind(self, instance: Instance) -> None:
        """Attach the I/O functions to an instance created elsewhere.

        Used with :func:`repro.wasm.linking.instantiate_side_module`, where
        the side module is instantiated against a main module's exports plus
        this environment's functions: the I/O calls must read and write the
        *side* module's linear memory.  A snapshot captured from
        ``instance`` records this environment's I/O position.
        """
        self._instance = instance
        instance.host_env = self
