"""The accounting enclave (AE): executes workloads and produces trusted logs.

The AE is the runtime half of Fig. 3: it verifies instrumentation evidence,
instantiates the workload in the Wasm runtime under (simulated) SGX, reads
the injected counter plus the runtime's memory and I/O meters, and appends
signed entries to the resource usage log.  Its signing key is generated
inside the enclave per run and bound to the enclave identity by embedding
the public key's fingerprint in the remote-attestation report data, so a
workload provider who attested the AE can trust every log entry it signs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instrumentation_enclave import InstrumentationEvidence, verify_evidence
from repro.core.policy import MemoryPolicy, memory_integral
from repro.core.resource_log import ResourceUsageLog, ResourceVector
from repro.instrument.weights import WeightTable
from repro.obs.instruments import (
    CHECKPOINT_RECEIPTS,
    SANDBOX_INSTRUCTIONS,
    SANDBOX_IO_BYTES,
    SANDBOX_PEAK_MEMORY,
    SANDBOX_RUNS,
)
from repro.obs.trace import span
from repro.sgx.enclave import Enclave
from repro.sgx.lkl import SGXLKL
from repro.tcrypto.hashing import sha256
from repro.tcrypto.rsa import RSAKeyPair, RSAPublicKey, rsa_generate
from repro.wasm.binary import encode_module
from repro.wasm.interpreter import ExecutionLimits, Instance, SnapshotCaptured, Trap
from repro.wasm.module import Module
from repro.wasm.runtime import HostEnvironment, IOChannel
from repro.wasm.snapshot import IOState, Snapshot, restore_instance, resume_invoke, with_io
from repro.wasm.validate import validate


class WorkloadRejected(Exception):
    """The AE refused a workload (bad evidence, bad module, wrong IE)."""


@dataclass
class WorkloadResult:
    """Outcome of one invocation inside the AE."""

    value: object
    trapped: bool
    trap_message: str
    vector: ResourceVector
    output: bytes


@dataclass(frozen=True)
class WorkloadCheckpoint:
    """A suspended invocation: its snapshot plus the billing already done.

    Returned by :meth:`AccountingEnclave.invoke` / :meth:`~AccountingEnclave.resume`
    when the run hit an armed observation point (``snapshot_at``) instead of
    finishing.  The resources consumed *up to* the capture are already signed
    into the log as a checkpoint receipt (``vector``); ``baseline`` records
    the (counter, io_in, io_out) totals billed so far, so the eventual final
    receipt bills only the remaining delta — summed receipt vectors equal the
    uninterrupted run's single vector, component for component.
    """

    snapshot: Snapshot
    export: str
    args: tuple
    input_data: bytes
    label: str
    baseline: tuple[int, int, int]
    vector: ResourceVector
    checkpoints: int


@dataclass(frozen=True)
class RawExecution:
    """The raw, unsigned measurements of one workload invocation.

    Produced wherever the Wasm actually ran — inside this AE's
    :meth:`~AccountingEnclave.invoke`, or in a metering-gateway worker
    process — and turned into a signed log entry by
    :meth:`AccountingEnclave.account_span`.  It carries exactly the quantities
    accounting needs, so the execution site and the signing site can live in
    different processes while producing byte-identical resource vectors.
    """

    workload_hash: bytes
    counter_value: int
    peak_memory_bytes: int
    initial_pages: int
    grow_history: tuple[tuple[int, int], ...]
    io_bytes_in: int
    io_bytes_out: int
    value: object = None
    trapped: bool = False
    trap_message: str = ""
    output: bytes = b""


class AccountingEnclave(Enclave):
    """Executes evidence-carrying workloads and meters their resources."""

    CODE_VERSION = b"acctee-sim accounting enclave v1"

    def __init__(
        self,
        ie_public_key: RSAPublicKey,
        ie_measurement: bytes,
        weight_table: WeightTable,
        memory_policy: MemoryPolicy = MemoryPolicy.PEAK,
        key_bits: int = 512,
        key_seed: int = 23,
        limits: ExecutionLimits | None = None,
        engine: str | None = None,
        batch_window: int | None = None,
    ):
        super().__init__(
            "accounting-enclave",
            (
                self.CODE_VERSION,
                ie_measurement,
                weight_table.digest(),
                memory_policy.value.encode("utf-8"),
            ),
        )
        self.ie_public_key = ie_public_key
        self.ie_measurement = ie_measurement
        self.weight_table = weight_table
        self.memory_policy = memory_policy
        self.limits = limits or ExecutionLimits()
        #: Wasm execution engine used for workload invocations ("predecode"
        #: or "legacy"; None picks the interpreter default).  The injected
        #: counter verification is engine-independent — the differential
        #: tests pin both engines to identical ExecutionStats.
        self.engine = engine
        self.lkl = SGXLKL()
        self._signing_key: RSAKeyPair = rsa_generate(key_bits, seed=key_seed)
        #: ``batch_window=N`` puts the receipt log in batched-sealing mode:
        #: one signature over a Merkle root of N entry bodies per flush
        #: window instead of one RSA op per receipt (the gateway's hot path).
        self.log = ResourceUsageLog(self._signing_key, batch_window=batch_window)

        self._module: Module | None = None
        self._counter_global: int | None = None
        self._workload_hash: bytes = b""
        self._last_counter = 0

    @property
    def log_public_key(self) -> RSAPublicKey:
        return self._signing_key.public

    def report_data_binding(self) -> bytes:
        """The value a challenger expects in this AE's attestation user data."""
        return self.log_public_key.fingerprint()

    # -- workload intake ---------------------------------------------------------

    def load_workload(self, module: Module, evidence: InstrumentationEvidence) -> None:
        """Admit a workload: verify evidence, module validity and counter wiring."""
        if not verify_evidence(evidence, module, self.ie_public_key, self.ie_measurement):
            raise WorkloadRejected("instrumentation evidence verification failed")
        if evidence.weight_table_digest != self.weight_table.digest():
            raise WorkloadRejected("workload instrumented under a different weight table")
        try:
            validate(module)
        except Exception as exc:
            raise WorkloadRejected(f"module fails validation: {exc}") from exc
        counter = evidence.counter_global_index
        if counter >= module.num_imported_globals + len(module.globals):
            raise WorkloadRejected("evidence names a counter global that does not exist")
        self._module = module
        self._counter_global = counter
        self._workload_hash = sha256(encode_module(module))
        self._last_counter = 0

    # -- execution -----------------------------------------------------------------

    def invoke(
        self,
        export: str,
        *args,
        input_data: bytes = b"",
        label: str = "",
        progress_interval: int | None = None,
        snapshot_at: int | None = None,
    ) -> WorkloadResult | WorkloadCheckpoint:
        """Run one exported function and append a signed accounting entry.

        A fresh module instance is created per invocation (the paper's FaaS
        deployment instantiates per request to isolate tenants); the counter
        therefore starts at zero each time.

        With ``progress_interval`` set, the AE additionally appends interim
        "progress" entries to the log every that-many executed instructions —
        the paper's periodic accounting reports (§3.3), used e.g. by the
        pay-by-computation scenario to give the content provider feedback
        while a task runs.

        With ``snapshot_at`` set, execution suspends at the first observation
        point where ``executed >= snapshot_at``: the resources consumed so far
        are signed into the log as a checkpoint receipt and a
        :class:`WorkloadCheckpoint` is returned instead of a result — hand it
        to :meth:`resume` (on this AE, under any engine) to continue.
        """
        if self._module is None or self._counter_global is None:
            raise WorkloadRejected("no workload loaded")
        channel = IOChannel(input_data=input_data)
        env = HostEnvironment(channel=channel, account_io=True)
        limits = self.limits
        if snapshot_at is not None:
            from dataclasses import replace as _replace

            limits = _replace(limits, snapshot_at=snapshot_at)
        if progress_interval is not None:
            from dataclasses import replace as _replace

            def report_progress(stats) -> None:
                self.log.append(
                    ResourceVector(
                        weighted_instructions=0,  # interim marker, not billed
                        peak_memory_bytes=0,
                        memory_integral_page_instructions=0,
                        io_bytes_in=0,
                        io_bytes_out=0,
                        label=f"progress:{label or export}@{stats.executed}",
                    ),
                    self._workload_hash,
                    self.weight_table.digest(),
                )

            limits = _replace(
                limits,
                progress_interval=progress_interval,
                progress_callback=report_progress,
            )
        with span(
            "invoke",
            export=export,
            module_hash=self._workload_hash,
            engine=self.engine or "default",
        ):
            instance = env.instantiate(self._module, limits=limits, engine=self.engine)

            trapped = False
            trap_message = ""
            value: object = None
            with span("execute", export=export):
                try:
                    value = instance.invoke(export, *args)
                except SnapshotCaptured as exc:
                    return self._checkpoint(
                        with_io(exc.snapshot, env, channel),
                        export=export,
                        args=args,
                        input_data=input_data,
                        label=label or export,
                        baseline=(0, 0, 0),
                        checkpoints=0,
                    )
                except Trap as exc:
                    trapped = True
                    trap_message = str(exc)

            memory = instance.memory
            raw = RawExecution(
                workload_hash=self._workload_hash,
                counter_value=int(instance.globals[self._counter_global].value),
                peak_memory_bytes=memory.peak_bytes if memory is not None else 0,
                initial_pages=(
                    self._module.memories[0].limits.minimum
                    if self._module.memories
                    else 0
                ),
                grow_history=tuple(instance.stats.grow_history),
                io_bytes_in=env.account.bytes_in,
                io_bytes_out=env.account.bytes_out,
                value=value,
                trapped=trapped,
                trap_message=trap_message,
                output=bytes(channel.output),
            )
            result = self.account_span(raw, label=label or export)
            self.lkl.request_io_cycles(len(input_data), len(channel.output))
            return result

    def account_span(
        self,
        raw: RawExecution,
        label: str = "",
        baseline: tuple[int, int, int] = (0, 0, 0),
        final: bool = True,
        trace_id: str | None = None,
    ) -> WorkloadResult:
        """Sign a receipt for the span since ``baseline``.

        This is the AE's accounting half, split out so a metering gateway
        can execute workloads in worker processes and still have *this*
        enclave — the one the tenant attested — sign every receipt.  The
        raw measurements must be for the workload this AE admitted.

        ``baseline`` is the (weighted instructions, io_in, io_out) already
        billed by earlier checkpoint receipts for this job; the vector
        carries only the deltas.  Peak memory and the memory integral are
        *whole-job* quantities (computed over the full grow history and the
        final counter), so they appear only on the ``final`` receipt — with
        that convention, the componentwise sum over a job's checkpoint +
        final receipts equals the single receipt of an uninterrupted run.

        ``trace_id`` tags the signing span with the distributed-trace
        identity of the execution that produced ``raw`` — provenance only,
        never part of the signed vector, so signed bytes stay identical
        with tracing on or off.
        """
        if self._workload_hash == b"":
            raise WorkloadRejected("no workload loaded")
        if raw.workload_hash != self._workload_hash:
            raise WorkloadRejected("raw execution is for a different workload")
        base_instr, base_in, base_out = baseline
        delta_instr = raw.counter_value - base_instr
        delta_in = raw.io_bytes_in - base_in
        delta_out = raw.io_bytes_out - base_out
        # Guard checkpoint consistency only: a non-zero baseline that
        # exceeds the measurement means a mis-sequenced resume.  Raw
        # plausibility (e.g. a negative counter) is the validation layer's
        # job, with the billing-drift auditor as the offline backstop.
        if baseline != (0, 0, 0) and (
            delta_instr < 0 or delta_in < 0 or delta_out < 0
        ):
            raise WorkloadRejected("span baseline exceeds measured totals")
        attrs = {"label": label, "module_hash": self._workload_hash}
        if trace_id is not None:
            attrs["trace_id"] = trace_id
        with span("account", **attrs):
            if final:
                integral = memory_integral(
                    list(raw.grow_history), raw.initial_pages, raw.counter_value
                )
                vector = ResourceVector(
                    weighted_instructions=delta_instr,
                    peak_memory_bytes=raw.peak_memory_bytes,
                    memory_integral_page_instructions=(
                        integral if self.memory_policy is MemoryPolicy.INTEGRAL else 0
                    ),
                    io_bytes_in=delta_in,
                    io_bytes_out=delta_out,
                    label=label,
                )
            else:
                vector = ResourceVector(
                    weighted_instructions=delta_instr,
                    peak_memory_bytes=0,
                    memory_integral_page_instructions=0,
                    io_bytes_in=delta_in,
                    io_bytes_out=delta_out,
                    label=f"checkpoint:{label}@{raw.counter_value}",
                )
            self.log.append(vector, self._workload_hash, self.weight_table.digest())
            self._last_counter = raw.counter_value
        if final:
            SANDBOX_RUNS.inc(outcome="trapped" if raw.trapped else "ok")
            SANDBOX_PEAK_MEMORY.observe(float(raw.peak_memory_bytes))
        else:
            CHECKPOINT_RECEIPTS.inc()
        SANDBOX_INSTRUCTIONS.inc(delta_instr)
        SANDBOX_IO_BYTES.inc(delta_in, direction="in")
        SANDBOX_IO_BYTES.inc(delta_out, direction="out")
        return WorkloadResult(
            value=raw.value,
            trapped=raw.trapped,
            trap_message=raw.trap_message,
            vector=vector,
            output=raw.output,
        )

    # -- snapshot / resume ---------------------------------------------------------

    def _checkpoint(
        self,
        snapshot: Snapshot,
        export: str,
        args: tuple,
        input_data: bytes,
        label: str,
        baseline: tuple[int, int, int],
        checkpoints: int,
    ) -> WorkloadCheckpoint:
        """Bill a capture's consumed-so-far delta and wrap it for resumption."""
        if self._module is None or self._counter_global is None:
            raise WorkloadRejected("no workload loaded")
        io = snapshot.io or IOState()
        raw = RawExecution(
            workload_hash=self._workload_hash,
            counter_value=int(snapshot.globals[self._counter_global]),
            peak_memory_bytes=0,  # whole-job quantity, billed on the final receipt
            initial_pages=(
                self._module.memories[0].limits.minimum if self._module.memories else 0
            ),
            grow_history=(),
            io_bytes_in=io.bytes_in,
            io_bytes_out=io.bytes_out,
        )
        result = self.account_span(raw, label=label, baseline=baseline, final=False)
        return WorkloadCheckpoint(
            snapshot=snapshot,
            export=export,
            args=tuple(args),
            input_data=input_data,
            label=label,
            baseline=(raw.counter_value, raw.io_bytes_in, raw.io_bytes_out),
            vector=result.vector,
            checkpoints=checkpoints + 1,
        )

    def resume(
        self,
        checkpoint: WorkloadCheckpoint,
        snapshot_at: int | None = None,
    ) -> WorkloadResult | WorkloadCheckpoint:
        """Continue a checkpointed invocation on this AE's configured engine.

        The snapshot restores into a fresh instance (any engine — the format
        is engine-independent), the host I/O channel is rewound to its
        captured position, and the suspended call stack re-enters exactly
        where capture left it.  On completion the final receipt bills only
        the delta past ``checkpoint.baseline``; with ``snapshot_at`` set
        (executed instructions *beyond the checkpoint* — the next slice
        budget, same semantics as a worker task) the run may instead
        suspend again, yielding the next :class:`WorkloadCheckpoint`.
        """
        if self._module is None or self._counter_global is None:
            raise WorkloadRejected("no workload loaded")
        snap = checkpoint.snapshot
        io = snap.io or IOState()
        channel = IOChannel(input_data=checkpoint.input_data)
        channel._read_pos = io.read_pos
        channel.output[:] = io.output
        env = HostEnvironment(channel=channel, account_io=True)
        env.account.bytes_in = io.bytes_in
        env.account.bytes_out = io.bytes_out
        env.account.calls = io.calls
        from dataclasses import replace as _replace

        limits = _replace(
            self.limits,
            snapshot_at=(
                snap.executed + snapshot_at if snapshot_at is not None else None
            ),
        )
        with span(
            "resume",
            export=checkpoint.export,
            module_hash=self._workload_hash,
            engine=self.engine or "default",
        ):
            instance = restore_instance(
                snap,
                self._module,
                imports=env.imports(),
                limits=limits,
                engine=self.engine,
            )
            env.bind(instance)
            trapped = False
            trap_message = ""
            value: object = None
            with span("execute", export=checkpoint.export):
                try:
                    value = resume_invoke(instance, snap)
                except SnapshotCaptured as exc:
                    return self._checkpoint(
                        with_io(exc.snapshot, env, channel),
                        export=checkpoint.export,
                        args=checkpoint.args,
                        input_data=checkpoint.input_data,
                        label=checkpoint.label,
                        baseline=checkpoint.baseline,
                        checkpoints=checkpoint.checkpoints,
                    )
                except Trap as exc:
                    trapped = True
                    trap_message = str(exc)

            memory = instance.memory
            raw = RawExecution(
                workload_hash=self._workload_hash,
                counter_value=int(instance.globals[self._counter_global].value),
                peak_memory_bytes=memory.peak_bytes if memory is not None else 0,
                initial_pages=(
                    self._module.memories[0].limits.minimum
                    if self._module.memories
                    else 0
                ),
                grow_history=tuple(instance.stats.grow_history),
                io_bytes_in=env.account.bytes_in,
                io_bytes_out=env.account.bytes_out,
                value=value,
                trapped=trapped,
                trap_message=trap_message,
                output=bytes(channel.output),
            )
            result = self.account_span(
                raw, label=checkpoint.label, baseline=checkpoint.baseline, final=True
            )
            self.lkl.request_io_cycles(len(checkpoint.input_data), len(channel.output))
            return result
