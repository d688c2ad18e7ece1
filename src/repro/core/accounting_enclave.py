"""The accounting enclave (AE): executes workloads and produces trusted logs.

The AE is the runtime half of Fig. 3: it verifies instrumentation evidence,
runs the workload in the Wasm runtime under (simulated) SGX, reads
the injected counter plus the runtime's memory and I/O meters (one slice:
:func:`run_slice`, which gateway workers run too), and appends signed
entries to the resource usage log.  Its signing key is generated
inside the enclave per run and bound to the enclave identity by embedding
the public key's fingerprint in the remote-attestation report data, so a
workload provider who attested the AE can trust every log entry it signs.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from time import perf_counter_ns

from repro.core.instrumentation_enclave import InstrumentationEvidence, verify_evidence
from repro.core.policy import MemoryPolicy, memory_integral
from repro.core.resource_log import ResourceUsageLog, ResourceVector
from repro.core.slices import SliceRecord, apply_slice
from repro.instrument.weights import WeightTable
from repro.obs.trace import span
from repro.sgx.enclave import Enclave
from repro.tcrypto.hashing import sha256
from repro.tcrypto.rsa import RSAKeyPair, RSAPublicKey, rsa_generate
from repro.wasm.binary import encode_module
from repro.wasm.interpreter import ExecutionLimits, SnapshotCaptured, Trap
from repro.wasm.module import Module
from repro.wasm.snapshot import Snapshot, WarmPool, resume_invoke
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

    A job starts as the checkpoint with no ``snapshot`` and nothing billed;
    each slice that suspends advances it to the next.
    """

    snapshot: Snapshot | None
    export: str
    args: tuple
    input_data: bytes
    label: str
    baseline: tuple[int, int, int] = (0, 0, 0)
    vector: ResourceVector | None = None
    checkpoints: int = 0


@dataclass(frozen=True)
class RawExecution:
    """The raw, unsigned measurements of one workload invocation.

    Produced by :func:`run_slice` wherever the Wasm actually ran — inside
    this AE, or in a metering-gateway worker process — and turned into a
    signed log entry by :meth:`AccountingEnclave.account_span`.  It carries
    exactly the quantities accounting needs, so the execution site and the
    signing site can live in different processes while producing
    byte-identical resource vectors.
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

    @property
    def billed(self) -> tuple[int, int, int]:
        """The ``(counter, io_in, io_out)`` a checkpoint receipt of this
        reading leaves billed: the next receipt's ``baseline``."""
        return (self.counter_value, self.io_bytes_in, self.io_bytes_out)


def run_slice(
    pool: WarmPool,
    counter_index: int,
    export: str,
    args: tuple,
    input_data: bytes,
    limits: ExecutionLimits,
    *,
    snapshot: Snapshot | None = None,
    snapshot_bytes: int = 0,
) -> tuple[RawExecution, Snapshot | None, SliceRecord]:
    """Run one slice of a workload; return ``(raw, capture, record)``.

    The one execution path of the AE (:meth:`AccountingEnclave.invoke`,
    :meth:`~AccountingEnclave.resume`) and of gateway workers
    (:func:`repro.service.worker.execute_task`).  A slice is a fresh call
    of ``export(*args)`` or, with ``snapshot``, the continuation of a
    suspended one; either way it runs on an instance of the pool's module
    leased and reset for it (:meth:`WarmPool.acquire`), its one set-up step.
    ``limits.snapshot_at`` counts the instructions executed *in this
    slice*: when it is reached, ``capture`` is the snapshot (I/O position
    attached) and ``raw`` the meters as of it; otherwise ``capture`` is
    None (a trap finishes the slice too, recorded in ``raw``).

    The slice records no telemetry.  ``record`` is its
    :class:`~repro.core.slices.SliceRecord`: stamps where the set-up (and a
    pool build in it) and the invoke or resume begin and end, the engine
    that ran (``exec_engine``), the wire size of a resumed snapshot
    (``snapshot_bytes``) and whether it was preempted or trapped.  The
    caller applies :data:`~repro.core.slices.SLICE` to it.
    """
    setup_ns = perf_counter_ns()
    instance, env, built, image = handle = pool.acquire(input_data, limits, snapshot)
    run_ns = perf_counter_ns()

    value: object = None
    trapped, trap_message = False, ""
    captured: Snapshot | None = None
    try:
        if snapshot is None:
            value = instance.invoke(export, *args)
        else:
            value = resume_invoke(instance, snapshot)
    except SnapshotCaptured as exc:
        captured = exc.snapshot
    except Trap as exc:
        trapped, trap_message = True, str(exc)
    ran_ns = perf_counter_ns()

    memory, module = instance.memory, pool.module
    raw = RawExecution(
        workload_hash=instance.module_hash,
        counter_value=int(instance.globals[counter_index].value),
        peak_memory_bytes=memory.peak_bytes if memory is not None else 0,
        initial_pages=module.memories[0].limits.minimum if module.memories else 0,
        grow_history=tuple(instance.stats.grow_history),
        io_bytes_in=env.account.bytes_in,
        io_bytes_out=env.account.bytes_out,
        value=value,
        trapped=trapped,
        trap_message=trap_message,
        output=bytes(env.channel.output),
    )
    pool.release(handle)
    build_ns, built_ns = built or (0, 0)
    record = SliceRecord(
        setup_ns=setup_ns,
        build_ns=build_ns,
        built_ns=built_ns,
        run_ns=run_ns,
        ran_ns=ran_ns,
        engine=pool.engine or "",
        exec_engine=instance.engine,
        image=image,
        resume=snapshot is not None,
        snapshot_bytes=snapshot_bytes,
        preempted=captured is not None,
        trapped=trapped,
        pid=os.getpid(),
        thread_id=threading.get_ident(),
    )
    return raw, captured, record


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
        #: Wasm execution engine used for workload invocations ("compile"
        #: or "predecode"; None picks the interpreter default, compile);
        #: a change takes effect at the next slice.
        #: The injected counter verification is engine-independent — the
        #: differential tests pin both engines to identical ExecutionStats.
        self.engine = engine
        self._signing_key: RSAKeyPair = rsa_generate(key_bits, seed=key_seed)
        #: ``batch_window=N`` puts the receipt log in batched-sealing mode:
        #: one signature over a Merkle root of N entry bodies per flush
        #: window instead of one RSA op per receipt (the gateway's hot path).
        self.log = ResourceUsageLog(self._signing_key, batch_window=batch_window)

        self._pool: WarmPool | None = None
        self._counter_global: int | None = None
        self._workload_hash: bytes = b""

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
        self._counter_global = counter
        self._workload_hash = sha256(encode_module(module))
        # instances are built at the first slice, then leased and reset
        self._pool = WarmPool(
            module=module, engine=self.engine, module_hash=self._workload_hash
        )

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

        Each invocation runs on an instance leased from the workload's pool
        and reset to the module's pristine post-instantiation state (the
        paper's FaaS deployment gives every request a clean instance to
        isolate tenants); the counter therefore starts at zero each time.

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
        label = label or export
        limits = self.limits
        if snapshot_at is not None:
            limits = replace(limits, snapshot_at=snapshot_at)
        if progress_interval is not None:

            def report_progress(stats) -> None:
                self.log.append(
                    ResourceVector(
                        weighted_instructions=0,  # interim marker, not billed
                        peak_memory_bytes=0,
                        memory_integral_page_instructions=0,
                        io_bytes_in=0,
                        io_bytes_out=0,
                        label=f"progress:{label}@{stats.executed}",
                    ),
                    self._workload_hash,
                    self.weight_table.digest(),
                )

            limits = replace(
                limits,
                progress_interval=progress_interval,
                progress_callback=report_progress,
            )
        start = WorkloadCheckpoint(
            snapshot=None,
            export=export,
            args=tuple(args),
            input_data=input_data,
            label=label,
        )
        return self._run(start, limits)

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
        account_ns = perf_counter_ns()
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
        apply_slice(
            SliceRecord(account_ns=account_ns, accounted_ns=perf_counter_ns()),
            trace_id=trace_id,
            label=label,
            module_hash=self._workload_hash,
            raw=raw,
            final=final,
            delta=(delta_instr, delta_in, delta_out),
        )
        return WorkloadResult(
            value=raw.value,
            trapped=raw.trapped,
            trap_message=raw.trap_message,
            vector=vector,
            output=raw.output,
        )

    # -- snapshot / resume ---------------------------------------------------------

    def resume(
        self,
        checkpoint: WorkloadCheckpoint,
        snapshot_at: int | None = None,
    ) -> WorkloadResult | WorkloadCheckpoint:
        """Continue a checkpointed invocation on this AE's configured engine.

        The snapshot restores into a pooled instance (any engine — the format
        is engine-independent), the host I/O channel is rewound to its
        captured position, and the suspended call stack re-enters exactly
        where capture left it.  On completion the final receipt bills only
        the delta past ``checkpoint.baseline``; with ``snapshot_at`` set
        (executed instructions *beyond the checkpoint* — the next slice
        budget, same semantics as a worker task) the run may instead
        suspend again, yielding the next :class:`WorkloadCheckpoint`.
        """
        return self._run(checkpoint, replace(self.limits, snapshot_at=snapshot_at))

    def _run(
        self, job: WorkloadCheckpoint, limits: ExecutionLimits
    ) -> WorkloadResult | WorkloadCheckpoint:
        """Run the job's next slice and sign its receipt: the final one, or
        a checkpoint receipt for the span since ``job.baseline`` when the
        slice suspended, returning the job's next checkpoint."""
        if self._pool is None or self._counter_global is None:
            raise WorkloadRejected("no workload loaded")
        if self._pool.engine != self.engine:  # the engine changed since the last slice
            self._pool = WarmPool(
                self._pool.module, engine=self.engine, module_hash=self._workload_hash
            )
        with span(
            "invoke" if job.snapshot is None else "resume",
            export=job.export,
            module_hash=self._workload_hash,
            engine=self.engine or "default",
        ):
            with span("execute", export=job.export) as execute:
                raw, captured, record = run_slice(
                    self._pool,
                    self._counter_global,
                    job.export,
                    job.args,
                    job.input_data,
                    limits,
                    snapshot=job.snapshot,
                )
                apply_slice(record, execute, export=job.export)
            if captured is None:
                return self.account_span(raw, label=job.label, baseline=job.baseline)
            result = self.account_span(
                raw, label=job.label, baseline=job.baseline, final=False
            )
            return replace(
                job,
                snapshot=captured,
                baseline=raw.billed,
                vector=result.vector,
                checkpoints=job.checkpoints + 1,
            )
