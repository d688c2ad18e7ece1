"""The metering gateway façade: many tenants, one attested platform.

One :class:`MeteringGateway` is what the paper's infrastructure provider
runs: a single SGX platform hosting one instrumentation enclave (shared,
with its instrumented-module cache) and **one accounting enclave per
tenant**, so every tenant's receipts carry their own attested signing key
and no tenant can be billed for another's work.  Requests fan out to an
execution backend (worker processes by default) and come back as raw meter
readings; the tenant's AE signs each into a receipt, and the billing ledger
seals receipts into Merkle-rooted epochs.

The request path adds no thread of its own: admission and the first
dispatch run in the submitting thread, and each result is accounted by its
pool future's done-callback on whichever thread resolved it.  A preempted
request's next slice is dispatched before its checkpoint is signed, so the
worker runs it meanwhile.  One timer thread, started at the first deadline
or retry backoff, runs both.

Each request transition records its telemetry through the table in
:mod:`repro.service.lifecycle`; the load driver behind ``repro loadtest``,
``repro serve`` and ``repro top`` lives in :mod:`repro.service.load`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from contextlib import ExitStack
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from repro.core.accounting_enclave import AccountingEnclave, WorkloadResult
from repro.core.cache import InstrumentationCache
from repro.core.instrumentation_enclave import InstrumentationEnclave
from repro.core.resource_log import ResourceVector, totals_of
from repro.core.sandbox import SandboxConfig
from repro.core.slices import apply_slice
from repro.obs.context import TraceContext
from repro.obs.events import emit as emit_event
from repro.obs.trace import span as obs_span
from repro.service.backends import ExecutionBackend, WasmBackend
from repro.service.faults import (
    DeadlineExceeded,
    FaultPlan,
    GatewayFailure,
    ResiliencePolicy,
    ResultRejected,
    RetriesExhausted,
    is_transient,
    validate_raw,
)
from repro.service.ledger import (
    BillingLedger,
    EpochSeal,
    EpochVerification,
    Receipt,
    verify_epoch,
)
from repro.service.lifecycle import LifecycleRecorder
from repro.service.quota import (
    AdmissionController,
    AdmissionError,
    TenantQuota,
    UnknownTenant,
)
from repro.service.worker import (
    ExecutionTask,
    WorkerPool,
    WorkerResult,
    cores_available,
)
from repro.sgx.attestation import (
    AttestationError,
    AttestationService,
    QuotingEnclave,
    challenge_enclave,
)
from repro.sgx.enclave import SGXPlatform
from repro.tcrypto.hashing import sha256
from repro.wasm.binary import encode_module
from repro.wasm.interpreter import ExecutionLimits
from repro.wasm.memory import PAGE_SIZE
from repro.wasm.module import Module


@dataclass
class _Tenant:
    tenant_id: str
    ae: AccountingEnclave
    module_bytes: bytes
    module_hash: bytes
    counter_index: int
    memory_required_bytes: int
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class GatewayResponse:
    """What a tenant gets back for one request."""

    tenant_id: str
    request_id: int
    result: WorkloadResult
    receipt: Receipt
    latency_s: float
    exec_wall_s: float


@dataclass
class _RequestState:
    """One admitted request's lifecycle.

    ``finalized`` is the exactly-once gate: whichever of {final worker
    result, deadline timer, terminal failure} claims it first settles the
    admission slot, ends the span and resolves the future — and only the
    claimant may sign a final receipt, so a result arriving after its
    deadline is dropped unbilled.  The deadline timer and the result
    callbacks run on different threads: :meth:`claim`, taken under
    :attr:`lock`, arbitrates between them, and a checkpoint is signed under
    the same lock, so none is recorded after the request settled.
    """

    request_id: int
    tenant: "_Tenant"
    label: str
    response: "Future[GatewayResponse]"
    span: object
    submitted: float
    #: absolute wall-clock deadline (``perf_counter`` domain), or None
    deadline: float | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    finalized: bool = False
    #: cancels the armed deadline timer (None when no deadline is set)
    disarm: "Callable[[], None] | None" = None
    #: preemption bookkeeping: checkpoint receipts signed so far, and the
    #: (counter, io_in, io_out) totals they billed — the final receipt
    #: bills only the delta past this baseline (both mutated under the
    #: tenant lock, alongside the checkpoint signing they describe)
    checkpoints: int = 0
    billed: tuple = (0, 0, 0)
    #: distributed-trace context for this request (``None`` when no
    #: telemetry sink is on); re-minted to the next hop on every
    #: checkpoint re-dispatch and retry.  A request's next hop gets its
    #: done-callback only once the last hop's result is accounted, so its
    #: callbacks never overlap and need no extra locking
    trace: "TraceContext | None" = None

    def claim(self) -> bool:
        with self.lock:
            if self.finalized:
                return False
            self.finalized = True
        if self.disarm is not None:
            self.disarm()
        return True

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    def past_deadline(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline

    @property
    def trace_id(self) -> str | None:
        return self.trace.trace_id if self.trace is not None else None


#: gateway ids, one per gateway construction (``next`` on a count is atomic)
_GATEWAY_IDS = itertools.count(1)


class _Timers:
    """Callbacks due at ``perf_counter`` times, run on one daemon thread.

    The gateway's only timer facility: request deadlines and retry backoff.
    The thread starts at the first :meth:`arm`, so a gateway that sets no
    deadline and retries nothing never starts it.  Callbacks must not
    raise; the gateway's finalize their request instead.
    """

    def __init__(self, name: str):
        self._name = name
        # heap of [due, seq, fn, args]; a cancelled or fired entry has fn None
        self._heap: list = []
        self._cancelled = 0
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self.closed = False

    def arm(self, due: float, fn, *args):
        """Run ``fn(*args)`` at ``due``; returns a callable that cancels it.
        Once shut down, runs ``fn`` at once on the calling thread."""
        entry = [due, next(self._seq), fn, args]
        with self._cond:
            closed = self.closed
            if not closed:
                heapq.heappush(self._heap, entry)
                if self._thread is None:
                    self._thread = threading.Thread(
                        target=self._run, name=self._name, daemon=True
                    )
                    self._thread.start()
                elif self._heap[0] is entry:
                    self._cond.notify()
        if closed:
            fn(*args)
        return partial(self._cancel, entry)

    def _cancel(self, entry: list) -> None:
        with self._cond:
            if entry[2] is None:
                return  # fired already
            entry[2:] = [None, ()]
            self._cancelled += 1
            if self._cancelled > len(self._heap) // 2:
                # drop cancelled deadlines rather than hold them until due
                self._heap = [e for e in self._heap if e[2] is not None]
                heapq.heapify(self._heap)
                self._cancelled = 0

    def _run(self) -> None:
        with self._cond:
            while not self.closed:
                wait_s = self._heap[0][0] - time.perf_counter() if self._heap else None
                if wait_s is None or wait_s > 0:
                    self._cond.wait(wait_s)
                    continue
                entry = heapq.heappop(self._heap)
                fn, args = entry[2], entry[3]
                entry[2:] = [None, ()]
                if fn is None:
                    self._cancelled -= 1
                    continue
                self._cond.release()
                try:
                    fn(*args)
                finally:
                    self._cond.acquire()

    def shutdown(self) -> None:
        """Stop the thread, then run what is still armed, in due order, on
        the calling thread (a retry then fails against the closed backend)."""
        with self._cond:
            self.closed = True
            armed, self._heap = sorted(self._heap), []
            self._cond.notify()
        if self._thread is not None:
            self._thread.join(timeout=5)
        for _due, _seq, fn, args in armed:
            if fn is not None:
                fn(*args)


class MeteringGateway:
    """A live multi-tenant metering service over the two-way sandbox."""

    def __init__(
        self,
        workers: int = 1,
        pool: str = "process",
        config: SandboxConfig | None = None,
        backend: ExecutionBackend | None = None,
        resilience: ResiliencePolicy | None = None,
        fault_plan: FaultPlan | None = None,
        preempt_after: int | None = None,
        seal_window: int | None = None,
    ):
        if seal_window is not None and seal_window < 1:
            raise ValueError("seal_window must be >= 1")
        if preempt_after is not None and preempt_after < 1:
            # a slice that executes nothing re-captures at the same point
            # forever, signing zero-usage checkpoints without progress
            raise ValueError("preempt_after must be >= 1")
        self.config = config or SandboxConfig()
        #: Batched receipt sealing: with ``seal_window=N`` each tenant's AE
        #: signs one Merkle root per N receipts (flushed at epoch seals)
        #: instead of one RSA op per request; ``None`` keeps the paper's
        #: per-receipt signing byte-identical to previous behaviour.
        self.seal_window = seal_window
        #: Budget-boundary preemption: when set, every dispatched slice
        #: suspends after this many further executed instructions; the
        #: gateway signs a checkpoint receipt for the consumed delta and
        #: re-dispatches the snapshot (possibly onto another worker).
        self.preempt_after = preempt_after
        #: Process-unique telemetry identity: every event this gateway (and
        #: its ledger) emits is stamped ``gateway=<id>``, so a shared event
        #: log can be sliced per gateway — e.g. one drift audit per sweep
        #: point of a multi-gateway load test.
        self.gateway_id = f"gw-{next(_GATEWAY_IDS)}"
        #: Failure-handling policy.  The default retries transient worker
        #: crashes a couple of times and enforces no deadline — fault-free
        #: behaviour (and its signed vectors) is byte-identical to a gateway
        #: with no policy at all.
        self.resilience = resilience or ResiliencePolicy()
        #: Chaos-testing hook: when set, outgoing tasks are stamped with the
        #: plan's fault for their request id (``repro loadtest --faults``).
        self.fault_plan = fault_plan
        self._recorder = LifecycleRecorder(self.gateway_id)
        self.platform = SGXPlatform(platform_id="gateway-0")
        self.attestation_service = AttestationService()
        weight_table = self.config.weight_table()
        self.ie = InstrumentationEnclave(weight_table=weight_table, level=self.config.level)
        self.platform.launch(self.ie)
        self.qe = QuotingEnclave()
        self.platform.launch(self.qe)
        self.attestation_service.provision(self.qe)
        self.cache = InstrumentationCache(self.ie)
        #: A process pool shrinks to the cores available (see
        #: :class:`WorkerPool`); :meth:`stats` shows both counts.
        self.requested_workers = workers
        self.backend: ExecutionBackend = backend or WasmBackend(
            WorkerPool(workers=workers, kind=pool)
        )
        inner_pool = getattr(self.backend, "pool", None)
        self.effective_workers = getattr(inner_pool, "workers", workers)
        self.admission = AdmissionController()
        self.ledger = BillingLedger(owner=self.gateway_id)
        self._tenants: dict[str, _Tenant] = {}
        #: Requests admitted so far; the last request id minted (ids run
        #: 1, 2, 3, … per gateway).
        self._requests = 0
        self._id_lock = threading.Lock()
        self._timers = _Timers(name=f"{self.gateway_id}-timers")

    # -- tenant lifecycle --------------------------------------------------------

    def register_tenant(
        self,
        tenant_id: str,
        module: Module | None = None,
        minic: str | None = None,
        wat: str | None = None,
        quota: TenantQuota | None = None,
    ) -> None:
        """Admit a tenant: instrument their module (cached), launch and
        attest their accounting enclave, and open their ledger chain."""
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} already registered")
        if module is None:
            if minic is not None:
                from repro.minic import compile_source

                module = compile_source(minic)
            elif wat is not None:
                from repro.wasm.wat_parser import parse_wat

                module = parse_wat(wat)
            else:
                raise ValueError("register_tenant needs a module, minic= or wat=")

        with obs_span("gateway.register_tenant", tenant=tenant_id):
            self._register_tenant(tenant_id, module, quota)

    def _register_tenant(
        self, tenant_id: str, module: Module, quota: TenantQuota | None
    ) -> None:
        instrumented, evidence, _counter_export = self.cache.instrument(module)
        ae = AccountingEnclave(
            ie_public_key=self.ie.evidence_public_key,
            ie_measurement=self.ie.mrenclave,
            weight_table=self.config.weight_table(),
            memory_policy=self.config.memory_policy,
            key_seed=self._tenant_key_seed(tenant_id),
            limits=ExecutionLimits(max_instructions=self.config.max_instructions),
            engine=self.config.engine,
            batch_window=self.seal_window,
        )
        self.platform.launch(ae)
        try:
            self._attest(ae, tenant_id)
            ae.load_workload(instrumented, evidence)
        except BaseException:
            self.platform.destroy(ae)  # a refused AE keeps no key resident
            raise

        module_bytes = encode_module(instrumented)
        if instrumented.memories:
            limits = instrumented.memories[0].limits
            pages = limits.maximum if limits.maximum is not None else limits.minimum
        else:
            pages = 0
        tenant = _Tenant(
            tenant_id=tenant_id,
            ae=ae,
            module_bytes=module_bytes,
            module_hash=sha256(module_bytes),
            counter_index=evidence.counter_global_index,
            memory_required_bytes=pages * PAGE_SIZE,
        )
        self._tenants[tenant_id] = tenant
        self.admission.register(tenant_id, quota or TenantQuota())
        self.ledger.register_tenant(tenant_id, ae.log_public_key)

    @staticmethod
    def _tenant_key_seed(tenant_id: str) -> int:
        # deterministic but tenant-unique AE signing keys
        return int.from_bytes(sha256(b"tenant-ae:" + tenant_id.encode())[:6], "big") | 1

    def _attest(self, ae: AccountingEnclave, tenant_id: str) -> None:
        nonce = sha256(b"gateway-attest:" + tenant_id.encode())[:16]
        if not challenge_enclave(
            ae, self.qe, self.attestation_service, nonce, ae.report_data_binding()
        ):
            raise AttestationError(
                f"accounting enclave for tenant {tenant_id!r} failed attestation"
            )

    # -- request path ------------------------------------------------------------

    def _mint_request_id(self) -> int:
        with self._id_lock:
            self._requests += 1
            return self._requests

    def submit(
        self,
        tenant_id: str,
        export: str,
        *args,
        input_data: bytes = b"",
        label: str = "",
    ) -> "Future[GatewayResponse]":
        """Admit and dispatch one request; resolves to a signed response.

        Raises a typed :class:`~repro.service.quota.AdmissionError`
        *synchronously* when the tenant is over quota — rejected requests
        never reach the pool.  The first hop is dispatched here, in the
        caller's thread; every later step runs on a thread that already
        exists (see :meth:`_advance`).  Post-admission failures resolve the
        future to a typed :class:`~repro.service.faults.GatewayFailure`,
        transient worker crashes are retried (same ``request_id``,
        exponential backoff with deterministic jitter) within
        :attr:`resilience`'s budget, a wall-clock deadline is enforced by a
        timer armed only when one is set (a late worker result is dropped
        unbilled), and meter readings are sanity-validated before the
        tenant's accounting enclave signs them.  Whatever happens, the
        request is billed at most once and its admission slot is settled
        exactly once.
        """
        if self._timers.closed:
            raise RuntimeError("gateway is shut down")
        req_span = obs_span(
            "gateway.request", detached=True, tenant=tenant_id, export=export
        )
        try:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                raise UnknownTenant(f"tenant {tenant_id!r} is not registered")
            with obs_span("gateway.admit", parent=req_span, tenant=tenant_id):
                self.admission.admit(tenant_id, tenant.memory_required_bytes)
        except AdmissionError as exc:
            self._recorder.record("reject", tenant_id, req_span, {"code": exc.code})
            raise
        except BaseException:
            req_span.end()
            raise
        request_id = self._mint_request_id()
        # trace identity and the worker's sink set; None when no sink is on
        ctx = TraceContext.mint(
            self.gateway_id, request_id, parent_span_id=getattr(req_span, "span_id", 0)
        )
        submitted = time.perf_counter()
        state = _RequestState(
            request_id=request_id,
            tenant=tenant,
            label=label or export,
            response=Future(),
            span=req_span,
            submitted=submitted,
            deadline=(
                submitted + self.resilience.deadline_s
                if self.resilience.deadline_s is not None
                else None
            ),
            trace=ctx,
        )
        self._transition(state, "admit")
        fault = (
            self.fault_plan.fault_for(request_id) if self.fault_plan is not None else None
        )
        task = ExecutionTask(
            module_bytes=tenant.module_bytes,
            module_hash=tenant.module_hash,
            counter_global_index=tenant.counter_index,
            export=export,
            args=args,
            input_data=input_data,
            engine=self.config.engine,
            max_instructions=self.config.max_instructions,
            snapshot_at=self.preempt_after,
            trace=ctx.to_wire() if ctx is not None else None,
            fault=fault,
            fault_arg=self.fault_plan.fault_arg(fault) if fault is not None else 0.0,
        )
        if fault is not None:
            self._transition(state, "fault_injected", fault=fault)
        if state.deadline is not None:
            state.disarm = self._timers.arm(
                state.deadline, self._deadline_exceeded_now, state
            )
        self._advance(state, task)
        return state.response

    def _transition(self, state: _RequestState, kind: str, **fields) -> None:
        """Record one lifecycle transition of an admitted request."""
        fields["request_id"] = state.request_id
        fields["trace_id"] = state.trace_id
        self._recorder.record(kind, state.tenant.tenant_id, state.span, fields)

    # -- the request path: callbacks on the threads results land on ------------

    def _advance(
        self,
        state: _RequestState,
        task: ExecutionTask,
        attempt: int = 0,
        inner: "Future[WorkerResult] | None" = None,
    ) -> None:
        """Dispatch ``task`` (unless ``inner``, its pool future, is given)
        and account its result: settle, dispatch the next slice, arm a retry
        or finalize.  Runs in :meth:`submit`'s thread, as the pool future's
        done-callback wherever it resolves (the pool's pump or a pool or
        backend thread) and on the timer thread after a backoff; a future
        already done loops here rather than nesting a callback.
        Never raises (``concurrent.futures`` would log it and strand the
        response): whatever escapes finalizes the request.
        """
        try:
            while True:
                if state.finalized:
                    # the deadline landed first: nothing more is dispatched,
                    # and a late result (or failure) is dropped unbilled
                    return
                if inner is None:
                    if state.past_deadline():
                        self._deadline_exceeded_now(state)
                        return
                    inner = self._submit(task)
                if not inner.done():
                    inner.add_done_callback(partial(self._advance, state, task, attempt))
                    return
                failure = inner.exception()
                if failure is not None:
                    self._task_failed(state, task, attempt, failure)
                    return
                worker_result = inner.result()
                apply_slice(
                    worker_result.record,
                    state.span,
                    trace_id=state.trace_id,
                    export=task.export,
                    hop=state.trace.hop if state.trace is not None else 0,
                    gateway=self.gateway_id,
                    request_id=state.request_id,
                )
                step = self._sign_and_record(state, task, worker_result)
                if step is None:
                    return
                (task, inner), attempt = step, 0
        except BaseException as exc:  # noqa: BLE001 - never strand the future
            self._finalize_failure(state, exc)

    def _submit(self, task: ExecutionTask) -> "Future[WorkerResult]":
        """Hand ``task`` to the backend; a ``submit`` that raises comes back
        as a failed future, classified like any worker failure."""
        try:
            return self.backend.submit(task)
        except Exception as exc:  # noqa: BLE001 - classified by the caller
            inner: "Future[WorkerResult]" = Future()
            inner.set_exception(exc)
            return inner

    def _task_failed(
        self, state: _RequestState, task: ExecutionTask, attempt: int, exc: BaseException
    ) -> None:
        """Classify one failure: arm its retry after the backoff, or
        finalize the request."""
        if is_transient(exc) and attempt < self.resilience.max_retries:
            with state.lock:
                if state.finalized:
                    return
                self._transition(state, "retry", attempt=attempt + 1)
            # retries reuse the request id (exactly-once billing)
            clean = self._redispatch(state, task)
            delay = self.resilience.backoff_s(state.request_id, attempt)
            remaining = state.remaining()
            # a retry due past the deadline is never armed: the deadline
            # timer settles the request first
            if remaining is None or delay < remaining:
                self._timers.arm(
                    time.perf_counter() + delay, self._advance, state, clean, attempt + 1
                )
            return
        if is_transient(exc):
            exc = RetriesExhausted(
                f"request {state.request_id} failed after {attempt + 1} attempts; "
                f"last error: {exc}"
            )
        self._finalize_failure(state, exc)

    def _redispatch(
        self, state: _RequestState, task: ExecutionTask, **changes
    ) -> ExecutionTask:
        """The next hop of ``task``: never re-injecting its fault (it
        already happened), under a re-minted trace hop."""
        if state.trace is not None:
            state.trace = state.trace.next_hop()
            changes["trace"] = state.trace.to_wire()
        return replace(task, fault=None, fault_arg=0.0, **changes)

    def _sign_and_record(
        self, state: _RequestState, task: ExecutionTask, worker_result: WorkerResult
    ) -> "tuple[ExecutionTask, Future[WorkerResult]] | None":
        """Validate one slice's readings, have the tenant's AE sign them,
        record the receipt, and either settle the request or return the
        task resuming it with that task's pool future.

        A final result (no snapshot) is signed for the delta past the
        checkpoints already billed, under the bare request id, and settles
        the request.  A preempted slice is signed as a checkpoint receipt
        for the delta since the last checkpoint under a derived id
        ``<id>#cpN`` — the ledger's exactly-once layer dedups each
        checkpoint individually, and the sum of a request's receipts equals
        the uninterrupted vector componentwise — and its snapshot is
        re-dispatched, free to land on any worker.  The next slice is
        dispatched *before* the checkpoint is signed, so a worker runs it
        while the AE signs; the caller attaches its done-callback only after
        this returns, so its result is never accounted before the checkpoint
        receipt and the billed baseline it follows exist.
        """
        raw = worker_result.raw
        problems = (
            validate_raw(raw, self.config.max_instructions)
            if self.resilience.validate_results
            else []
        )
        if problems:
            # a lying worker, not a failing one: reject, never sign, no retry
            if state.claim():
                self._transition(state, "result_rejected", problems=problems)
                self._fail_finalized(
                    state,
                    ResultRejected("implausible meter readings: " + "; ".join(problems)),
                )
            return None
        snapshot = worker_result.snapshot
        if snapshot is not None:
            task = self._redispatch(state, task, snapshot=snapshot)
            # past the deadline, nothing more is dispatched; the slice that
            # ran is still billed if the request has not settled yet
            inner = None if state.past_deadline() else self._submit(task)
            # under the request lock, so the deadline cannot settle the
            # request between this check and the checkpoint's record
            with state.lock:
                if state.finalized:
                    return None  # a slice dispatched above is dropped unbilled
                self._sign(state, raw, final=False)
                self._transition(
                    state, "checkpoint",
                    checkpoint=state.checkpoints, snapshot_bytes=len(snapshot),
                )
            if inner is None:
                self._deadline_exceeded_now(state)
                return None
            return task, inner
        if not state.claim():
            return None  # the deadline landed first: drop, unbilled
        tenant = state.tenant
        try:
            result, receipt = self._sign(state, raw, final=True)
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            self._fail_finalized(state, exc)
            return None
        # settle the slot for the request's full consumption: the final
        # receipt's delta plus everything the checkpoint receipts billed
        self.admission.settle(
            tenant.tenant_id, result.vector.weighted_instructions + state.billed[0]
        )
        latency_s = time.perf_counter() - state.submitted
        self._transition(state, "settled", outcome="ok", latency_s=latency_s)
        state.response.set_result(
            GatewayResponse(
                tenant_id=tenant.tenant_id,
                request_id=state.request_id,
                result=result,
                receipt=receipt,
                latency_s=latency_s,
                exec_wall_s=worker_result.exec_wall_s,
            )
        )
        return None

    def _sign(
        self, state: _RequestState, raw, final: bool
    ) -> tuple[WorkloadResult, Receipt]:
        """The tenant's AE signs one slice's delta past the billed baseline;
        the ledger records its receipt."""
        tenant = state.tenant
        trace_id = state.trace_id
        checkpoint = state.checkpoints + 1
        if final:
            request_id, span_name, span_attrs = state.request_id, "gateway.account", {}
        else:
            request_id = f"{state.request_id}#cp{checkpoint}"
            span_name = "gateway.checkpoint"
            span_attrs = {"checkpoint": checkpoint, "trace_id": trace_id}
        with obs_span(span_name, parent=state.span, tenant=tenant.tenant_id, **span_attrs):
            # narrow critical section: only the AE signing, the chain
            # append and the billed baseline are under the tenant lock; a
            # duplicate id is refused before the AE signs, so its log never
            # runs ahead of the ledger chain
            with tenant.lock:
                self.ledger.check_unbilled(tenant.tenant_id, request_id)
                result = tenant.ae.account_span(
                    raw,
                    label=state.label,
                    baseline=state.billed,
                    final=final,
                    trace_id=trace_id,
                )
                receipt = self.ledger.record(
                    tenant.tenant_id,
                    tenant.ae.log.entries[-1],
                    request_id=request_id,
                    trace_id=trace_id,
                )
                for batch in tenant.ae.log.drain_batches():
                    self.ledger.record_batch(tenant.tenant_id, batch)
                if not final:
                    state.checkpoints = checkpoint
                    state.billed = raw.billed
        return result, receipt

    def _deadline_exceeded_now(self, state: _RequestState) -> None:
        if state.claim():
            self._transition(state, "deadline_exceeded")
            self._fail_finalized(
                state,
                DeadlineExceeded(
                    f"request {state.request_id} exceeded its "
                    f"{self.resilience.deadline_s}s deadline"
                ),
            )

    def _finalize_failure(self, state: _RequestState, exc: BaseException) -> None:
        if state.claim():
            self._fail_finalized(state, exc)

    def _fail_finalized(self, state: _RequestState, exc: BaseException) -> None:
        """Failure bookkeeping once the state is claimed: settle the slot,
        end the span, resolve the future — each exactly once."""
        self.admission.settle(state.tenant.tenant_id, 0)
        self._transition(
            state,
            "settled",
            outcome=exc.code if isinstance(exc, GatewayFailure) else "error",
            latency_s=time.perf_counter() - state.submitted,
        )
        state.response.set_exception(exc)

    def resilience_stats(self) -> dict:
        """Counters for the failure-containment layer (chaos-run report)."""
        stats = self._recorder.counts()
        pool = getattr(self.backend, "pool", None)
        stats["pool_rebuilds"] = getattr(pool, "rebuilds", 0)
        stats["backend_kind"] = self.backend.kind
        return stats

    def execute(
        self,
        tenant_id: str,
        export: str,
        *args,
        input_data: bytes = b"",
        label: str = "",
    ) -> GatewayResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(
            tenant_id, export, *args, input_data=input_data, label=label
        ).result()

    # -- billing -----------------------------------------------------------------

    def seal_epoch(self) -> EpochSeal:
        """Seal all outstanding receipts; instruction budgets reset.

        In batched-sealing mode every tenant's pending receipt window is
        flushed first (one short batch each), so AE batches never straddle
        an epoch boundary and the sealed epoch verifies offline from the
        receipts plus the recorded batches alone.  Every tenant lock is
        held, in tenant-id order, across the flushes and the seal: a
        receipt recorded between its tenant's flush and the seal would
        otherwise be sealed without a covering batch.
        """
        with obs_span("gateway.seal_epoch"):
            with ExitStack() as held:
                tenants = [tenant for _tid, tenant in sorted(self._tenants.items())]
                for tenant in tenants:
                    held.enter_context(tenant.lock)
                if self.seal_window is not None:
                    for tenant in tenants:
                        tenant.ae.log.flush()
                        for batch in tenant.ae.log.drain_batches():
                            self.ledger.record_batch(tenant.tenant_id, batch)
                seal = self.ledger.seal_epoch()
            self.admission.reset_epoch()
            return seal

    def verify_epoch(self, seal: EpochSeal | None = None) -> EpochVerification:
        """Offline audit of an epoch (defaults to the most recent seal)."""
        if seal is None:
            if not self.ledger.seals:
                raise ValueError("no epoch sealed yet")
            seal = self.ledger.seals[-1]
        receipts = {
            span.tenant_id: self.ledger.epoch_receipts(seal, span.tenant_id)
            for span in seal.spans
        }
        keys = {span.tenant_id: self.ledger.ae_key(span.tenant_id) for span in seal.spans}
        batches = {
            span.tenant_id: self.ledger.batches(span.tenant_id) for span in seal.spans
        }
        previous = self.ledger.seals[seal.epoch - 1] if seal.epoch > 0 else None
        verdict = verify_epoch(
            seal,
            receipts,
            keys,
            self.ledger.public_key,
            previous_seal=previous,
            batches_by_tenant=batches,
        )
        emit_event(
            "epoch_audit",
            gateway=self.gateway_id,
            epoch=verdict.epoch,
            outcome="ok" if verdict.ok else "failed",
            receipts_checked=verdict.receipts_checked,
            errors=len(verdict.errors),
        )
        return verdict

    def totals(self, tenant_id: str | None = None) -> ResourceVector:
        """Aggregate usage — one tenant's, or across the whole gateway."""
        tenants = sorted(self._tenants) if tenant_id is None else [tenant_id]
        return totals_of(r.entry for tid in tenants for r in self.ledger.receipts(tid))

    # -- operations --------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "backend": self.backend.kind,
            "tenants": len(self._tenants),
            "requests": self._requests,
            "epochs_sealed": len(self.ledger.seals),
            "seal_window": self.seal_window,
            "workers": {
                "requested": self.requested_workers,
                "effective": self.effective_workers,
                "cores_available": cores_available(),
            },
            "cache": self.cache.stats(),
            "resilience": self.resilience_stats(),
            "admission": {
                tid: self.admission.stats(tid) for tid in sorted(self._tenants)
            },
        }

    def shutdown(self) -> None:
        self.backend.shutdown()
        self._timers.shutdown()

    def __enter__(self) -> "MeteringGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
