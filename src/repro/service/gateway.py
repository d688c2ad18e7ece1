"""The metering gateway façade: many tenants, one attested platform.

One :class:`MeteringGateway` is what the paper's infrastructure provider
runs: a single SGX platform hosting one instrumentation enclave (shared,
with its instrumented-module cache) and **one accounting enclave per
tenant**, so every tenant's receipts carry their own attested signing key
and no tenant can be billed for another's work.  Requests fan out to an
execution backend (worker processes by default) and come back as raw meter
readings; the tenant's AE signs each into a receipt, and the billing ledger
seals receipts into Merkle-rooted epochs.

Each request transition records its telemetry through the table in
:mod:`repro.service.lifecycle`; the load driver behind ``repro loadtest``,
``repro serve`` and ``repro top`` lives in :mod:`repro.service.load`.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

from repro.core.accounting_enclave import AccountingEnclave, WorkloadResult
from repro.core.cache import InstrumentationCache
from repro.core.instrumentation_enclave import InstrumentationEnclave
from repro.core.resource_log import ResourceUsageLog, ResourceVector
from repro.core.sandbox import SandboxConfig
from repro.obs.context import TraceContext, env_sample_rate
from repro.obs.events import emit as emit_event
from repro.obs.events import events_enabled
from repro.obs.instruments import TRACE_BACKHAUL_BYTES, TRACE_SPANS_DROPPED
from repro.obs.metrics import get_registry
from repro.obs.trace import Span, get_tracer, tracing_enabled
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
from repro.service.sharding import DEFAULT_SHARDS, shard_index_for
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
    remote_attest,
    verify_service_report,
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
    shard: int = 0
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
    """One admitted request's lifecycle, owned by its serving coroutine.

    ``finalized`` is the exactly-once gate: whichever of {worker result,
    deadline, terminal failure} claims it first settles the admission slot,
    ends the span and resolves the future — and only the claimant may sign
    a receipt, so a result arriving after its deadline is dropped unbilled.
    The whole lifecycle runs on the front-end event loop, so the claim is
    a belt-and-braces invariant rather than a race arbiter.
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
    #: preemption bookkeeping: checkpoint receipts signed so far, and the
    #: (counter, io_in, io_out) totals they billed — the final receipt
    #: bills only the delta past this baseline (both mutated under the
    #: tenant lock, alongside the checkpoint signing they describe)
    checkpoints: int = 0
    billed: tuple = (0, 0, 0)
    #: distributed-trace context for this request (``None`` when neither
    #: tracing nor events are on); re-minted to the next hop on every
    #: checkpoint re-dispatch and retry, always on the single serving
    #: coroutine for the request, so no extra locking is needed
    trace: "TraceContext | None" = None

    def claim(self) -> bool:
        with self.lock:
            if self.finalized:
                return False
            self.finalized = True
            return True

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    @property
    def trace_id(self) -> str | None:
        return self.trace.trace_id if self.trace is not None else None


# gateway ids are minted once per gateway construction — cold path, unlike
# request ids, which are minted per shard on the submit hot path
_GATEWAY_SEQ = 0
_GATEWAY_SEQ_LOCK = threading.Lock()


def _next_gateway_id() -> str:
    global _GATEWAY_SEQ
    with _GATEWAY_SEQ_LOCK:
        _GATEWAY_SEQ += 1
        return f"gw-{_GATEWAY_SEQ}"


class _AsyncFrontend:
    """The gateway's event loop, run on one daemon thread.

    Admission stays synchronous in the caller's thread; everything after —
    dispatch, deadline watch, retry backoff, checkpoint re-dispatch,
    accounting — is one coroutine per request on this loop.  Replaces the
    two-timers-per-request scheme (a ``threading.Timer`` watchdog plus
    backoff timers), whose thread churn was part of the multi-worker cliff.
    """

    def __init__(self, name: str):
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        # coroutines enqueued but not yet scheduled on the loop: waking the
        # loop costs a self-pipe write per call, so bursts of submits share
        # one wake-up (the scheduled drain empties the whole queue)
        self._pending: list = []
        self._pending_lock = threading.Lock()
        self._drain_scheduled = False
        self._thread.start()
        self._started.wait()
        self.closed = False

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        self._loop.run_forever()

    def spawn(self, coro) -> None:
        """Schedule one request-serving coroutine from any thread."""
        self._enqueue(coro)

    def post(self, fn) -> None:
        """Run a plain callable on the loop, sharing the batched wake-up."""
        self._enqueue(fn)

    def bridge(self, inner: Future) -> "asyncio.Future":
        """An asyncio future (on this loop) resolved when ``inner`` completes.

        Replaces :func:`asyncio.wrap_future` on the hot path: the pool's
        done-callback goes through the batched wake queue instead of
        paying one self-pipe write per completion.  The bridged future
        carries no result or exception — callers classify the outcome via
        the pool future itself — so an abandoned (post-deadline) waiter
        never triggers "exception was never retrieved".  Must be called
        from the loop thread.
        """
        fut = self._loop.create_future()

        def _resolve() -> None:
            if not fut.done():
                fut.set_result(None)

        inner.add_done_callback(lambda _f: self.post(_resolve))
        return fut

    def _enqueue(self, item) -> None:
        if self.closed:  # pragma: no cover - late completion after shutdown
            return
        with self._pending_lock:
            self._pending.append(item)
            wake = not self._drain_scheduled
            if wake:
                self._drain_scheduled = True
        if wake:
            try:
                self._loop.call_soon_threadsafe(self._drain)
            except RuntimeError:  # pragma: no cover - loop closed mid-enqueue
                pass

    def _drain(self) -> None:
        while True:
            with self._pending_lock:
                pending, self._pending = self._pending, []
                if not pending:
                    self._drain_scheduled = False
                    return
            for item in pending:
                if callable(item):  # coroutine objects are not callable
                    item()
                else:
                    self._loop.create_task(item)

    def shutdown(self) -> None:
        if self.closed:
            return
        self.closed = True
        with self._pending_lock:
            pending, self._pending = self._pending, []
        for item in pending:  # pragma: no cover - shutdown race
            if not callable(item):
                item.close()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        if not self._thread.is_alive():
            self._loop.close()


class MeteringGateway:
    """A live multi-tenant metering service over the two-way sandbox."""

    def __init__(
        self,
        workers: int = 1,
        pool: str = "process",
        config: SandboxConfig | None = None,
        backend: ExecutionBackend | None = None,
        cache_entries: int | None = 256,
        resilience: ResiliencePolicy | None = None,
        fault_plan: FaultPlan | None = None,
        preempt_after: int | None = None,
        warm_pool: bool = False,
        trace_sample: float | None = None,
        seal_window: int | None = None,
        shards: int = DEFAULT_SHARDS,
        adaptive: bool = True,
    ):
        if seal_window is not None and seal_window < 1:
            raise ValueError("seal_window must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = config or SandboxConfig()
        #: Batched receipt sealing: with ``seal_window=N`` each tenant's AE
        #: signs one Merkle root per N receipts (flushed at epoch seals)
        #: instead of one RSA op per request; ``None`` keeps the paper's
        #: per-receipt signing byte-identical to previous behaviour.
        self.seal_window = seal_window
        #: Tenant-hash shard count for admission state, the ledger, and
        #: request-id minting (see :mod:`repro.service.sharding`).
        self.shards = shards
        #: Head-sampling rate for the worker telemetry backhaul, in [0, 1].
        #: Defaults to ``REPRO_TRACE_SAMPLE`` (1.0 when unset).  Sampling
        #: gates only the backhaul: trace ids are minted (and stamped onto
        #: receipts/events) for every request once tracing or events are on.
        self.trace_sample = (
            env_sample_rate()
            if trace_sample is None
            else min(1.0, max(0.0, trace_sample))
        )
        #: Budget-boundary preemption: when set, every dispatched slice
        #: suspends after this many further executed instructions; the
        #: gateway signs a checkpoint receipt for the consumed delta and
        #: re-dispatches the snapshot (possibly onto another worker).
        self.preempt_after = preempt_after
        #: Serve requests from per-worker warm pools (instantiate once,
        #: reset a pooled instance per request) instead of instantiating
        #: per request.
        self.warm_pool = warm_pool
        #: Process-unique telemetry identity: every event this gateway (and
        #: its ledger) emits is stamped ``gateway=<id>``, so a shared event
        #: log can be sliced per gateway — e.g. one drift audit per sweep
        #: point of a multi-gateway load test.
        self.gateway_id = _next_gateway_id()
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
        self.cache = InstrumentationCache(self.ie, max_entries=cache_entries)
        #: Adaptive worker sizing: a process pool is shrunk to the cores
        #: actually available — oversubscription is the other half of the
        #: multi-worker cliff (4 CPU-bound workers on 1 core run slower
        #: than 1).  The requested count stays visible in :meth:`stats`.
        self.requested_workers = workers
        self.backend: ExecutionBackend = backend or WasmBackend(
            WorkerPool(workers=workers, kind=pool, adaptive=adaptive)
        )
        inner_pool = getattr(self.backend, "pool", None)
        self.effective_workers = getattr(inner_pool, "workers", workers)
        self.admission = AdmissionController(shards=shards)
        self.ledger = BillingLedger(owner=self.gateway_id, shards=shards)
        self._tenants: dict[str, _Tenant] = {}
        # per-shard request-id minting: shard s hands out s+1, s+1+shards,
        # s+1+2*shards, … — globally unique ints with no cross-shard lock
        self._id_counters = [0] * shards
        self._id_locks = [threading.Lock() for _ in range(shards)]
        self._frontend = _AsyncFrontend(name=f"{self.gateway_id}-frontend")

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
        self._attest(ae, tenant_id)
        ae.load_workload(instrumented, evidence)

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
            shard=shard_index_for(tenant_id, self.shards),
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
        user_data = ae.report_data_binding()
        verdict = remote_attest(ae, self.qe, self.attestation_service, nonce, user_data)
        ok = (
            verdict.ok
            and verify_service_report(self.attestation_service.public_key, verdict)
            and verdict.quote.mrenclave == ae.mrenclave
            and sha256(sha256(nonce + user_data)) == sha256(verdict.quote.report_data)
        )
        if not ok:
            raise AttestationError(
                f"accounting enclave for tenant {tenant_id!r} failed attestation"
            )

    # -- request path ------------------------------------------------------------

    def _mint_request_id(self, shard: int) -> int:
        with self._id_locks[shard]:
            n = self._id_counters[shard]
            self._id_counters[shard] = n + 1
        return n * self.shards + shard + 1

    @property
    def _requests(self) -> int:
        """Requests admitted so far (sum over the shard counters)."""
        return sum(self._id_counters)

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
        never reach the pool.  Everything after admission is one coroutine
        on the gateway's event loop: post-admission failures resolve the
        future to a typed :class:`~repro.service.faults.GatewayFailure`,
        transient worker crashes are retried (same ``request_id``,
        exponential backoff with deterministic jitter) within
        :attr:`resilience`'s budget, a wall-clock deadline is enforced by
        the serving coroutine (a late worker result is dropped unbilled),
        and meter readings are sanity-validated before the tenant's
        accounting enclave signs them.  Whatever happens, the request is
        billed at most once and its admission slot is settled exactly once.
        """
        if self._frontend.closed:
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
        request_id = self._mint_request_id(tenant.shard)
        # trace identity: minted once per admitted request whenever anyone
        # is watching (tracer or event log); obs-off runs skip it entirely
        ctx: TraceContext | None = None
        if tracing_enabled() or events_enabled():
            ctx = TraceContext.mint(
                self.gateway_id,
                request_id,
                sample_rate=self.trace_sample,
                parent_span_id=getattr(req_span, "span_id", 0),
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
        self._transition(state, "admit", sampled=ctx.sampled if ctx else None)
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
            warm=self.warm_pool,
            trace=ctx.to_wire() if ctx is not None and ctx.sampled else None,
            fault=fault,
            fault_arg=self.fault_plan.fault_arg(fault) if fault is not None else 0.0,
        )
        if fault is not None:
            self._transition(state, "fault_injected", fault=fault)
        self._frontend.spawn(self._serve(state, task))
        return state.response

    def _transition(self, state: _RequestState, kind: str, **fields) -> None:
        """Record one lifecycle transition of an admitted request."""
        fields["request_id"] = state.request_id
        fields["trace_id"] = state.trace_id
        self._recorder.record(kind, state.tenant.tenant_id, state.span, fields)

    # -- the resilient serving coroutine -----------------------------------------

    async def _serve(self, state: _RequestState, task: ExecutionTask) -> None:
        """One request's whole post-admission lifecycle as a coroutine.

        Dispatch, the deadline watch, retry backoff, checkpoint
        re-dispatch and final accounting all run here, on the front-end
        loop — workers stay processes (or threads), and their results come
        back through the pool future the coroutine awaits.
        """
        attempt = 0
        try:
            while True:
                remaining = state.remaining()
                if remaining is not None and remaining <= 0:
                    self._deadline_exceeded_now(state)
                    return
                try:
                    inner = self.backend.submit(task)
                except BaseException as exc:  # noqa: BLE001 - classified below
                    failure = exc
                else:
                    if not await self._await_result(inner, remaining):
                        # the deadline landed first: the late result (or
                        # hang) is abandoned, never accounted, never billed
                        self._deadline_exceeded_now(state)
                        return
                    failure = inner.exception()
                if failure is not None:
                    task = await self._task_failed(state, task, attempt, failure)
                    if task is None:
                        return
                    attempt += 1
                    continue
                worker_result = inner.result()
                if worker_result.telemetry:
                    self._merge_telemetry(state, worker_result.telemetry)
                task = self._sign_and_record(state, task, worker_result)
                if task is None:
                    return
                attempt = 0
        except BaseException as exc:  # noqa: BLE001 - never strand the future
            self._finalize_failure(state, exc)

    async def _await_result(self, inner: Future, remaining: float | None) -> bool:
        """Await the pool future; False when the deadline expires first.

        Uses :func:`asyncio.wait` rather than ``wait_for`` so a timeout
        never cancels the pool future — the worker may still be running,
        and pool bookkeeping (slot release, backlog drain) must proceed;
        the result is simply dropped, exactly as the old watchdog did.
        """
        if inner.done():  # fast workers beat the coroutine here
            return True
        waiter = self._frontend.bridge(inner)
        if remaining is None:
            # no deadline: a bare await skips asyncio.wait's task setup;
            # the caller classifies failures via inner.exception()
            await waiter
            return True
        done, _pending = await asyncio.wait({waiter}, timeout=remaining)
        return bool(done)

    def _merge_telemetry(self, state: _RequestState, telemetry: dict) -> None:
        """Fold one worker capture into the gateway's tracer/log/registry.

        Spans keep their origin pid and land re-parented under the request
        span (one stitched trace per request, however many workers served
        its hops).  Worker events re-emit through the gateway log — fresh,
        strictly monotonic ``seq``; the worker's own clock and pid ride
        along as fields — so JSONL replay order stays deterministic.
        Metric deltas are applied only when the capture crossed a process
        boundary: a thread-pool worker's direct increments already landed
        in the shared registry, and replaying them would double-count.
        """
        trace_id = telemetry.get("trace_id")
        origin_pid = int(telemetry.get("pid", 0))
        TRACE_BACKHAUL_BYTES.observe(float(len(json.dumps(telemetry, default=str))))
        dropped = int(telemetry.get("spans_dropped", 0)) + int(
            telemetry.get("events_dropped", 0)
        )
        if dropped:
            TRACE_SPANS_DROPPED.inc(dropped)
        tracer = get_tracer()
        if tracer is not None and telemetry.get("spans"):
            parent = state.span if isinstance(state.span, Span) else None
            tracer.ingest(
                telemetry["spans"], parent=parent, pid=origin_pid, trace_id=trace_id
            )
        for record in telemetry.get("events", ()):
            fields = dict(record.get("fields", ()))
            fields.update(
                gateway=self.gateway_id,
                request_id=state.request_id,
                trace_id=trace_id,
                origin_pid=origin_pid,
                worker_ts_s=record.get("ts_s"),
            )
            emit_event(record["kind"], **fields)
        if origin_pid != os.getpid():
            registry = get_registry()
            for delta in telemetry.get("metrics", ()):
                name, kind, value, labels = delta
                metric = registry.get(name)
                if metric is None:
                    continue
                if kind == "histogram":
                    metric.observe(value, **dict(labels))
                else:
                    metric.inc(value, **dict(labels))

    async def _task_failed(
        self,
        state: _RequestState,
        task: ExecutionTask,
        attempt: int,
        exc: BaseException,
    ) -> ExecutionTask | None:
        """Classify one failure; returns the retry task after awaiting its
        backoff, or ``None`` once the request is finalized."""
        if is_transient(exc) and attempt < self.resilience.max_retries:
            self._transition(state, "retry", attempt=attempt + 1)
            # retries reuse the request id (exactly-once billing)
            clean = self._redispatch(state, task)
            delay = self.resilience.backoff_s(state.request_id, attempt)
            remaining = state.remaining()
            if remaining is not None and delay >= remaining:
                # the deadline lands before the retry could dispatch
                if remaining > 0:
                    await asyncio.sleep(remaining)
                self._deadline_exceeded_now(state)
                return None
            await asyncio.sleep(delay)
            return clean
        if is_transient(exc):
            exc = RetriesExhausted(
                f"request {state.request_id} failed after {attempt + 1} attempts; "
                f"last error: {exc}"
            )
        self._finalize_failure(state, exc)
        return None

    def _redispatch(
        self, state: _RequestState, task: ExecutionTask, **changes
    ) -> ExecutionTask:
        """The next hop of ``task``: never re-injecting its fault (it
        already happened), under a re-minted trace hop."""
        task = replace(task, fault=None, fault_arg=0.0, **changes)
        if state.trace is not None:
            state.trace = state.trace.next_hop()
            if state.trace.sampled:
                task = replace(task, trace=state.trace.to_wire())
        return task

    def _sign_and_record(
        self, state: _RequestState, task: ExecutionTask, worker_result: WorkerResult
    ) -> ExecutionTask | None:
        """Have the tenant's AE sign one slice, record its receipt, and
        either settle the request or return the task resuming it.

        A final result (no snapshot) is signed for the delta past the
        checkpoints already billed, under the bare request id, and settles
        the request.  A preempted slice is signed as a checkpoint receipt
        for the delta since the last checkpoint under a derived id
        ``<id>#cpN`` — the ledger's exactly-once layer dedups each
        checkpoint individually, and the sum of a request's receipts equals
        the uninterrupted vector componentwise — and its snapshot is
        re-dispatched, free to land on any worker.
        """
        raw = worker_result.raw
        final = worker_result.snapshot is None
        problems = (
            validate_raw(raw, self.config.max_instructions)
            if self.resilience.validate_results
            else []
        )
        if problems:
            # a lying worker, not a failing one: reject, never sign, no retry
            self._transition(state, "result_rejected")
            self._finalize_failure(
                state, ResultRejected("implausible meter readings: " + "; ".join(problems))
            )
            return None
        if final and not state.claim():
            return None  # already finalized (belt and braces): drop, unbilled
        tenant = state.tenant
        trace_id = state.trace_id
        checkpoint = state.checkpoints + 1
        if final:
            request_id, span_name, span_attrs = state.request_id, "gateway.account", {}
        else:
            request_id = f"{state.request_id}#cp{checkpoint}"
            span_name = "gateway.checkpoint"
            span_attrs = {"checkpoint": checkpoint, "trace_id": trace_id}
        try:
            with obs_span(
                span_name, parent=state.span, tenant=tenant.tenant_id, **span_attrs
            ):
                # narrow critical section: only the AE signing, the chain
                # append and the billed baseline are under the tenant lock
                with tenant.lock:
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
                        state.billed = (
                            raw.counter_value,
                            raw.io_bytes_in,
                            raw.io_bytes_out,
                        )
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            if final:
                self._fail_finalized(state, exc)
            else:
                self._finalize_failure(state, exc)
            return None
        if not final:
            self._transition(
                state,
                "checkpoint",
                checkpoint=checkpoint,
                snapshot_bytes=len(worker_result.snapshot),
            )
            return self._redispatch(state, task, snapshot=worker_result.snapshot)
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

    def _deadline_exceeded_now(self, state: _RequestState) -> None:
        if not state.claim():
            return
        self._transition(state, "deadline_exceeded")
        self._fail_finalized(
            state,
            DeadlineExceeded(
                f"request {state.request_id} exceeded its "
                f"{self.resilience.deadline_s}s deadline"
            ),
        )

    def _finalize_failure(self, state: _RequestState, exc: BaseException) -> None:
        if not state.claim():
            return
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
        receipts plus the recorded batches alone.
        """
        with obs_span("gateway.seal_epoch"):
            if self.seal_window is not None:
                for tenant in self._tenants.values():
                    with tenant.lock:
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
        if tenant_id is not None:
            return self.ledger.totals(tenant_id)
        log = ResourceUsageLog(signing_key=None)
        log.entries = [
            receipt.entry
            for tid in sorted(self._tenants)
            for receipt in self.ledger.receipts(tid)
        ]
        return log.totals()

    # -- operations --------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "backend": self.backend.kind,
            "tenants": len(self._tenants),
            "requests": self._requests,
            "epochs_sealed": len(self.ledger.seals),
            "shards": self.shards,
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
        self._frontend.shutdown()

    def __enter__(self) -> "MeteringGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
