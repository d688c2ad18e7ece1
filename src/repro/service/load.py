"""The load driver for the metering gateway.

One submit/collect loop, :func:`drive`, serves every caller: the
wall-clock load test behind ``repro loadtest`` (the serving-layer
counterpart of the Fig. 9 throughput experiment, measured for real instead
of simulated), ``repro serve`` and the live ``repro top`` dashboard.  The
module also holds the synthetic PolyBench tenant mix, its round-robin
request schedule and the serial single-sandbox baseline the gateway's
totals must match.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from typing import Callable, Iterable, Iterator

from repro.core.resource_log import ResourceUsageLog, ResourceVector
from repro.core.sandbox import SandboxConfig
from repro.obs.context import trace_id_for
from repro.obs.events import EventLog, disable_events, enable_events, get_event_log
from repro.obs.trace import (
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
)
from repro.service.backends import ExecutionBackend
from repro.service.faults import FaultPlan, ResiliencePolicy
from repro.service.gateway import GatewayResponse, MeteringGateway
from repro.service.quota import AdmissionError, TenantQuota
from repro.service.worker import cores_available
from repro.wasm.module import Module


def drive(
    gw: MeteringGateway,
    schedule: Iterable[tuple[str, str, tuple]],
    max_outstanding: int | None = None,
    on_failure: Callable[[str], None] | None = None,
) -> tuple[list[GatewayResponse], dict[str, int]]:
    """Submit every scheduled request to ``gw`` and collect the outcomes.

    Without ``max_outstanding`` every request is submitted before any is
    awaited; with it, the oldest outstanding request is awaited whenever
    that many are in flight.  Admission rejections and request failures
    never escape: they are tallied by failure code, and ``on_failure`` sees
    each code as it happens.  Returns the responses in submission order and
    the tally.
    """
    responses: list[GatewayResponse] = []
    failures: dict[str, int] = {}
    outstanding: deque = deque()

    def failed(exc: Exception) -> None:
        code = getattr(exc, "code", None) or type(exc).__name__
        failures[code] = failures.get(code, 0) + 1
        if on_failure is not None:
            on_failure(code)

    def collect(keep: int) -> None:
        while len(outstanding) > keep:
            try:
                responses.append(outstanding.popleft().result())
            except Exception as exc:  # noqa: BLE001 - tallied, never lost
                failed(exc)

    for tenant_id, export, args in schedule:
        try:
            outstanding.append(gw.submit(tenant_id, export, *args))
        except Exception as exc:  # noqa: BLE001 - over quota, unknown tenant, ...
            failed(exc)
        if max_outstanding is not None:
            collect(max_outstanding - 1)
    collect(0)
    return responses, failures


def polybench_tenant_mix(
    kernels: tuple[str, ...] = (), tenants: int | None = None
) -> list[tuple[str, Module, tuple[str, tuple]]]:
    """A mixed-tenant workload: one tenant per PolyBench kernel.

    Returns ``(tenant_id, module, (export, args))`` triples.  The default
    mix spans linear algebra, solvers and a stencil — small enough to load
    quickly, varied enough that request service times differ by ~10x.

    ``tenants`` fans the mix out to that many distinct tenants, cycling the
    kernels (``tenant-atax-000``, ``tenant-bicg-001``, …) — the same
    workload shapes under many more tenant identities, for exercising
    admission sharding and telemetry cardinality through the *real*
    gateway.  Each registered tenant mints an attested AE (an RSA keypair,
    ~1 s of pure-python keygen apiece), so real-gateway fan-out is for
    tens-to-hundreds of tenants; the million-tenant scale soak
    (:mod:`repro.obs.soak`) models the backend instead.
    """
    from repro.workloads.polybench import POLYBENCH_KERNELS

    names = kernels or ("atax", "bicg", "mvt", "trisolv", "gesummv", "jacobi-1d")
    if tenants is None:
        tenant_ids = [(f"tenant-{name}", name) for name in names]
    elif tenants >= 1:
        cycle = [names[i % len(names)] for i in range(tenants)]
        tenant_ids = [(f"tenant-{name}-{i:03d}", name) for i, name in enumerate(cycle)]
    else:
        raise ValueError("tenants must be >= 1")
    # compiled modules are cached; each tenant gets its own clone
    return [
        (tenant_id, POLYBENCH_KERNELS[name].compile().clone(), POLYBENCH_KERNELS[name].run)
        for tenant_id, name in tenant_ids
    ]


#: The quota-probe tenant every load test carries: its instruction budget is
#: below one request's cost, so its second request must come back as a typed
#: ``instruction-budget-exhausted`` rejection — exercising admission control
#: under load on every run.
_PROBE_KERNEL = "trisolv"
_PROBE_BUDGET = 1000


def _request_schedule(
    mix: list[tuple[str, Module, tuple[str, tuple]]], requests: int | None
) -> list[tuple[str, str, tuple]] | Iterator[tuple[str, str, tuple]]:
    """Round-robin ``(tenant_id, export, args)`` over the mix: a list of
    ``requests`` entries, or an endless iterator when ``requests`` is None."""
    cycle = itertools.cycle(
        [(tenant_id, export, args) for tenant_id, _module, (export, args) in mix]
    )
    return cycle if requests is None else list(itertools.islice(cycle, requests))


def serial_baseline_totals(
    mix: list[tuple[str, Module, tuple[str, tuple]]],
    schedule: list[tuple[str, str, tuple]],
    engine: str | None = None,
) -> ResourceVector:
    """Run the exact same requests serially through a single two-way sandbox.

    The ground truth for the gateway's aggregate accounting: whatever the
    worker pool does, totals must come out byte-identical to this.
    """
    from repro.core.sandbox import TwoWaySandbox

    sandbox = TwoWaySandbox.deploy(SandboxConfig(engine=engine))
    modules = {tenant_id: module for tenant_id, module, _run in mix}
    for tenant_id, export, args in schedule:
        workload = sandbox.submit_module(modules[tenant_id].clone())
        workload.invoke(export, *args)
    return sandbox.totals()


def run_loadtest(
    worker_counts: tuple[int, ...] = (1, 2, 4),
    requests: int = 60,
    pool: str = "process",
    engine: str | None = None,
    kernels: tuple[str, ...] = (),
    backend: str = "wasm",
    time_scale: float = 1.0,
    verify_serial: bool = True,
    quota_probe: bool = True,
    faults: "str | FaultPlan | None" = None,
    fault_seed: int = 0,
    deadline_s: float | None = None,
    hang_s: float = 3.0,
    max_retries: int | None = None,
    events_out: str | None = None,
    slo_rules: str | None = None,
    validate_results: bool = True,
    pipeline: bool | None = None,
    preempt_after: int | None = None,
    warm_pool: bool = False,
    trace_out: str | None = None,
    seal_window: int | None = 16,
    adaptive: bool = True,
    tenants: int | None = None,
) -> dict:
    """Drive the gateway at each worker count and report wall-clock numbers.

    Each sweep point serves ``requests`` requests round-robin across the
    PolyBench tenant mix, seals the epoch, audits it offline, and records
    throughput plus latency percentiles.  With ``quota_probe`` a tenant with
    a too-small instruction budget rides along and must be rejected with a
    typed error; with ``verify_serial`` the same requests are re-run
    serially through one :class:`TwoWaySandbox` and the aggregate resource
    totals must match byte-for-byte.  The result feeds
    ``BENCH_service.json``.

    ``backend="wasm"`` executes every request for real on the worker pool —
    throughput then scales with *physical* cores.  ``backend="modeled"``
    paces requests with the Fig. 9 FaaS service-time model instead
    (:class:`~repro.service.backends.SimulatedFaaSBackend`), which measures
    the gateway/ledger serving overhead itself and scales with workers even
    on a single core (modeled service time is waiting, not CPU).

    The telemetry pipeline rides along when asked: ``events_out`` records
    the structured event stream to JSONL, ``slo_rules`` evaluates a
    declarative rule file over it (via the same replay path ``repro alerts``
    uses offline), and either one also runs the per-tenant billing-drift
    audit after each sweep point's epoch seals.  ``pipeline`` forces the
    event log on (or off) independently of the two outputs — the overhead
    benchmark uses it to measure the pipeline's cost without touching disk.
    The gate verdict lands in ``result["telemetry"]["ok"]``:
    ``repro loadtest --slo`` exits non-zero when it is false.

    ``validate_results=False`` disables worker meter-reading validation —
    only useful to demonstrate that the drift auditor catches what
    validation normally prevents (a ``corrupt`` fault's implausible reading
    signed into a receipt).

    ``faults`` turns the run into a *chaos loadtest*: a
    :class:`~repro.service.faults.FaultPlan` (or spec string like
    ``"crash:7,hang:13"``) injects deterministic worker failures while the
    resilience layer (deadline watchdog, bounded retries, pool rebuilds)
    keeps the gateway serving.  Chaos runs drop the serial-equivalence and
    quota-probe checks (failed requests have no serial counterpart) and
    instead report the failure-containment invariants: the epoch still
    audits clean, and billing is exactly-once — receipt count == distinct
    billed request ids == successful responses.

    ``trace_out`` turns on distributed tracing for the run and writes the
    stitched Chrome/Perfetto trace there: every request's gateway-side
    spans, backhauled worker spans (origin pids intact) and AE signing
    spans render as one connected timeline, and each sweep point gains a
    ``trace`` stitch report — per completed request, the span tree must be
    connected and every one of its receipts must carry the recomputable
    ``trace_id``.  The aggregate verdict lands in ``result["trace_ok"]``.

    ``seal_window`` (default 16) runs the gateway with batched receipt
    sealing: per tenant, one AE signature over a Merkle root of N receipt
    bodies per flush window instead of one RSA op per request.  Pass
    ``None`` for the paper's per-receipt signing.  ``adaptive`` (default
    on) shrinks process pools to the cores actually available — points
    record both requested and effective worker counts, and the
    ``speedup_gate`` entry marks the 4-vs-1 comparison *advisory* when the
    box has fewer cores than the widest sweep point (a 1-core runner
    cannot demonstrate a parallelism cliff, only scheduler thrash).

    ``tenants`` fans the kernel mix out to that many distinct tenant
    identities (see :func:`polybench_tenant_mix`) — useful for driving
    admission sharding and telemetry cardinality through the real gateway
    at tens-to-hundreds of tenants.  Per-tenant AE keygen makes larger
    fan-outs impractical here; the synthetic scale soak
    (``repro soak`` / :mod:`repro.obs.soak`) covers 10^3..10^6 tenants
    with a modeled backend instead.

    ``preempt_after`` turns on budget-boundary preemption: every request is
    suspended after that many executed instructions per slice, checkpoint-
    billed, and re-dispatched from its snapshot.  Aggregate billing must be
    unaffected — the serial-equivalence gate stays on, comparing the *sum*
    of each request's receipts.  ``warm_pool`` serves requests from the
    workers' per-module warm pools instead of instantiating per request.
    Both require the real ``wasm`` backend (the modeled backend never
    executes, so it can neither suspend nor clone).
    """
    if backend == "modeled" and (preempt_after is not None or warm_pool):
        raise ValueError(
            "preemption and warm pools need backend='wasm': the modeled "
            "backend does not execute requests"
        )
    mix = polybench_tenant_mix(kernels, tenants=tenants)
    schedule = _request_schedule(mix, requests)
    plan: FaultPlan | None = None
    if faults is not None:
        plan = (
            faults
            if isinstance(faults, FaultPlan)
            else FaultPlan.parse(faults, seed=fault_seed, hang_s=hang_s)
        )
        if deadline_s is None:
            deadline_s = 2.0  # must outlast honest requests, not the hangs
        verify_serial = False  # failed requests have no serial counterpart
        quota_probe = False  # a fault on the probe would invalidate its assertion
    policy = ResiliencePolicy(
        deadline_s=deadline_s,
        max_retries=(4 if plan is not None else 2) if max_retries is None else max_retries,
        backoff_base_s=0.05,
        backoff_cap_s=0.5,
        jitter_seed=fault_seed,
        validate_results=validate_results,
    )
    probe_spec = None
    if quota_probe:
        from repro.workloads.polybench import POLYBENCH_KERNELS

        probe_spec = POLYBENCH_KERNELS[_PROBE_KERNEL]

    pipeline_on = (
        pipeline
        if pipeline is not None
        else (events_out is not None or slo_rules is not None)
    )
    previous_log = get_event_log()
    event_log: EventLog | None = None
    if pipeline_on:
        event_log = enable_events(EventLog())
    previous_tracer = get_tracer()
    tracer: Tracer | None = None
    if trace_out is not None:
        tracer = enable_tracing(Tracer())

    gateway = dict(
        pool=pool,
        config=SandboxConfig(engine=engine),
        resilience=policy,
        fault_plan=plan,
        preempt_after=preempt_after,
        warm_pool=warm_pool,
        seal_window=seal_window,
        adaptive=adaptive,
    )
    sweep = []
    try:
        sweep.extend(
            _run_sweep_point(
                workers, backend, time_scale, gateway, mix, schedule, probe_spec,
                verify_serial, event_log,
            )
            for workers in worker_counts
        )
    finally:
        if pipeline_on:
            if previous_log is not None:
                enable_events(previous_log)
            else:
                disable_events()
        if trace_out is not None:
            if tracer is not None:
                tracer.flush_truncated()
                tracer.write_chrome_trace(trace_out)
            if previous_tracer is not None:
                enable_tracing(previous_tracer)
            else:
                disable_tracing()
    cores = cores_available()
    result = {
        "benchmark": "metering-gateway-loadtest",
        "mix": [tenant_id for tenant_id, _m, _r in mix],
        "requests_per_point": requests,
        "pool": pool,
        "engine": engine or "default",
        "execution_backend": backend,
        "cores_available": cores,
        "seal_window": seal_window,
        "sweep": sweep,
    }
    if preempt_after is not None:
        result["preempt_after"] = preempt_after
    if warm_pool:
        result["warm_pool"] = True
    if trace_out is not None:
        result["trace_out"] = trace_out
        result["trace_ok"] = all(
            point.get("trace", {}).get("ok", True) for point in sweep
        )
    if plan is not None:
        result["fault_plan"] = plan.describe()
        result["deadline_s"] = deadline_s
    if verify_serial:
        serial = serial_baseline_totals(mix, schedule, engine=engine).to_json()
        result["serial_totals"] = serial
        result["serial_totals_match"] = all(
            point.get("gateway_totals") == serial for point in sweep
        )
    by_workers = {point["workers"]: point for point in sweep}
    if 1 in by_workers and 4 in by_workers:
        result["speedup_4_over_1"] = (
            by_workers[4]["throughput_rps"] / by_workers[1]["throughput_rps"]
        )
    # the 4-vs-1 gate is only meaningful where 4 workers can actually run
    # in parallel: on an undersized box the number measures scheduler
    # thrash (or, with adaptive sizing, nothing at all), not a cliff
    max_workers = max(worker_counts) if worker_counts else 1
    result["speedup_gate"] = {
        "cores_available": cores,
        "max_workers": max_workers,
        "advisory": cores < max_workers,
    }
    if event_log is not None:
        telemetry: dict = {"events": event_log.stats(), "events_path": events_out}
        if events_out is not None:
            telemetry["events_meta"] = event_log.write_jsonl(events_out)
        drift_ok = all(point.get("drift", {}).get("ok", True) for point in sweep)
        telemetry["drift_ok"] = drift_ok
        engine = None
        if slo_rules is not None:
            from repro.obs.slo import load_rules
            from repro.obs.slo import replay as replay_slo

            engine, _agg = replay_slo(event_log.events(), load_rules(slo_rules))
            telemetry["slo_rules"] = slo_rules
            telemetry["slo"] = engine.report()
        telemetry["ok"] = drift_ok and (engine is None or not engine.gating_alerts())
        result["telemetry"] = telemetry
    return result


def _run_sweep_point(
    workers: int,
    backend: str,
    time_scale: float,
    gateway: dict,
    mix: list,
    schedule: list,
    probe_spec,
    verify_serial: bool,
    event_log: EventLog | None,
) -> dict:
    """One worker-count sweep point of :func:`run_loadtest`; ``gateway``
    holds the :class:`MeteringGateway` arguments every point shares."""
    if backend == "modeled":
        from repro.service.backends import SimulatedFaaSBackend

        gw_backend: ExecutionBackend | None = SimulatedFaaSBackend(
            workers=workers, time_scale=time_scale
        )
    elif backend == "wasm":
        gw_backend = None
    else:
        raise ValueError(f"unknown loadtest backend {backend!r}")
    with MeteringGateway(workers=workers, backend=gw_backend, **gateway) as gw:
        for tenant_id, module, _run in mix:
            gw.register_tenant(tenant_id, module=module.clone())
        rejection = None
        if probe_spec is not None:
            gw.register_tenant(
                "tenant-overquota",
                module=probe_spec.compile().clone(),
                quota=TenantQuota(instruction_budget=_PROBE_BUDGET),
            )
            export, args = probe_spec.run
            gw.execute("tenant-overquota", export, *args)  # spends the budget
            try:
                gw.execute("tenant-overquota", export, *args)
            except AdmissionError as exc:
                rejection = exc.to_json()
                rejection["tenant"] = "tenant-overquota"

        started = time.perf_counter()
        responses, failures = drive(gw, schedule)
        wall_s = time.perf_counter() - started
        seal = gw.seal_epoch()
        verdict = gw.verify_epoch(seal)
        latencies = sorted(r.latency_s for r in responses) or [0.0]

        def pct(q: float) -> float:
            return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

        # signatures-per-request: the batched-sealing win in one number.
        # Per-receipt mode signs every entry; batched mode signs one Merkle
        # root per flush window (plus per-entry checkpoint receipts keep
        # their own signatures only when unbatched).
        ledger_tenants = gw.ledger.tenants()
        all_entries = [
            receipt.entry
            for tenant_id in ledger_tenants
            for receipt in gw.ledger.receipts(tenant_id)
        ]
        per_receipt_sigs = sum(1 for entry in all_entries if entry.signature)
        batch_seals = sum(
            len(gw.ledger.batches(tenant_id)) for tenant_id in ledger_tenants
        )
        point = {
            "workers": workers,
            "workers_effective": gw.effective_workers,
            "backend": gw.backend.kind,
            "requests": len(responses),
            "failures": failures,
            "wall_s": wall_s,
            "throughput_rps": len(responses) / wall_s,
            "latency_s": {
                "p50": pct(0.50),
                "p95": pct(0.95),
                "p99": pct(0.99),
                "mean": sum(latencies) / len(latencies),
            },
            "epoch_ok": verdict.ok,
            "epoch_errors": list(verdict.errors),
            "receipts_checked": verdict.receipts_checked,
            "quota_rejection": rejection,
            "cache": gw.cache.stats(),
            "signatures": {
                "receipts": len(all_entries),
                "per_receipt": per_receipt_sigs,
                "batch_seals": batch_seals,
                "per_request": (
                    (per_receipt_sigs + batch_seals) / len(all_entries)
                    if all_entries
                    else 0.0
                ),
            },
        }
        if gw.preempt_after is not None or gw.warm_pool:
            point["preemption"] = {
                "preempt_after": gw.preempt_after,
                "warm_pool": gw.warm_pool,
                "preemptions": gw.resilience_stats()["preemptions"],
            }
        # the probe tenant's served request is not part of the schedule
        mix_receipts = [
            receipt
            for tenant_id, _module, _run in mix
            for receipt in gw.ledger.receipts(tenant_id)
        ]
        if gw.fault_plan is not None:
            # checkpoint receipts bill under derived ids ("<id>#cpN"); each
            # request still gets exactly one *final* receipt under its bare id
            final_receipts = sum(
                1 for receipt in mix_receipts if isinstance(receipt.request_id, int)
            )
            billed = gw.ledger.billed_requests()
            point["faults"] = dict(gw.resilience_stats(), failures=failures)
            point["billing"] = {
                "receipts": len(mix_receipts),
                "final_receipts": final_receipts,
                "distinct_requests_billed": billed,
                "ok_responses": len(responses),
                "exactly_once": (
                    len(mix_receipts) == billed
                    and final_receipts == len(responses)
                ),
            }
        if event_log is not None:
            from repro.obs.audit import audit_billing

            drift = audit_billing(
                gw.ledger,
                gw.admission,
                events=event_log.events(),
                gateway_id=gw.gateway_id,
            )
            point["drift"] = drift.to_json()
        tracer = get_tracer()
        if tracer is not None:
            point["trace"] = _stitch_report(gw, tracer, responses)
        if verify_serial:
            mix_totals = ResourceUsageLog(signing_key=None)
            mix_totals.entries = [receipt.entry for receipt in mix_receipts]
            point["gateway_totals"] = mix_totals.totals().to_json()
        return point


def _stitch_report(
    gw: MeteringGateway, tracer: Tracer, responses: list[GatewayResponse]
) -> dict:
    """Verify, per completed request, that its trace stitched end to end.

    Three properties, all recomputable offline because trace ids are a pure
    function of (gateway id, request id):

    * **connected** — every span carrying the request's trace id reaches
      the ``gateway.request`` root by walking parent links (worker spans
      were re-parented at merge; checkpoint hops all hang under one root);
    * **origin pids** — merged worker spans keep the pid of the process
      that recorded them (distinct from the gateway's on a process pool);
    * **receipt linkage** — every AE receipt the request produced (final
      and every ``#cpN`` checkpoint) carries the same trace id.
    """
    spans = tracer.finished()
    by_id = {s.span_id: s for s in spans}
    by_trace: dict[str, list[Span]] = {}
    for s in spans:
        by_trace.setdefault(s.attributes.get("trace_id"), []).append(s)
    own_pid = os.getpid()
    worker_pids: set[int] = set()
    stitched = 0
    unlinked_receipts = 0

    def _reaches(span: Span | None, root: Span) -> bool:
        seen: set[int] = set()
        while span is not None and span.span_id not in seen:
            if span.span_id == root.span_id:
                return True
            seen.add(span.span_id)
            span = by_id.get(span.parent_id)
        return False

    for response in responses:
        tid = trace_id_for(gw.gateway_id, response.request_id)
        members = by_trace.get(tid, [])
        root = next((s for s in members if s.name == "gateway.request"), None)
        connected = root is not None and all(_reaches(s, root) for s in members)
        worker_pids |= {s.pid for s in members if s.pid and s.pid != own_pid}
        checkpoint_prefix = f"{response.request_id}#cp"
        receipts = [
            r
            for r in gw.ledger.receipts(response.tenant_id)
            if r.request_id == response.request_id
            or str(r.request_id).startswith(checkpoint_prefix)
        ]
        linked = bool(receipts) and all(r.trace_id == tid for r in receipts)
        if not linked:
            unlinked_receipts += 1
        if connected and linked:
            stitched += 1
    return {
        "requests_checked": len(responses),
        "stitched": stitched,
        "unlinked_receipts": unlinked_receipts,
        "worker_pids": sorted(worker_pids),
        "ok": stitched == len(responses),
    }
