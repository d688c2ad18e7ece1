"""Command-line interface: instrument, run, meter and serve Wasm modules.

Usage (also via ``python -m repro``)::

    repro instrument module.wat --level loop-based -o instrumented.wat
    repro run module.wat --invoke fib --args 20
    repro snapshot module.wat --invoke fib --args 30 --at 100000 --out fib.snap
    repro resume fib.snap module.wat --engine compile
    repro meter module.wat --invoke kernel --deployments
    repro sandbox module.mc --invoke work --args 5
    repro serve --workers 4 --requests 60
    repro loadtest --workers 1,2,4 --out BENCH_service.json
    repro trace atax --out trace.json
    repro metrics --requests 12
    repro run module.wat --invoke fib --args 20 --profile
    repro top --duration 10 --interval 1
    repro loadtest --events-out events.jsonl --slo examples/slo_rules.json
    repro alerts --rules examples/slo_rules.json --replay events.jsonl

``run`` executes any WAT module and prints the result plus execution stats;
``meter`` prices it across the deployment ladder; ``sandbox`` does the full
AccTEE protocol for a MiniC source file and prints the signed log;
``serve`` drives the multi-tenant metering gateway over a synthetic tenant
mix; ``loadtest`` sweeps gateway worker counts and emits throughput/latency
percentiles as JSON.

Observability: ``trace`` records one traced workload run and writes Chrome
``trace_event`` JSON (open in Perfetto / ``about:tracing``); ``metrics``
drives a short gateway mix and dumps the OpenMetrics text exposition (or
checks the metric-name contract with ``--check-contract``); ``--profile``
on ``run``/``sandbox`` prints a hot-function report and can write a
flamegraph collapsed-stack file.

Telemetry pipeline: ``top`` renders a live rolling-window dashboard over the
metrics registry's windows while driving a gateway mix; ``loadtest
--events-out`` records the stream to JSONL, ``--slo RULES.json`` evaluates
declarative threshold/burn-rate rules plus the per-tenant billing-drift
audit (non-zero exit on a page-severity alert or billing drift); ``alerts``
re-evaluates any rule file offline against a recorded stream.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.instrument import instrument_module
from repro.instrument.weights import UNIT_WEIGHTS, cycle_weight_table
from repro.minic.compiler import CompileError
from repro.minic.lexer import LexError
from repro.minic.parser import ParseError
from repro.perf.model import Deployment, PerformanceModel, WorkloadRun
from repro.wasm.binary import BinaryFormatError, encode_module
from repro.wasm.engines import UnknownEngineError
from repro.wasm.interpreter import ENGINES, ExecutionLimits, Instance, LinkError, Trap
from repro.wasm.snapshot import SnapshotError
from repro.wasm.validate import ValidationError, validate
from repro.wasm.wat_parser import WatParseError, parse_wat
from repro.wasm.wat_printer import print_wat

#: Bad input rather than a bug: an unreadable file, a module that does not
#: parse, validate or link, or a corrupt snapshot.
_INPUT_ERRORS = (OSError, LinkError, WatParseError, ValidationError, BinaryFormatError,
                 LexError, ParseError, CompileError, SnapshotError, UnknownEngineError)


def _load_module(path: str):
    text = pathlib.Path(path).read_text()
    if path.endswith((".mc", ".minic", ".c")):
        from repro.minic import compile_source

        return compile_source(text)
    module = parse_wat(text)
    validate(module)
    return module


def _parse_args_list(raw: list[str]) -> list:
    out = []
    for item in raw:
        try:
            out.append(int(item, 0))
        except ValueError:
            out.append(float(item))
    return out


def cmd_instrument(args: argparse.Namespace) -> int:
    module = _load_module(args.module)
    weights = cycle_weight_table() if args.weighted else UNIT_WEIGHTS
    result = instrument_module(module, args.level, weights)
    text = print_wat(result.module)
    if args.output:
        pathlib.Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    before = len(encode_module(module))
    after = len(encode_module(result.module))
    print(
        f"; level={args.level} counter_global={result.counter_global_index} "
        f"increments={result.increments_emitted} hoisted={result.hoisted_loops} "
        f"size {before} -> {after} bytes (+{100 * (after - before) / before:.1f}%)",
        file=sys.stderr,
    )
    return 0


def _profiled(enabled: bool):
    """Context manager yielding an active profiler (or None)."""
    from contextlib import contextmanager

    from repro.obs.profiler import disable_profiling, enable_profiling

    @contextmanager
    def _cm():
        if not enabled:
            yield None
            return
        prof = enable_profiling()
        try:
            yield prof
        finally:
            disable_profiling()

    return _cm()


def _emit_profile(prof, args: argparse.Namespace) -> None:
    print(prof.report(args.profile_top))
    if args.profile_out:
        pathlib.Path(args.profile_out).write_text(prof.collapsed_stacks())
        print(f"collapsed stacks written to {args.profile_out} "
              "(feed to flamegraph.pl / speedscope)")


def cmd_run(args: argparse.Namespace) -> int:
    module = _load_module(args.module)
    instance = Instance(module, engine=args.engine)
    with _profiled(args.profile) as prof:
        value = instance.invoke(args.invoke, *_parse_args_list(args.args))
    print(f"result: {value}")
    stats = instance.stats
    print(f"instructions executed: {stats.total_visits}")
    print(f"loads/stores: {stats.loads}/{stats.stores}")
    if instance.memory is not None:
        print(f"linear memory: {instance.memory.pages} pages")
    if args.top:
        print("hottest instructions:")
        for name, count in stats.visits.most_common(args.top):
            print(f"  {name:<20} {count}")
    if prof is not None:
        _emit_profile(prof, args)
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Run an export, suspending into a portable snapshot file."""
    from repro.wasm.snapshot import SnapshotCaptured, encode_snapshot

    module = _load_module(args.module)
    instance = Instance(
        module,
        engine=args.engine,
        limits=ExecutionLimits(snapshot_at=args.at),
    )
    try:
        value = instance.invoke(args.invoke, *_parse_args_list(args.args))
    except SnapshotCaptured as exc:
        snap = exc.snapshot
        blob = encode_snapshot(snap)
        pathlib.Path(args.out).write_bytes(blob)
        print(
            f"captured at {snap.executed} executed instructions "
            f"({len(snap.frames)} frame(s), {len(blob)} bytes) -> {args.out}"
        )
        print(f"snapshot hash: {snap.hash().hex()}")
        print(f"resume with: repro resume {args.out} {args.module}")
        return 0
    print(f"run finished before instruction {args.at}: result {value}")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Resume a snapshot file under any engine; optionally re-snapshot."""
    from repro.wasm.snapshot import (
        SnapshotCaptured,
        decode_snapshot,
        encode_snapshot,
        restore_instance,
        resume_invoke,
    )

    snap = decode_snapshot(pathlib.Path(args.snapshot).read_bytes())
    module = _load_module(args.module)
    limits = ExecutionLimits(
        snapshot_at=snap.executed + args.at if args.at is not None else None
    )
    instance = restore_instance(snap, module, engine=args.engine, limits=limits)
    print(
        f"resuming at {snap.executed} executed instructions "
        f"({len(snap.frames)} frame(s), engine snapshotted under "
        f"{snap.engine or 'default'})"
    )
    try:
        value = resume_invoke(instance, snap)
    except SnapshotCaptured as exc:
        out = args.out or args.snapshot
        blob = encode_snapshot(exc.snapshot)
        pathlib.Path(out).write_bytes(blob)
        print(
            f"re-captured at {exc.snapshot.executed} executed instructions "
            f"({len(blob)} bytes) -> {out}"
        )
        return 0
    stats = instance.stats
    print(f"result: {value}")
    print(f"instructions executed: {stats.total_visits}")
    print(f"loads/stores: {stats.loads}/{stats.stores}")
    if instance.memory is not None:
        print(f"linear memory: {instance.memory.pages} pages")
    return 0


def cmd_meter(args: argparse.Namespace) -> int:
    module = _load_module(args.module)
    run, value = WorkloadRun.measure(
        module, args.invoke, tuple(_parse_args_list(args.args))
    )
    print(f"result: {value}")
    model = PerformanceModel()
    ratios = model.normalised_runtimes(run)
    for deployment in Deployment:
        report = model.report(run, deployment)
        print(
            f"  {deployment.value:<14} {report.cycles / 1e6:10.3f} Mcycles "
            f"({ratios[deployment]:.2f}x native)"
        )
    return 0


def cmd_sandbox(args: argparse.Namespace) -> int:
    from repro.core.sandbox import SandboxConfig, TwoWaySandbox

    source = pathlib.Path(args.module).read_text()
    sandbox = TwoWaySandbox.deploy(SandboxConfig(level=args.level, weighted=args.weighted))
    if args.module.endswith(".wat"):
        workload = sandbox.submit_wat(source)
    else:
        workload = sandbox.submit_minic(source)
    with _profiled(args.profile) as prof:
        result = workload.invoke(args.invoke, *_parse_args_list(args.args))
    print(f"result: {result.value}" + ("  (trapped!)" if result.trapped else ""))
    print(f"metered: {result.vector.weighted_instructions} weighted instructions, "
          f"{result.vector.peak_memory_bytes} B peak, "
          f"{result.vector.io_bytes_total} B I/O")
    cache = sandbox.cache.stats()
    print(f"instrumentation cache: {cache['hits']} hits, {cache['misses']} misses")
    print(f"log verifies: {sandbox.verify_log()}")
    print(f"invoice: {sandbox.invoice():.6f}")
    if prof is not None:
        _emit_profile(prof, args)
    if args.export_log:
        from repro.core.serialization import dump_log

        dump_log(sandbox.log, sandbox.ae.log_public_key, args.export_log)
        print(f"log exported to {args.export_log}")
    return 0


def cmd_verify_log(args: argparse.Namespace) -> int:
    import json

    from repro.core.serialization import public_key_from_json, verify_log_file

    key = None
    if args.key:
        key = public_key_from_json(json.loads(pathlib.Path(args.key).read_text()))
    ok, totals = verify_log_file(args.log, public_key=key)
    if args.json:
        with open(args.log) as handle:
            entries = len(json.load(handle)["entries"])
        print(json.dumps(
            {"ok": ok, "entries": entries, "totals": totals.to_json()}, indent=2
        ))
        return 0 if ok else 1
    print(f"log verifies: {ok}")
    print(f"totals: {totals.weighted_instructions} weighted instructions, "
          f"{totals.io_bytes_total} B I/O, peak {totals.peak_memory_bytes} B")
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Drive the metering gateway over a synthetic multi-tenant mix."""
    from repro.core.sandbox import SandboxConfig
    from repro.service import MeteringGateway, TenantQuota
    from repro.service.backends import SimulatedFaaSBackend
    from repro.service.load import _request_schedule, drive, polybench_tenant_mix

    kernels = tuple(args.kernels.split(",")) if args.kernels else ()
    mix = polybench_tenant_mix(kernels)
    backend = None
    if args.backend == "modeled":
        backend = SimulatedFaaSBackend(workers=args.workers, time_scale=args.time_scale)
    config = SandboxConfig(engine=args.engine)
    with MeteringGateway(
        workers=args.workers, pool=args.pool, config=config, backend=backend
    ) as gw:
        quota = TenantQuota(
            max_queue_depth=args.queue_depth,
            requests_per_second=args.rate_limit,
            burst=max(1, args.queue_depth or 1),
        )
        for tenant_id, module, _run in mix:
            gw.register_tenant(tenant_id, module=module, quota=quota)
        print(f"serving {args.requests} requests across {len(mix)} tenants "
              f"on backend {gw.backend.kind}")
        responses, failures = drive(gw, _request_schedule(mix, args.requests))
        seal = gw.seal_epoch()
        verdict = gw.verify_epoch(seal)
        print(f"served {len(responses)} requests, failed {sum(failures.values())}")
        for code, n in sorted(failures.items()):
            print(f"  {code}: {n}")
        for tenant_id, _module, _run in mix:
            totals = gw.totals(tenant_id)
            print(f"  {tenant_id:<20} {len(gw.ledger.receipts(tenant_id)):>4} receipts  "
                  f"{totals.weighted_instructions:>12} weighted instructions")
        print(f"epoch {seal.epoch} sealed: root {seal.merkle_root.hex()[:16]}… "
              f"over {len(seal.spans)} tenant chains")
        print(f"epoch verifies offline: {verdict.ok} "
              f"({verdict.receipts_checked} receipts checked)")
        cache = gw.cache.stats()
        print(f"instrumentation cache: {cache['hits']} hits, {cache['misses']} misses")
    return 0 if verdict.ok else 1


def _json_or_empty(path: pathlib.Path) -> dict:
    """A JSON file's contents, or ``{}`` when it is missing or unparsable."""
    import json

    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        return {}


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Sweep gateway worker counts; write BENCH_service.json."""
    import json

    from repro.service.load import run_loadtest

    if args.preempt < 0:
        print(f"error: --preempt must be >= 1 (0 disables preemption), "
              f"got {args.preempt}", file=sys.stderr)
        return 2
    worker_counts = tuple(int(w) for w in args.workers.split(","))
    kernels = tuple(args.kernels.split(",")) if args.kernels else ()
    seal_window = args.seal_window if args.seal_window > 0 else None
    backends = ("wasm", "modeled") if args.backend == "both" else (args.backend,)
    if args.preempt:
        # preemption executes for real; the modeled backend cannot
        backends = tuple(b for b in backends if b != "modeled") or ("wasm",)
    if args.metrics_out:
        from repro.obs import enable_metrics, get_registry

        get_registry().reset()
        enable_metrics()

    def per_backend(path: str | None, backend: str) -> str | None:
        # one file per backend rather than the second overwriting the first
        if not path or len(backends) == 1:
            return path
        stem = pathlib.Path(path)
        return str(stem.with_name(f"{stem.stem}.{backend}{stem.suffix}"))

    sweeps = {}
    for backend in backends:
        result = sweeps[backend] = run_loadtest(
            worker_counts=worker_counts,
            requests=args.requests,
            pool=args.pool,
            engine=args.engine,
            kernels=kernels,
            tenants=args.tenants or None,
            backend=backend,
            time_scale=args.time_scale,
            verify_serial=not args.no_serial,
            faults=args.faults or None,
            fault_seed=args.fault_seed,
            deadline_s=args.deadline,
            hang_s=args.hang_s,
            events_out=per_backend(args.events_out, backend),
            slo_rules=args.slo,
            validate_results=not args.no_validate,
            preempt_after=args.preempt or None,
            trace_out=per_backend(args.trace_out, backend),
            seal_window=seal_window,
        )
        for point in result["sweep"]:
            latency = point["latency_s"]
            print(f"[{backend}] workers={point['workers']}: "
                  f"{point['throughput_rps']:8.1f} req/s  "
                  f"p50={latency['p50'] * 1000:.1f}ms p95={latency['p95'] * 1000:.1f}ms "
                  f"p99={latency['p99'] * 1000:.1f}ms  epoch_ok={point['epoch_ok']}")
        if "speedup_4_over_1" in result:
            advisory = (" (advisory: fewer cores than workers)"
                        if result["speedup_gate"]["advisory"] else "")
            print(f"[{backend}] speedup 4 workers over 1: "
                  f"{result['speedup_4_over_1']:.2f}x{advisory}")
        gates = result["gates"]
        print(f"[{backend}] gates: " + " ".join(
            f"{gate}={'FAIL' if lines else 'pass'}" for gate, lines in gates.items()))
        for lines in gates.values():
            for line in lines:
                print(f"[{backend}] {line}", file=sys.stderr)
    report = {
        "benchmark": "metering-gateway-loadtest",
        "cores_available": sweeps[backends[0]]["cores_available"],
        "worker_counts": list(worker_counts),
        "requests_per_point": args.requests,
        "seal_window": seal_window,
        "speedup_gate": sweeps[backends[0]].get("speedup_gate"),
        "speedup_4_over_1": {b: sweeps[b].get("speedup_4_over_1") for b in backends},
        "sweeps": sweeps,
    }
    # the bench file may carry a perf-history trajectory (--bench-append);
    # rewriting the latest report must not wipe it
    previous = _json_or_empty(pathlib.Path(args.out))
    for key in ("trajectory", "trajectory_schema"):
        if key in previous:
            report[key] = previous[key]
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.slo_out:
        slo_report = {b: sweeps[b].get("telemetry") for b in backends}
        pathlib.Path(args.slo_out).write_text(json.dumps(slo_report, indent=2) + "\n")
        print(f"SLO/drift report written to {args.slo_out}")
    if args.bench_append:
        from repro.obs.bench import append_point, distill_point

        for backend in backends:
            append_point(args.bench_append, distill_point(sweeps[backend]))
        print(f"appended {len(backends)} trajectory point(s) to {args.bench_append}")
    if args.metrics_out:
        from repro.obs import disable_metrics, get_registry

        disable_metrics()
        metrics_path = pathlib.Path(args.metrics_out)
        merged = _json_or_empty(metrics_path)
        merged["loadtest_metrics"] = get_registry().snapshot()
        metrics_path.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"metrics snapshot merged into {args.metrics_out}")
    return 0 if all(sweeps[backend]["ok"] for backend in backends) else 1


def cmd_soak(args: argparse.Namespace) -> int:
    """Control-plane scale soak: sweep tenant decades, gate the curve flat."""
    import json

    from repro.obs.soak import run_scale_soak

    counts = tuple(int(c) for c in args.tenants.split(","))
    result = run_scale_soak(
        tenant_counts=counts,
        requests=args.requests,
        tenant_budget=args.budget,
        top_k=args.top_k,
        max_resident=args.max_resident,
        max_overhead_ratio=args.max_overhead_ratio,
        rss_ceiling_mb=args.rss_ceiling_mb,
        isolate=not args.no_isolate,
    )
    for point in result["points"]:
        print(
            f"tenants={point['tenants']:>9}: "
            f"{point['per_request_us']:6.1f}us/req "
            f"(norm {point['per_request_us_norm']:6.1f}us)  "
            f"rss={point['rss_mb']:6.1f}MB  "
            f"overflow={point['overflow_ratio']:.2f}  "
            f"resident={point['structures']['admission_resident']}  "
            f"window_keys={point['structures']['window_keys']}"
        )
    gates = result["gates"]
    print(
        f"overhead ratio (largest/smallest, drift-normalised): "
        f"{gates['overhead_ratio']:.3f} (gate {gates['max_overhead_ratio']})"
    )
    print(
        f"gates: overhead={'ok' if gates['overhead_ok'] else 'FAIL'} "
        f"bounded={'ok' if gates['bounded_ok'] else 'FAIL'} "
        f"top-recovered={'ok' if gates['top_recovered_ok'] else 'FAIL'} "
        f"rss={'ok' if gates['rss_ok'] else 'FAIL'}"
    )
    pathlib.Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if result["ok"] else 1


#: ``repro top --sort`` column -> (row key, descending?) for the tenant table.
_TOP_SORT_COLUMNS = {
    "events": ("events", True),
    "tenant": ("tenant", False),
    "error": ("error", True),
}


def _tenant_table_lines(
    metrics, top_k: int, sort: str, plain: bool, reserved_lines: int
) -> list[str]:
    """The per-tenant table for one ``repro top`` frame.

    Rows come from the requests counter: exact per-tenant series beside the
    governor's sketched rows for spilled tenants.  Even the governed top-K
    can outrun a terminal; rows are sorted by the chosen column and
    truncated to the terminal height (skipped under ``--plain``, where
    frames go to pipes), and tenants beyond the visible rows are
    summarised in a ``(+N more tenants)`` footer so nothing silently
    disappears.
    """
    import shutil

    rows = metrics.requests.top_tenants(top_k)
    spill = metrics.requests.governance()
    key, descending = _TOP_SORT_COLUMNS[sort]
    rows.sort(key=lambda row: row[key], reverse=descending)
    lines = [
        f"  top tenants by {sort} "
        f"({spill['tracked']} exact series, ~{spill['cardinality']} seen):"
    ]
    if not rows:
        lines.append("    (no tenant traffic yet)")
        return lines
    body = []
    for row in rows:
        accuracy = "exact" if row["exact"] else f"±{row['error']}"
        body.append(f"    {row['tenant']:<28} {row['events']:>10}  {accuracy}")
    hidden = 0
    if not plain:
        height = shutil.get_terminal_size((80, 24)).lines
        room = max(3, height - reserved_lines - len(lines) - 1)
        if len(body) > room:
            hidden = len(body) - room
            body = body[:room]
    more = max(hidden, spill["cardinality"] - len(body))
    if more > 0:
        body.append(f"    (+{more} more tenants)")
    return lines + body


def _render_top_frame(
    metrics,
    engine,
    window_s: float,
    plain: bool,
    failures: dict | None = None,
    top_k: int = 10,
    sort: str = "events",
) -> None:
    from repro.obs.slo import snapshot as window_snapshot

    snapshot = window_snapshot(metrics, window_s)
    lines = [f"repro top — trailing {window_s:g}s window"]
    latency = snapshot["latency_s"]
    lines.append(
        f"  throughput {snapshot['throughput_rps']:8.1f} req/s   "
        f"p50 {latency['p50'] * 1000:7.1f}ms  p95 {latency['p95'] * 1000:7.1f}ms  "
        f"p99 {latency['p99'] * 1000:7.1f}ms"
    )
    if failures is not None:
        total = sum(failures.values())
        if total:
            detail = "  ".join(
                f"{code}={count}" for code, count in sorted(failures.items())
            )
            lines.append(f"  failures: {total} ({detail})")
        else:
            lines.append("  failures: none")
    lines.append("  counts in window:")
    for key, count in snapshot["counts"].items():
        lines.append(f"    {key:<40} {count:>8g}")
    tail = []
    if engine is not None:
        firing = engine.firing
        if firing:
            tail.append("  ALERTS FIRING:")
            for alert in firing:
                tail.append(f"    [{alert.severity:>8}] {alert.rule}: {alert.detail}")
        else:
            tail.append(f"  alerts: none firing ({len(engine.rules)} rules armed)")
    lines.extend(
        _tenant_table_lines(
            metrics, top_k, sort, plain, reserved_lines=len(lines) + len(tail)
        )
    )
    lines.extend(tail)
    if not plain:
        sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
    print("\n".join(lines), flush=True)


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over the process registry's windows while driving a
    gateway mix; the event log is on only to record ``--events-out``."""
    import itertools
    import threading
    import time

    from repro.core.sandbox import SandboxConfig
    from repro.obs.events import EventLog, disable_events, enable_events
    from repro.obs.instruments import GATEWAY
    from repro.obs.metrics import WINDOW_HORIZON_S, disable_metrics, enable_metrics
    from repro.service import MeteringGateway
    from repro.service.load import _request_schedule, drive, polybench_tenant_mix

    if not 0 < args.window <= WINDOW_HORIZON_S:
        print(f"error: --window must be in (0, {WINDOW_HORIZON_S:g}]", file=sys.stderr)
        return 2
    engine = None
    if args.rules:
        from repro.obs.slo import SLOEngine, load_rules

        engine = SLOEngine(load_rules(args.rules))
    GATEWAY.registry.reset()
    enable_metrics()
    log = enable_events(EventLog()) if args.events_out else None
    kernels = tuple(args.kernels.split(",")) if args.kernels else ()
    mix = polybench_tenant_mix(kernels, tenants=args.tenants or None)
    stop = threading.Event()
    # submit failures must not vanish: the driver counts them by failure
    # code and the dashboard surfaces the tally every frame
    failures: dict[str, int] = {}
    failures_lock = threading.Lock()

    def note_failure(code: str) -> None:
        with failures_lock:
            failures[code] = failures.get(code, 0) + 1

    def serve() -> None:
        backend = None
        if args.backend == "modeled":
            from repro.service.backends import SimulatedFaaSBackend

            backend = SimulatedFaaSBackend(
                workers=args.workers, time_scale=args.time_scale
            )
        with MeteringGateway(
            workers=args.workers, pool="thread",
            config=SandboxConfig(), backend=backend,
        ) as gw:
            for tenant_id, module, _run in mix:
                gw.register_tenant(tenant_id, module=module)
            schedule = itertools.takewhile(
                lambda _request: not stop.is_set(), _request_schedule(mix, None)
            )
            drive(gw, schedule, max_outstanding=max(2, args.workers * 4),
                  on_failure=note_failure)
            gw.seal_epoch()
            gw.verify_epoch()

    driver = threading.Thread(target=serve, daemon=True)
    driver.start()
    deadline = time.monotonic() + args.duration
    try:
        while time.monotonic() < deadline:
            time.sleep(args.interval)
            if engine is not None:
                engine.evaluate(GATEWAY)
            with failures_lock:
                frame_failures = dict(failures)
            _render_top_frame(
                GATEWAY, engine, args.window, args.plain,
                failures=frame_failures, top_k=args.top_k, sort=args.sort,
            )
    finally:
        stop.set()
        driver.join(timeout=60)
        disable_events()
        disable_metrics()
    if engine is not None:
        engine.evaluate(GATEWAY)
    with failures_lock:
        frame_failures = dict(failures)
    _render_top_frame(
        GATEWAY, engine, args.window, plain=True,
        failures=frame_failures, top_k=args.top_k, sort=args.sort,
    )
    if args.events_out:
        meta = log.write_jsonl(args.events_out)
        print(f"{meta['buffered']} events written to {args.events_out}")
    return 0


def cmd_alerts(args: argparse.Namespace) -> int:
    """Evaluate an SLO rule file offline against a recorded event stream."""
    import json

    from repro.obs.events import read_jsonl
    from repro.obs.slo import load_rules, replay

    rules = load_rules(args.rules)
    meta, events = read_jsonl(args.replay)
    engine, _windows = replay(events, rules, eval_every_s=args.eval_every)
    report = engine.report()
    if args.json:
        print(json.dumps({"meta": meta, **report}, indent=2))
        return 1 if report["gating"] else 0
    dropped = meta.get("dropped", 0)
    print(f"{len(events)} events replayed "
          f"({dropped} dropped at capture); {len(rules)} rules")
    for alert in report["alerts"]:
        print(f"  [{alert['severity']:>8}] {alert['rule']}: {alert['detail']}  "
              f"(value={alert['value']:.4f} at t={alert['at_s']:.1f}s)")
    if not report["alerts"]:
        print("  no alerts fired")
    for cleared in report["cleared"]:
        print(f"  cleared: {cleared['rule']} after "
              f"{cleared['cleared_at_s'] - cleared['fired_at_s']:.1f}s")
    print(f"worst severity: {report['worst_severity']}   "
          f"gate: {'FAIL' if report['gating'] else 'pass'}")
    return 1 if report["gating"] else 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct one request's causal story from a recorded event stream."""
    import json

    from repro.obs.context import explain_request
    from repro.obs.events import read_jsonl

    _meta, events = read_jsonl(args.events)
    report = explain_request(events, args.request_id, gateway=args.gateway)
    if args.json:
        print(json.dumps(report, indent=2, default=str))
        return 0 if report["found"] else 1
    for line in report["story"]:
        print(line)
    if report["found"]:
        trace_id = report.get("trace_id")
        if trace_id:
            print(f"trace_id: {trace_id}")
        receipts = report["receipts"]
        linked = [r for r in receipts if r.get("trace_id") == trace_id]
        print(f"receipts: {len(receipts)} "
              f"({len(linked)} carrying the trace id, "
              f"{len(report['checkpoints'])} checkpoint(s))")
    return 0 if report["found"] else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one workload through the two-way sandbox with tracing enabled."""
    from repro.core.sandbox import SandboxConfig, TwoWaySandbox
    from repro.obs.trace import disable_tracing, enable_tracing
    from repro.workloads import POLYBENCH_KERNELS

    if args.workload in POLYBENCH_KERNELS:
        spec = POLYBENCH_KERNELS[args.workload]
        module = spec.compile().clone()
        export, call_args = spec.run
    else:
        module = _load_module(args.workload)
        if not args.invoke:
            print("--invoke is required for file workloads", file=sys.stderr)
            return 2
        export, call_args = args.invoke, tuple(_parse_args_list(args.args))

    tracer = enable_tracing()
    try:
        sandbox = TwoWaySandbox.deploy(SandboxConfig(engine=args.engine))
        workload = sandbox.submit_module(module)
        result = workload.invoke(export, *call_args)
    finally:
        disable_tracing()
    tracer.write_chrome_trace(args.out)

    spans = tracer.finished()
    print(f"result: {result.value}" + ("  (trapped!)" if result.trapped else ""))
    print(f"{len(spans)} spans captured; Chrome trace written to {args.out}")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    for s in sorted(spans, key=lambda s: s.duration_ns, reverse=True)[:args.top]:
        print(f"  {s.name:<26} {s.duration_ns / 1e6:10.3f} ms  "
              f"span={s.span_id} parent={s.parent_id}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Drive a short gateway mix with metrics on; dump the exposition."""
    import json

    from repro.obs import disable_metrics, enable_metrics, get_registry
    from repro.obs.instruments import check_contract

    if args.check_contract:
        problems = check_contract()
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            return 1
        print("metric-name contract OK")
        return 0

    from repro.service.load import run_loadtest

    kernels = tuple(args.kernels.split(",")) if args.kernels else ("trisolv", "atax")
    registry = get_registry()
    registry.reset()
    enable_metrics()
    try:
        run_loadtest(
            worker_counts=(args.workers,),
            requests=args.requests,
            pool="thread",
            kernels=kernels,
            backend="wasm",
            verify_serial=False,
        )
    finally:
        disable_metrics()
    output = (
        json.dumps(registry.snapshot(), indent=2) + "\n"
        if args.json
        else registry.render_openmetrics()
    )
    if args.out:
        pathlib.Path(args.out).write_text(output)
        print(f"metrics written to {args.out}")
    else:
        sys.stdout.write(output)
    return 0


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", action="store_true",
                   help="attribute execution to Wasm functions and hot segments")
    p.add_argument("--profile-top", type=int, default=10,
                   help="rows in the hot-function report")
    p.add_argument("--profile-out",
                   help="write flamegraph collapsed stacks to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AccTEE reproduction: instrument, run and meter Wasm modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instrument", help="inject the weighted instruction counter")
    p.add_argument("module", help="a .wat file (or .mc MiniC source)")
    p.add_argument("--level", default="loop-based",
                   choices=["naive", "flow-based", "loop-based"])
    p.add_argument("--weighted", action="store_true",
                   help="use the cycle-calibrated weight table")
    p.add_argument("-o", "--output", help="write instrumented WAT here")
    p.set_defaults(fn=cmd_instrument)

    p = sub.add_parser("run", help="execute an exported function")
    p.add_argument("module")
    p.add_argument("--invoke", required=True)
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("--top", type=int, default=0, help="show N hottest instructions")
    p.add_argument("--engine", choices=ENGINES, default=None,
                   help="execution engine (default: compile, Wasm translated "
                        "to Python; predecode is the per-instruction reference)")
    _add_profile_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("snapshot",
                       help="run an export, suspend into a snapshot file")
    p.add_argument("module", help="a .wat file (or .mc MiniC source)")
    p.add_argument("--invoke", required=True)
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("--at", type=int, required=True,
                   help="suspend at the first observation point at or after "
                        "this many executed instructions")
    p.add_argument("--out", default="repro.snap", help="snapshot output path")
    p.add_argument("--engine", choices=ENGINES, default=None)
    p.set_defaults(fn=cmd_snapshot)

    p = sub.add_parser("resume",
                       help="resume a snapshot file under any engine")
    p.add_argument("snapshot", help="file written by 'repro snapshot'")
    p.add_argument("module", help="the same module the snapshot was taken from")
    p.add_argument("--at", type=int, default=None,
                   help="re-suspend after this many further executed "
                        "instructions (chained snapshots)")
    p.add_argument("--out", default=None,
                   help="re-captured snapshot path (default: overwrite input)")
    p.add_argument("--engine", choices=ENGINES, default=None,
                   help="engine to resume under — need not match the one "
                        "the snapshot was captured under")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("meter", help="price a run across the deployment ladder")
    p.add_argument("module")
    p.add_argument("--invoke", required=True)
    p.add_argument("--args", nargs="*", default=[])
    p.set_defaults(fn=cmd_meter)

    p = sub.add_parser("sandbox", help="full AccTEE protocol for one workload")
    p.add_argument("module", help="MiniC (.mc) or WAT (.wat) source")
    p.add_argument("--invoke", required=True)
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("--level", default="loop-based",
                   choices=["naive", "flow-based", "loop-based"])
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--export-log", help="dump the signed resource log to this JSON file")
    _add_profile_args(p)
    p.set_defaults(fn=cmd_sandbox)

    p = sub.add_parser("verify-log", help="offline verification of an exported log")
    p.add_argument("log", help="JSON file produced by 'sandbox --export-log'")
    p.add_argument("--key", help="JSON public key to pin (else the bundled key)")
    p.add_argument("--json", action="store_true",
                   help="print a machine-readable verdict instead of prose")
    p.set_defaults(fn=cmd_verify_log)

    p = sub.add_parser("serve", help="run the multi-tenant metering gateway")
    p.add_argument("--workers", type=int, default=2, help="execution pool size")
    p.add_argument("--pool", choices=["process", "thread"], default="process")
    p.add_argument("--backend", choices=["wasm", "modeled"], default="wasm",
                   help="execute for real, or pace with the Fig. 9 service-time model")
    p.add_argument("--requests", type=int, default=60, help="requests to serve")
    p.add_argument("--kernels", default="",
                   help="comma-separated PolyBench kernels (default: built-in mix)")
    p.add_argument("--queue-depth", type=int, default=None,
                   help="per-tenant max in-flight requests")
    p.add_argument("--rate-limit", type=float, default=None,
                   help="per-tenant requests/second cap")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="modeled-backend time compression (0 = no sleeping)")
    p.add_argument("--engine", choices=ENGINES, default=None)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("loadtest", help="sweep gateway worker counts, emit JSON")
    p.add_argument("--workers", default="1,2,4",
                   help="comma-separated worker counts to sweep")
    p.add_argument("--requests", type=int, default=60, help="requests per sweep point")
    p.add_argument("--pool", choices=["process", "thread"], default="process")
    p.add_argument("--backend", choices=["both", "wasm", "modeled"], default="both")
    p.add_argument("--kernels", default="",
                   help="comma-separated PolyBench kernels (default: built-in mix)")
    p.add_argument("--tenants", type=int, default=0, metavar="N",
                   help="fan the kernel mix out to N distinct tenants "
                        "(cycling kernels) to exercise per-tenant admission "
                        "and telemetry cardinality (default: one per kernel)")
    p.add_argument("--time-scale", type=float, default=1.0)
    p.add_argument("--no-serial", action="store_true",
                   help="skip the serial single-sandbox equivalence check")
    p.add_argument("--engine", choices=ENGINES, default=None)
    p.add_argument("--faults", default="",
                   help="chaos mode: inject faults, e.g. crash:7,hang:13 "
                        "(kinds: crash, hang, corrupt, slow; every Nth request)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault schedule and backoff jitter")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request wall-clock deadline in seconds "
                        "(default: none; 2.0 when --faults is given)")
    p.add_argument("--hang-s", type=float, default=3.0,
                   help="sleep injected by the hang fault (must exceed the deadline)")
    p.add_argument("--out", default="BENCH_service.json", help="output JSON path")
    p.add_argument("--metrics-out", default=None,
                   help="run with metrics enabled and merge the snapshot "
                        "into this JSON file")
    p.add_argument("--events-out", default=None,
                   help="record the structured telemetry event stream to "
                        "this JSONL file (replayable via 'repro alerts')")
    p.add_argument("--slo", default=None, metavar="RULES_JSON",
                   help="evaluate SLO rules over the run's event stream and "
                        "run the billing-drift audit; exit non-zero on a "
                        "page-severity alert or billing drift")
    p.add_argument("--slo-out", default=None,
                   help="write the SLO/drift telemetry report JSON here")
    p.add_argument("--no-validate", action="store_true",
                   help="disable worker meter-reading validation (drift-audit "
                        "demonstration: lets a 'corrupt' fault reach a receipt)")
    p.add_argument("--bench-append", default=None, metavar="BENCH_JSON",
                   help="append a timestamped distilled perf point to the "
                        "'trajectory' list inside this bench JSON file")
    p.add_argument("--preempt", type=int, default=0, metavar="N",
                   help="preempt every request after N executed instructions "
                        "per slice, checkpoint-bill and re-dispatch the "
                        "snapshot (implies --backend wasm)")
    p.add_argument("--trace-out", default=None, metavar="TRACE_JSON",
                   help="run with distributed tracing on and write the "
                        "stitched Chrome/Perfetto trace here; exit non-zero "
                        "if any completed request's trace failed to stitch "
                        "or its receipts lack the trace id")
    p.add_argument("--seal-window", type=int, default=16, metavar="N",
                   help="batch receipt sealing: one AE signature over a "
                        "Merkle root of N receipts per flush window "
                        "(0 = per-receipt signing, the paper's protocol)")
    p.set_defaults(fn=cmd_loadtest)

    p = sub.add_parser("soak",
                       help="million-tenant control-plane scale soak, emit JSON")
    p.add_argument("--tenants", default="1000,10000,100000,1000000",
                   help="comma-separated tenant counts to sweep")
    p.add_argument("--requests", type=int, default=50_000,
                   help="modeled requests per sweep point (fixed across "
                        "points so per-request overhead is comparable)")
    p.add_argument("--budget", type=int, default=64,
                   help="exact per-tenant series budget; the rest spills "
                        "to one __other__ series and a Space-Saving summary")
    p.add_argument("--top-k", type=int, default=64,
                   help="Space-Saving summary size per governed counter")
    p.add_argument("--max-resident", type=int, default=256,
                   help="resident lazy quota states before idle eviction")
    p.add_argument("--max-overhead-ratio", type=float, default=1.25,
                   help="gate: largest point's drift-normalised per-request "
                        "overhead over the smallest point's")
    p.add_argument("--rss-ceiling-mb", type=float, default=None,
                   help="gate: fail if any point's RSS exceeds this")
    p.add_argument("--no-isolate", action="store_true",
                   help="run sweep points in-process instead of one fresh "
                        "interpreter per point (faster, noisier)")
    p.add_argument("--out", default="BENCH_scale.json", help="output JSON path")
    p.set_defaults(fn=cmd_soak)

    p = sub.add_parser("top",
                       help="live rolling-window dashboard over the metrics "
                            "registry's windows")
    p.add_argument("--duration", type=float, default=10.0,
                   help="seconds to run the driver and dashboard")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between dashboard refreshes")
    p.add_argument("--window", type=float, default=30.0,
                   help="trailing window the dashboard aggregates over "
                        "(at most 600 s)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--backend", choices=["wasm", "modeled"], default="wasm")
    p.add_argument("--time-scale", type=float, default=0.2,
                   help="modeled-backend time compression")
    p.add_argument("--kernels", default="",
                   help="comma-separated PolyBench kernels (default: built-in mix)")
    p.add_argument("--tenants", type=int, default=0, metavar="N",
                   help="fan the kernel mix out to N distinct tenants")
    p.add_argument("--top-k", type=int, default=10,
                   help="tenant-table rows to rank in each frame")
    p.add_argument("--sort", choices=sorted(_TOP_SORT_COLUMNS),
                   default="events",
                   help="tenant-table sort column")
    p.add_argument("--rules", default=None,
                   help="SLO rules JSON to evaluate live on each refresh")
    p.add_argument("--plain", action="store_true",
                   help="append frames instead of clearing the screen (for "
                        "pipes and tests)")
    p.add_argument("--events-out", default=None,
                   help="write the captured event stream to this JSONL file")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("alerts",
                       help="evaluate SLO rules offline over a recorded stream")
    p.add_argument("--rules", required=True, help="SLO rules JSON file")
    p.add_argument("--replay", required=True,
                   help="events JSONL recorded by 'loadtest --events-out' "
                        "or 'top --events-out'")
    p.add_argument("--eval-every", type=float, default=1.0,
                   help="evaluation cadence in replayed seconds")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report instead of prose")
    p.set_defaults(fn=cmd_alerts)

    p = sub.add_parser("explain",
                       help="reconstruct one request's causal story from a "
                            "recorded event stream")
    p.add_argument("request_id", type=int,
                   help="the gateway request id to explain")
    p.add_argument("--events", required=True,
                   help="events JSONL recorded by 'loadtest --events-out'")
    p.add_argument("--gateway", default=None,
                   help="restrict to one gateway id (e.g. gw-3) when the "
                        "stream interleaves several sweep points")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report instead of prose")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("trace", help="traced workload run -> Chrome trace JSON")
    p.add_argument("workload",
                   help="a PolyBench kernel name (e.g. atax) or a .wat/.mc file")
    p.add_argument("--invoke", default=None, help="export to call (file workloads)")
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("--engine", choices=ENGINES, default=None)
    p.add_argument("--top", type=int, default=8, help="slowest spans to print")
    p.add_argument("--out", default="trace.json", help="Chrome trace output path")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("metrics",
                       help="drive a short gateway mix, dump OpenMetrics text")
    p.add_argument("--requests", type=int, default=12)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--kernels", default="",
                   help="comma-separated PolyBench kernels (default: trisolv,atax)")
    p.add_argument("--json", action="store_true",
                   help="JSON snapshot instead of OpenMetrics text")
    p.add_argument("--out", default=None, help="write the exposition here")
    p.add_argument("--check-contract", action="store_true",
                   help="verify registered metric names against "
                        "obs/metric_names.txt and exit")
    p.set_defaults(fn=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Trap as exc:
        print(f"trap: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
