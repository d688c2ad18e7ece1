"""Observability overhead — the off-by-default no-ops must stay (nearly) free.

Two layers of measurement:

* Micro: the per-call cost of a disabled ``span()`` and a disabled
  ``Counter.inc()`` in nanoseconds, against the enabled variants, so the
  "no-op when off" claim is a number rather than a slogan.
* Macro: PolyBench interpreter runs (both engines) with observability off
  vs. on.  Three configurations: everything off, tracing + metrics enabled
  (the production observability path — spans and counters sit at invoke /
  account granularity, never inside the dispatch loop), and additionally the
  attribution profiler (an opt-in diagnostic that hooks every call and, on
  the legacy engine, every instruction).  Gates: repeated obs-off runs must
  agree within 2% (the "no-op when off" claim), and tracing + metrics must
  cost under 5% — the CI gate, because CI runs the traced/metered workloads.
  Profiler cost is reported but not gated: per-instruction attribution on
  the legacy engine is inherently paid for only when ``--profile`` is asked
  for.

Artefacts:

* ``benchmarks/results/obs_overhead.txt`` — human-readable table;
* ``BENCH_obs.json`` (repo root) — machine-readable numbers merged with the
  ``repro loadtest --metrics-out`` snapshot for CI regression tracking.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -q -s``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import pytest

from benchmarks.conftest import emit_table, record
from repro.obs import (
    disable_all,
    enable_metrics,
    enable_profiling,
    enable_tracing,
    get_registry,
)
from repro.obs.events import EventLog, enable_events
from repro.obs.events import emit as emit_event
from repro.obs.metrics import Counter
from repro.obs.trace import span
from repro.wasm.interpreter import Instance
from repro.workloads import POLYBENCH_KERNELS

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_obs.json"

KERNEL = "gemm"  # ~160k instructions: long enough to beat scheduler jitter
RUNS = 7
MICRO_ITERS = 200_000

#: Relative overhead ceilings (fractions). The enabled bound is the CI gate.
DISABLED_CEILING = 0.02
ENABLED_CEILING = 0.05


@pytest.fixture(autouse=True)
def _obs_off():
    disable_all()
    yield
    disable_all()
    get_registry().reset()


def _merge_bench(payload: dict) -> None:
    try:
        existing = json.loads(BENCH_PATH.read_text())
        if not isinstance(existing, dict):
            existing = {}
    except (OSError, ValueError):
        existing = {}
    existing.update(payload)
    BENCH_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _time_loop(fn, iters: int) -> float:
    """Average per-call wall time of ``fn`` in nanoseconds."""
    start = time.perf_counter_ns()
    for _ in range(iters):
        fn()
    return (time.perf_counter_ns() - start) / iters


def _micro_costs() -> dict[str, float]:
    counter = Counter("obs_overhead_probe", "micro-benchmark probe")

    def span_call():
        with span("probe", tenant="t"):
            pass

    def counter_call():
        counter.inc(tenant="t")

    def emit_call():
        emit_event("probe", tenant="t")

    def baseline():
        pass

    costs = {}
    costs["call_baseline_ns"] = _time_loop(baseline, MICRO_ITERS)
    costs["span_disabled_ns"] = _time_loop(span_call, MICRO_ITERS)
    costs["counter_disabled_ns"] = _time_loop(counter_call, MICRO_ITERS)
    costs["emit_disabled_ns"] = _time_loop(emit_call, MICRO_ITERS)
    tracer = enable_tracing()
    enable_metrics()
    enable_events(EventLog(capacity=MICRO_ITERS + 1))
    costs["span_enabled_ns"] = _time_loop(span_call, MICRO_ITERS)
    costs["counter_enabled_ns"] = _time_loop(counter_call, MICRO_ITERS)
    costs["emit_enabled_ns"] = _time_loop(emit_call, MICRO_ITERS)
    tracer.clear()
    disable_all()
    return costs


def _kernel_run_seconds(engine: str) -> float:
    """One interpreter run of the kernel, wall seconds (setup untimed)."""
    spec = POLYBENCH_KERNELS[KERNEL]
    instance = Instance(spec.compile().clone(), engine=engine)
    for fn, args in spec.setup:
        instance.invoke(fn, *args)
    start = time.perf_counter()
    instance.invoke(spec.run[0], *spec.run[1])
    return time.perf_counter() - start


def _paired_rounds(engine: str, rounds: int) -> dict[str, object]:
    """Measure every obs configuration back to back, ``rounds`` times.

    Run-to-run jitter on shared/virtualised hardware dwarfs the effect being
    measured, so absolute best-of-N comparisons across separate phases are
    meaningless.  Instead each round times off, off-again, traced + metered
    and profiled within a few hundred milliseconds of each other and the
    overheads are taken as the *median of per-round ratios* — slow drift
    (CPU frequency scaling, noisy neighbours) hits both sides of each ratio
    equally and cancels.
    """
    ratios = {"off2": [], "traced": [], "profiled": []}
    best_off = float("inf")
    for _ in range(rounds):
        disable_all()
        off = _kernel_run_seconds(engine)
        off2 = _kernel_run_seconds(engine)
        tracer = enable_tracing()
        enable_metrics()
        traced = _kernel_run_seconds(engine)
        enable_profiling()
        profiled = _kernel_run_seconds(engine)
        tracer.clear()
        disable_all()
        get_registry().reset()
        best_off = min(best_off, off)
        ratios["off2"].append(off2 / off)
        ratios["traced"].append(traced / off)
        ratios["profiled"].append(profiled / off)
    return {
        "best_off_s": best_off,
        "medians": {k: statistics.median(v) for k, v in ratios.items()},
    }


@pytest.fixture(scope="module")
def overhead_numbers():
    disable_all()
    micro = _micro_costs()

    results = {"micro_ns": micro, "end_to_end": {}}
    rows = [
        ["span (disabled)", f"{micro['span_disabled_ns']:.0f} ns", "-"],
        ["span (enabled)", f"{micro['span_enabled_ns']:.0f} ns", "-"],
        ["counter.inc (disabled)", f"{micro['counter_disabled_ns']:.0f} ns", "-"],
        ["counter.inc (enabled)", f"{micro['counter_enabled_ns']:.0f} ns", "-"],
        ["event emit (disabled)", f"{micro['emit_disabled_ns']:.0f} ns", "-"],
        ["event emit (enabled)", f"{micro['emit_enabled_ns']:.0f} ns", "-"],
    ]

    for engine in ("predecode", "legacy"):
        disable_all()
        _kernel_run_seconds(engine)  # warm parse/compile caches
        paired = _paired_rounds(engine, RUNS)
        medians = paired["medians"]

        jitter = abs(medians["off2"] - 1.0)
        overhead = medians["traced"] - 1.0
        profiled_overhead = medians["profiled"] - 1.0
        results["end_to_end"][engine] = {
            "kernel": KERNEL,
            "obs_off_s": paired["best_off_s"],
            "disabled_jitter": jitter,
            "enabled_overhead": overhead,
            "profiled_overhead": profiled_overhead,
        }
        rows.append(
            [f"{KERNEL} ({engine})", f"{paired['best_off_s'] * 1e3:.1f} ms off",
             f"{overhead * 100:+.1f}% traced+metered, "
             f"{profiled_overhead * 100:+.1f}% profiled"]
        )

    emit_table(
        "obs_overhead",
        "Observability overhead (off-by-default no-ops vs. fully enabled)",
        ["probe", "cost", "overhead"],
        rows,
    )
    _merge_bench({"obs_overhead": results})
    return results


def test_disabled_noop_cost_is_negligible(overhead_numbers, benchmark):
    micro = overhead_numbers["micro_ns"]
    # a disabled span/counter/emit call is a function call, one global check
    # and a shared constant — order-of-a-microsecond, thousands of times
    # cheaper than the multi-millisecond operations they would wrap
    assert micro["span_disabled_ns"] < 2000
    assert micro["counter_disabled_ns"] < 2000
    assert micro["emit_disabled_ns"] < 2000
    assert micro["span_disabled_ns"] < micro["span_enabled_ns"]
    record(benchmark)


def test_disabled_overhead_bound_under_two_percent(overhead_numbers, benchmark):
    """Deterministic bound on the disabled-path cost of one sandbox run.

    A workload invocation passes ~8 disabled obs call sites (deploy, attest,
    submit, instrument, invoke, execute, account spans plus the sandbox
    counters).  Bounding generously at 4x that, the total disabled cost must
    stay under 2% of the fastest measured kernel run — a gate that does not
    depend on comparing two noisy wall-clock samples.
    """
    micro = overhead_numbers["micro_ns"]
    per_call_ns = max(micro["span_disabled_ns"], micro["counter_disabled_ns"])
    worst_disabled_s = 32 * per_call_ns * 1e-9
    for engine, numbers in overhead_numbers["end_to_end"].items():
        bound = worst_disabled_s / numbers["obs_off_s"]
        assert bound < DISABLED_CEILING, (
            f"{engine}: disabled obs call sites could cost {bound:.2%} of a "
            f"{numbers['obs_off_s'] * 1e3:.1f} ms run (gate {DISABLED_CEILING:.0%})"
        )
        # sanity: repeated obs-off runs should agree within the machine's
        # jitter band; wildly divergent repeats mean the numbers above are
        # not trustworthy at all
        assert numbers["disabled_jitter"] < 0.10, (
            f"{engine}: repeat obs-off runs differ by "
            f"{numbers['disabled_jitter']:.1%}; machine too noisy to measure"
        )
    record(benchmark)


def test_enabled_overhead_under_ci_gate(overhead_numbers, benchmark):
    for engine, numbers in overhead_numbers["end_to_end"].items():
        assert numbers["enabled_overhead"] < ENABLED_CEILING, (
            f"{engine}: full observability costs "
            f"{numbers['enabled_overhead']:.1%} (gate {ENABLED_CEILING:.0%})"
        )
    record(benchmark)


def test_bench_artifact_written(overhead_numbers, benchmark):
    doc = json.loads(BENCH_PATH.read_text())
    assert "obs_overhead" in doc
    assert set(doc["obs_overhead"]["end_to_end"]) == {"predecode", "legacy"}
    record(benchmark)


# -- telemetry pipeline: event log + aggregation riding a metered loadtest -----

PIPELINE_ROUNDS = 5
PIPELINE_CEILING = 0.05  # the CI gate for the full pipeline


def _loadtest_wall(pipeline: bool) -> float:
    from repro.service.load import run_loadtest

    result = run_loadtest(
        worker_counts=(2,), requests=12, pool="thread", backend="wasm",
        kernels=("trisolv",), verify_serial=False, quota_probe=False,
        pipeline=pipeline,
    )
    return result["sweep"][0]["wall_s"]


@pytest.fixture(scope="module")
def pipeline_numbers():
    """Paired on/off rounds of a real metered loadtest.

    Same methodology as :func:`_paired_rounds`: each round runs the identical
    workload with the pipeline off then on within seconds of each other, and
    the overhead is the median of per-round wall-clock ratios, so machine
    drift cancels instead of masquerading as pipeline cost.
    """
    disable_all()
    _loadtest_wall(False)  # warm module/compile caches
    ratios = []
    best_off = float("inf")
    for _ in range(PIPELINE_ROUNDS):
        off = _loadtest_wall(False)
        on = _loadtest_wall(True)
        best_off = min(best_off, off)
        ratios.append(on / off)
    overhead = statistics.median(ratios) - 1.0
    results = {
        "rounds": PIPELINE_ROUNDS,
        "best_off_s": best_off,
        "overhead": overhead,
        "ratios": ratios,
    }
    emit_table(
        "obs_pipeline_overhead",
        "Telemetry pipeline overhead on a metered loadtest (paired rounds)",
        ["probe", "cost", "overhead"],
        [["loadtest 12 req x 2 workers (wasm)", f"{best_off * 1e3:.1f} ms off",
          f"{overhead * 100:+.1f}% with events+aggregation+audit"]],
    )
    _merge_bench({"obs_pipeline_overhead": results})
    return results


def test_pipeline_overhead_under_gate(pipeline_numbers, benchmark):
    assert pipeline_numbers["overhead"] < PIPELINE_CEILING, (
        f"telemetry pipeline costs {pipeline_numbers['overhead']:.1%} of a "
        f"metered loadtest (gate {PIPELINE_CEILING:.0%})"
    )
    record(benchmark)


# -- distributed tracing: context propagation + worker telemetry backhaul ------

TRACE_ROUNDS = 5
TRACE_CEILING = 0.05  # the CI gate for tracing + backhaul + stitching


def _traced_loadtest(trace_out: str | None) -> dict:
    from repro.service.load import run_loadtest

    # preemption in both arms: every checkpoint re-dispatch is an extra hop
    # whose capture must ship home, so the traced arm pays the backhaul at
    # its worst while the untraced arm pays the same preemption cost
    return run_loadtest(
        worker_counts=(2,), requests=12, pool="thread", backend="wasm",
        kernels=("trisolv",), verify_serial=False, quota_probe=False,
        preempt_after=400, trace_out=trace_out,
    )


@pytest.fixture(scope="module")
def trace_numbers(tmp_path_factory):
    """Paired rounds of a preempting loadtest, untraced vs fully traced.

    The traced arm mints a context per request, activates the worker-side
    capture on every hop, ships spans/events/metric deltas back inside each
    ``WorkerResult``, merges them into the gateway tracer and verifies the
    per-request stitch — the complete distributed-tracing path.
    """
    disable_all()
    trace_out = str(tmp_path_factory.mktemp("trace") / "trace.json")
    _traced_loadtest(None)  # warm module/compile caches
    ratios = []
    best_off = float("inf")
    stitched = True
    for _ in range(TRACE_ROUNDS):
        off = _traced_loadtest(None)["sweep"][0]["wall_s"]
        traced_result = _traced_loadtest(trace_out)
        stitched = stitched and traced_result["trace_ok"]
        best_off = min(best_off, off)
        ratios.append(traced_result["sweep"][0]["wall_s"] / off)
    overhead = statistics.median(ratios) - 1.0
    results = {
        "rounds": TRACE_ROUNDS,
        "best_off_s": best_off,
        "overhead": overhead,
        "ratios": ratios,
        "stitched_every_round": stitched,
    }
    emit_table(
        "trace_backhaul_overhead",
        "Distributed tracing overhead on a preempting loadtest (paired rounds)",
        ["probe", "cost", "overhead"],
        [["loadtest 12 req x 2 workers, preempted", f"{best_off * 1e3:.1f} ms off",
          f"{overhead * 100:+.1f}% with propagation+backhaul+stitch"]],
    )
    _merge_bench({"trace_backhaul_overhead": results})
    return results


def test_trace_backhaul_overhead_under_gate(trace_numbers, benchmark):
    assert trace_numbers["overhead"] < TRACE_CEILING, (
        f"distributed tracing costs {trace_numbers['overhead']:.1%} of a "
        f"preempting loadtest (gate {TRACE_CEILING:.0%})"
    )
    record(benchmark)


def test_trace_backhaul_stitches_while_measured(trace_numbers, benchmark):
    assert trace_numbers["stitched_every_round"] is True
    record(benchmark)


def test_pipeline_off_keeps_signed_totals_byte_identical(benchmark):
    """Differential pin: the pipeline must be an observer, never a participant.

    With the pipeline off (the default), the gateway's aggregate signed
    totals must match a serial single-sandbox re-run byte for byte — exactly
    as before the pipeline existed.  And turning the pipeline *on* must not
    perturb them either: events narrate the billing path, they do not touch
    it.
    """
    from repro.service.load import run_loadtest

    for pipeline in (False, True):
        result = run_loadtest(
            worker_counts=(1,), requests=6, pool="thread", backend="wasm",
            kernels=("trisolv",), verify_serial=True, quota_probe=False,
            pipeline=pipeline,
        )
        assert result["serial_totals_match"] is True, (
            f"pipeline={pipeline}: signed totals diverged from serial baseline"
        )
        assert ("telemetry" in result) is pipeline
        if pipeline:
            assert result["telemetry"]["drift_ok"] is True
    record(benchmark)
