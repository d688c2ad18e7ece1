"""Metering-gateway loadtest: throughput/latency scaling across worker counts.

Drives :func:`repro.service.load.run_loadtest` over the PolyBench tenant
mix on both execution backends and emits the scaling table referenced by
EXPERIMENTS.md.  The ``modeled`` backend paces requests with the Fig. 9
service-time model, so its worker scaling is honest even on a single-core
container; the ``wasm`` backend executes for real and scales only with
physical cores.

Shape targets: every epoch verifies offline, the over-quota probe tenant is
rejected with a typed error at every sweep point, aggregate metered totals
are byte-identical to a serial single-sandbox run, and the modeled backend
shows >=1.5x throughput at 4 workers over 1.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit_table, record
from repro.service.load import run_loadtest

WORKER_COUNTS = (1, 2, 4)
REQUESTS = 12
KERNELS = ("atax", "trisolv", "gesummv")


@pytest.fixture(scope="module")
def modeled_sweep():
    return run_loadtest(
        worker_counts=WORKER_COUNTS,
        requests=REQUESTS,
        pool="thread",
        kernels=KERNELS,
        backend="modeled",
        time_scale=0.4,
    )


@pytest.fixture(scope="module")
def wasm_sweep():
    return run_loadtest(
        worker_counts=WORKER_COUNTS,
        requests=REQUESTS,
        pool="thread",
        kernels=KERNELS,
        backend="wasm",
    )


def _emit(name: str, title: str, result) -> None:
    rows = [
        [
            point["workers"],
            round(point["throughput_rps"], 1),
            round(point["latency_s"]["p50"] * 1000, 2),
            round(point["latency_s"]["p95"] * 1000, 2),
            round(point["latency_s"]["p99"] * 1000, 2),
            point["epoch_ok"],
            point["quota_rejection"]["code"],
        ]
        for point in result["sweep"]
    ]
    emit_table(
        name,
        title,
        ["workers", "rps", "p50 [ms]", "p95 [ms]", "p99 [ms]", "epoch ok", "probe rejection"],
        rows,
    )


def test_gateway_modeled_scaling(modeled_sweep, benchmark):
    record(benchmark)
    _emit(
        "service_gateway_modeled",
        "Metering gateway: modeled backend (Fig. 9 service times), PolyBench mix",
        modeled_sweep,
    )
    for point in modeled_sweep["sweep"]:
        assert point["epoch_ok"]
        assert point["quota_rejection"]["code"] == "instruction-budget-exhausted"
    assert modeled_sweep["serial_totals_match"]
    # paced replay makes worker scaling honest even on one core
    assert modeled_sweep["speedup_4_over_1"] >= 1.5


def test_gateway_wasm_backend(wasm_sweep, benchmark):
    record(benchmark)
    _emit(
        "service_gateway_wasm",
        "Metering gateway: wasm backend (real execution), PolyBench mix",
        wasm_sweep,
    )
    for point in wasm_sweep["sweep"]:
        assert point["epoch_ok"]
        assert point["quota_rejection"]["code"] == "instruction-budget-exhausted"
        assert point["throughput_rps"] > 0
    assert wasm_sweep["serial_totals_match"]
    # real execution only scales with physical cores: the sweep records the
    # core count and marks the gate advisory when the box has fewer cores
    # than workers, in which case we only require no collapse (adaptive
    # sizing keeps the oversubscribed pool at parity instead of thrashing)
    gate = wasm_sweep["speedup_gate"]
    assert gate["cores_available"] == wasm_sweep["cores_available"]
    if gate["advisory"]:
        assert wasm_sweep["speedup_4_over_1"] > 0.5
    else:
        assert wasm_sweep["speedup_4_over_1"] >= 1.5


def test_gateway_batched_sealing_throughput(benchmark):
    """Batched Merkle sealing vs per-receipt signing, overhead-isolated.

    ``time_scale=0`` zeroes the modeled service times so the sweep measures
    pure gateway overhead — admission, dispatch, accounting, sealing — which
    is where per-receipt RSA signing dominates.  One signature per flush
    window (over the Merkle root of 16 receipt bodies) replaces one per
    receipt; measured uplift on this path is 3-5x per run (6x+ at longer
    runs), gated conservatively at 2x to absorb CI noise.
    """
    record(benchmark)
    common = dict(
        worker_counts=(4,),
        requests=200,
        pool="thread",
        kernels=("trisolv", "atax"),
        backend="modeled",
        time_scale=0.0,
        quota_probe=False,
        verify_serial=False,
    )
    unbatched = run_loadtest(seal_window=None, **common)["sweep"][0]
    batched = run_loadtest(seal_window=16, **common)["sweep"][0]
    emit_table(
        "service_gateway_batched_sealing",
        "Batched Merkle sealing vs per-receipt signing (modeled, 4 workers, overhead only)",
        ["sealing", "rps", "p95 [ms]", "AE sigs/request", "epoch ok"],
        [
            [
                "per-receipt",
                round(unbatched["throughput_rps"], 1),
                round(unbatched["latency_s"]["p95"] * 1000, 2),
                round(unbatched["signatures"]["per_request"], 4),
                unbatched["epoch_ok"],
            ],
            [
                "batched (window 16)",
                round(batched["throughput_rps"], 1),
                round(batched["latency_s"]["p95"] * 1000, 2),
                round(batched["signatures"]["per_request"], 4),
                batched["epoch_ok"],
            ],
        ],
    )
    assert unbatched["epoch_ok"] and batched["epoch_ok"]
    assert unbatched["signatures"]["per_request"] == 1.0
    assert batched["signatures"]["per_receipt"] == 0
    assert batched["signatures"]["batch_seals"] > 0
    ratio = batched["throughput_rps"] / unbatched["throughput_rps"]
    assert ratio >= 2.0, f"batched sealing uplift collapsed: {ratio:.2f}x"


def test_gateway_loadtest_measurement(benchmark):
    benchmark.pedantic(
        lambda: run_loadtest(
            worker_counts=(1,),
            requests=4,
            pool="thread",
            kernels=("trisolv",),
            verify_serial=False,
            quota_probe=False,
        ),
        rounds=1,
        iterations=1,
    )
