"""Metric-name contract, CLI observability surface, the loadtest verdict
(each gate's failure exits non-zero) and atomic cache/admission stats."""

import dataclasses
import json
import pathlib
import threading

import pytest

import repro.obs.instruments as instruments
from repro.cli import main
from repro.core.cache import InstrumentationCache
from repro.core.instrumentation_enclave import InstrumentationEnclave
from repro.obs import disable_all, get_registry
from repro.service import load
from repro.service.gateway import MeteringGateway
from repro.service.ledger import BillingLedger, EpochVerification
from repro.service.quota import AdmissionController, TenantQuota
from repro.wasm.wat_parser import parse_wat


@pytest.fixture(autouse=True)
def _obs_clean():
    disable_all()
    get_registry().reset()
    yield
    disable_all()
    get_registry().reset()


# -- metric-name contract ------------------------------------------------------


def test_contract_matches_registry():
    assert instruments.check_contract() == []


def test_contract_file_is_sorted_and_covers_every_family():
    names = instruments.contract_names()
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for prefix in ("acctee_gateway_", "acctee_cache_", "acctee_sandbox_",
                   "acctee_ledger_", "acctee_worker_pool_"):
        assert any(n.startswith(prefix) for n in names), f"no {prefix} metric"


def test_contract_detects_drift_both_ways(tmp_path, monkeypatch):
    drifted = tmp_path / "metric_names.txt"
    names = instruments.contract_names()
    drifted.write_text(
        "\n".join(["acctee_только_in_file"] + names[1:]) + "\n"
    )
    monkeypatch.setattr(instruments, "CONTRACT_PATH", drifted)
    problems = instruments.check_contract()
    assert any("missing from metric_names.txt" in p for p in problems)
    assert any("not registered" in p for p in problems)


def test_cli_check_contract_exit_codes(monkeypatch, tmp_path):
    assert main(["metrics", "--check-contract"]) == 0
    drifted = tmp_path / "metric_names.txt"
    drifted.write_text("acctee_missing_metric\n")
    monkeypatch.setattr(instruments, "CONTRACT_PATH", drifted)
    assert main(["metrics", "--check-contract"]) == 1


# -- the loadtest verdict: every gate's failure fails the run ------------------


def _loadtest_args(tmp_path, *extra, serial=False, metrics_out=None):
    args = [
        "loadtest", "--workers", "1", "--requests", "4", "--pool", "thread",
        "--backend", "wasm", "--kernels", "trisolv",
        "--out", str(tmp_path / "bench.json"), *extra,
    ]
    if not serial:
        args.append("--no-serial")
    if metrics_out:
        args += ["--metrics-out", str(metrics_out)]
    return args


SLO_RULES = pathlib.Path(__file__).parents[2] / "examples" / "slo_rules.json"


def _gates_line(out: str) -> str:
    [line] = [line for line in out.splitlines() if line.startswith("[wasm] gates:")]
    return line


def test_loadtest_exits_zero_when_epochs_verify(tmp_path):
    assert main(_loadtest_args(tmp_path)) == 0


def test_loadtest_passing_run_shows_every_gate_pass(tmp_path, capsys):
    assert main(_loadtest_args(
        tmp_path, "--trace-out", str(tmp_path / "trace.json"),
        "--events-out", str(tmp_path / "events.jsonl"),
        "--slo", str(SLO_RULES), serial=True,
    )) == 0
    captured = capsys.readouterr()
    assert _gates_line(captured.out) == (
        "[wasm] gates: epoch=pass serial=pass drift=pass slo=pass "
        "trace=pass quota_probe=pass"
    )
    assert captured.err == ""
    sweep = json.loads((tmp_path / "bench.json").read_text())["sweeps"]["wasm"]
    assert sweep["ok"] is True
    assert set(sweep["gates"]) == {
        "epoch", "serial", "drift", "slo", "trace", "quota_probe",
    }
    assert not any(sweep["gates"].values())


def _fail_epoch(monkeypatch):
    def failing_verify(self, seal=None):
        return EpochVerification(
            ok=False, epoch=0, receipts_checked=0,
            errors=("tenant-x: chain broken at sequence 3 (reordered or dropped)",),
        )

    monkeypatch.setattr(MeteringGateway, "verify_epoch", failing_verify)


def _fail_serial(monkeypatch):
    real = load.serial_baseline_totals

    def off_by_one(*args, **kwargs):
        totals = real(*args, **kwargs)
        return dataclasses.replace(
            totals, weighted_instructions=totals.weighted_instructions + 1
        )

    monkeypatch.setattr(load, "serial_baseline_totals", off_by_one)


def _fail_exactly_once(monkeypatch):
    real = BillingLedger.billed_requests

    def double_billed(self, tenant_id=None):
        return real(self, tenant_id) + (1 if tenant_id is None else 0)

    monkeypatch.setattr(BillingLedger, "billed_requests", double_billed)


def _fail_trace(monkeypatch):
    # receipts no longer carry the recomputable trace id
    monkeypatch.setattr(load, "trace_id_for", lambda gateway, request_id: "0" * 16)


def _fail_quota_probe(monkeypatch):
    # a budget the probe tenant cannot exhaust: its second request is admitted
    monkeypatch.setattr(load, "_PROBE_BUDGET", 10**12)


GATE_FAILURES = {
    # gate: (make it fail alone, extra loadtest flags, its stderr failure line)
    "epoch": (_fail_epoch, (), "epoch audit error: tenant-x: chain broken"),
    "serial": (_fail_serial, (), "differ from the serial sandbox"),
    "exactly_once": (_fail_exactly_once, ("--faults", "crash:3"), "billing not exactly-once"),
    "trace": (_fail_trace, ("--trace-out", "{tmp}/trace.json"), "stitched traces 0/4"),
    "quota_probe": (_fail_quota_probe, (), "over-quota probe admitted past its budget"),
}


@pytest.mark.parametrize("gate", sorted(GATE_FAILURES))
def test_loadtest_exits_nonzero_on_gate_failure(gate, tmp_path, monkeypatch, capsys):
    make_fail, extra, failure_line = GATE_FAILURES[gate]
    make_fail(monkeypatch)
    flags = [flag.format(tmp=tmp_path) for flag in extra]
    assert main(_loadtest_args(tmp_path, *flags, serial=gate == "serial")) == 1
    captured = capsys.readouterr()
    verdicts = dict(
        word.split("=") for word in _gates_line(captured.out).split(": ", 1)[1].split()
    )
    assert verdicts[gate] == "FAIL"
    assert all(v == "pass" for g, v in verdicts.items() if g != gate), verdicts
    assert any(
        line.startswith("[wasm] workers=1: ") and failure_line in line
        for line in captured.err.splitlines()
    ), captured.err
    # the report records the same verdict for the JSON artifact
    sweep = json.loads((tmp_path / "bench.json").read_text())["sweeps"]["wasm"]
    assert sweep["ok"] is False
    assert sweep["gates"][gate]
    if gate == "epoch":
        point = sweep["sweep"][0]
        assert point["epoch_ok"] is False
        assert point["epoch_errors"]


def test_loadtest_metrics_out_merges_snapshot(tmp_path):
    metrics_path = tmp_path / "BENCH_obs.json"
    metrics_path.write_text(json.dumps({"existing": 1}))
    assert main(_loadtest_args(tmp_path, metrics_out=metrics_path)) == 0
    merged = json.loads(metrics_path.read_text())
    assert merged["existing"] == 1  # pre-existing keys survive the merge
    snapshot = merged["loadtest_metrics"]
    assert snapshot["acctee_gateway_requests"]["kind"] == "counter"
    served = sum(snapshot["acctee_gateway_requests"]["values"].values())
    assert served >= 4


# -- satellite: cache stats are an atomic snapshot -----------------------------

COUNT_WAT = "(module (func (export \"f\") (result i32) (i32.const %d)))"


def _distinct_module(i: int):
    return parse_wat(COUNT_WAT % i)


def test_cache_stats_snapshot_is_atomic_under_concurrency():
    cache = InstrumentationCache(InstrumentationEnclave(), max_entries=4)
    stop = threading.Event()
    bad: list[dict] = []

    def reader():
        while not stop.is_set():
            snap = cache.stats()
            if snap["hits"] + snap["misses"] != snap["lookups"]:
                bad.append(snap)

    def writer(seed: int):
        for i in range(30):
            cache.instrument(_distinct_module((seed * 30 + i) % 8))

    readers = [threading.Thread(target=reader) for _ in range(2)]
    writers = [threading.Thread(target=writer, args=(s,)) for s in range(3)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    for t in readers:
        t.join()
    assert not bad, f"torn stats snapshots observed: {bad[:3]}"
    final = cache.stats()
    assert final["lookups"] == 90
    assert final["hits"] + final["misses"] == 90
    assert final["evictions"] > 0  # max_entries=4 with 8 distinct modules


def test_cache_stats_exposes_lookups():
    cache = InstrumentationCache(InstrumentationEnclave())
    module = _distinct_module(1)
    cache.instrument(module)
    cache.instrument(_distinct_module(1))
    snap = cache.stats()
    assert snap["lookups"] == 2
    assert snap["hits"] == 1
    assert snap["misses"] == 1
    assert snap["hit_rate"] == 0.5


# -- satellite rider: admission stats read under the controller lock ----------


def test_admission_stats_consistent_under_concurrent_settle():
    ctrl = AdmissionController()
    ctrl.register("t", TenantQuota())
    stop = threading.Event()
    bad: list[dict] = []

    def reader():
        while not stop.is_set():
            snap = ctrl.stats("t")
            settled = snap["admitted"] - snap["in_flight"]
            if settled < 0 or snap["spent_instructions"] != settled * 10:
                bad.append(snap)

    def churn():
        for _ in range(200):
            ctrl.admit("t")
            ctrl.settle("t", 10)

    readers = [threading.Thread(target=reader) for _ in range(2)]
    workers = [threading.Thread(target=churn) for _ in range(3)]
    for t in readers + workers:
        t.start()
    for t in workers:
        t.join()
    stop.set()
    for t in readers:
        t.join()
    assert not bad, f"torn admission snapshots: {bad[:3]}"
    final = ctrl.stats("t")
    assert final["admitted"] == 600
    assert final["in_flight"] == 0
    assert final["spent_instructions"] == 6000
