"""Self-test of the end-to-end benchmark (about 20 s).

Runs ``--smoke`` (one short round per workload) and checks that every
metric ``BENCHMARK.json`` names is printed with its unit, that the layer
metrics see the layers each workload exists for, and that a tampered
reference answer fails the run.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.compare import main as compare
from benchmarks.e2e.compare import verdict

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + list(args), cwd=ROOT, capture_output=True, text=True, timeout=170, env=env
    )


@pytest.fixture(scope="module")
def smoke() -> tuple[str, dict]:
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_benchmark_metric_is_printed_with_its_unit(smoke):
    table, result = smoke
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            key = f"{workload['name']}/{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"], key
            assert f"{metric['name']} " in table


def test_layer_metrics_see_each_workloads_layers(smoke):
    _table, result = smoke
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("faas-small", "faas-heavy", "faas-preempt"):
        assert m[f"{name}/wasm.invoke_us"] > 0
        assert m[f"{name}/worker.exec_wall_ms"] > 0
    # preemption: snapshots restored, checkpoint receipts between finals
    assert m["faas-preempt/snapshot.restore_us"] > 0
    assert m["faas-preempt/snapshot.checkpoints_per_request"] >= 1
    assert m["faas-preempt/worker.dispatches_per_request"] > 1
    assert m["faas-small/snapshot.restore_us"] == 0
    # the modeled backend executes nothing
    assert m["control-plane/wasm.invoke_us"] == 0
    for workload in SPEC["workloads"]:
        name = workload["name"]
        assert m[f"{name}/ae.account_us"] > 0
        assert m[f"{name}/ledger.record_us"] > 0
        assert 0 <= m[f"{name}/closure.unaccounted_ratio"] < 1


def test_tampered_reference_fails_the_run():
    proc = _run("--smoke", "--workload", "faas-small", "--tamper-reference")
    assert proc.returncode != 0
    assert "correctness check failed" in proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert not lines or '"correct": true' not in lines[-1]


def test_a_setting_that_changes_the_program_is_refused():
    env = dict(os.environ, REPRO_WASM_ENGINE="legacy")
    proc = _run("--smoke", "--workload", "faas-small", env=env)
    assert proc.returncode != 0
    assert "REPRO_WASM_ENGINE" in proc.stderr


def test_compare_verdicts():
    same = [(10.0, 10.0)] * 10
    assert verdict(same, "lower", 0.1) == "unchanged"
    faster = [(10.0 + i % 3, 5.0 + i % 3) for i in range(10)]
    assert verdict(faster, "lower", 0.1) == "improved"
    assert verdict(faster[:5], "lower", 0.1) == "unchanged"  # too few pairs to claim
    slower = [(b, a) for a, b in faster]
    assert verdict(slower, "lower", 0.1) == "worse"
    noisy = [(10.0 * (1 + (i % 4)), 10.0 * (1 + (i % 4))) for i in range(10)]
    assert verdict(noisy, "lower", 0.1) == "unresolved"


def test_compare_refuses_runs_of_different_lengths(tmp_path):
    for side, seconds in (("parent", 18.0), ("change", 12.0)):
        (tmp_path / side).mkdir()
        result = {
            "workload": "faas-small", "trace": "0", "seed": 1, "seconds": seconds,
            "gen_lag_p99_ms": 0.2, "attempted": 1, "failed": 0, "metrics": {},
        }
        (tmp_path / side / "run.json").write_text(json.dumps(result))
    assert compare([str(tmp_path / "parent"), str(tmp_path / "change")]) == 2
