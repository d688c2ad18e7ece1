"""Interpreter throughput — pre-decoded vs. compiled engine.

Times both engines on a set of PolyBench kernels and reports wall-clock
instructions/second plus the speedup ratio.  One run of a kernel takes
0.3-7 ms on the compiled engine, too short for a single timing to mean
much, so each kernel runs ``REPEATS`` times per engine, each run on a fresh
instance.  The runs are interleaved, one round over every kernel and
engine at a time, so drift in machine load hits every cell alike; the
tables report each cell's median run.  The Wasm→Python compilation
engine (``repro.wasm.compile_engine``) must deliver >= 3x geomean over the
pre-decoded reference engine (``repro.wasm.predecode``) — the acceptance
bar for shipping it as a selectable engine.  A third cell per kernel,
``compile_loop_based_ips``, runs the loop-based instrumented module on
``compile``: the code workers actually serve, counters included (its
instruction count includes the counter updates).  It is reported, not
gated.

Artefacts (in the repository only with ``REPRO_BENCH_WRITE=1``, see
:func:`benchmarks.conftest.artifact_path`):

* ``benchmarks/results/interp_speed.txt`` — the human-readable table;
* ``BENCH_interp.json`` (repo root) — machine-readable per-kernel numbers
  for CI/regression tracking, plus a capped timestamped ``trajectory`` of
  distilled points (one per run) appended via the ``repro.obs.bench``
  helpers so throughput drift is visible across runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_interp_speed.py -q -s``.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time

import pytest

from benchmarks.conftest import artifact_path, emit_table, record
from repro.instrument import instrument_module
from repro.obs.bench import TRAJECTORY_LIMIT, append_point
from repro.wasm.interpreter import Instance
from repro.workloads import POLYBENCH_KERNELS


#: A spread of kernel shapes: dense linalg (gemm, 2mm), stencils (jacobi-1d,
#: jacobi-2d), triangular solve (trisolv) and a reduction-heavy one (atax).
KERNELS = ["gemm", "2mm", "jacobi-1d", "jacobi-2d", "trisolv", "atax"]

ENGINES = ["predecode", "compile"]

#: the timed cells per kernel: (engine, instrumentation level or None)
CELLS = [("predecode", None), ("compile", None), ("compile", "loop-based")]

#: timed runs per kernel and engine
REPEATS = 9


def _time_engine(name: str, engine: str, module=None) -> tuple[float, int]:
    """Run one kernel (``module``: an instrumented build of it) on a fresh
    instance under one engine; return (seconds, executed).  Garbage left by
    earlier runs is collected before the kernel's setup calls, so no run
    pays for another's, and the setup warms the caches the collection
    cooled."""
    spec = POLYBENCH_KERNELS[name]
    instance = Instance((module or spec.compile()).clone(), engine=engine)
    gc.collect()
    for fn, args in spec.setup:
        instance.invoke(fn, *args)
    start = time.perf_counter()
    instance.invoke(spec.run[0], *spec.run[1])
    elapsed = time.perf_counter() - start
    return elapsed, instance.stats.executed


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@pytest.fixture(scope="module")
def speed_rows():
    rows = []
    results = {}
    instrumented = {
        (name, level): instrument_module(
            POLYBENCH_KERNELS[name].compile().clone(), level
        ).module
        for name in KERNELS
        for _engine, level in CELLS
        if level is not None
    }
    runs: dict[tuple[str, tuple], list[float]] = {
        (name, cell): [] for name in KERNELS for cell in CELLS
    }
    counts: dict[tuple[str, str | None], int] = {}
    for _ in range(REPEATS):  # each round runs every kernel in every cell
        for name in KERNELS:
            for cell in CELLS:
                engine, level = cell
                elapsed, count = _time_engine(name, engine, instrumented.get((name, level)))
                runs[name, cell].append(elapsed)
                assert counts.setdefault((name, level), count) == count, (
                    "engines disagree on instruction count"
                )
    for name in KERNELS:
        executed = counts[name, None]
        loop_executed = counts[name, "loop-based"]
        seconds = {cell: statistics.median(runs[name, cell]) for cell in CELLS}
        ips = {engine: executed / seconds[engine, None] for engine in ENGINES}
        loop_ips = loop_executed / seconds["compile", "loop-based"]
        compile_speedup = ips["compile"] / ips["predecode"]
        rows.append(
            [
                name,
                executed,
                f"{ips['predecode'] / 1e6:.2f}",
                f"{ips['compile'] / 1e6:.2f}",
                f"{loop_ips / 1e6:.2f}",
                f"{compile_speedup:.2f}x",
            ]
        )
        results[name] = {
            "executed": executed,
            "loop_based_executed": loop_executed,
            "predecode_seconds": round(seconds["predecode", None], 6),
            "compile_seconds": round(seconds["compile", None], 6),
            "compile_loop_based_seconds": round(seconds["compile", "loop-based"], 6),
            "predecode_ips": round(ips["predecode"]),
            "compile_ips": round(ips["compile"]),
            "compile_loop_based_ips": round(loop_ips),
            "compile_speedup": round(compile_speedup, 3),
        }

    path = artifact_path("BENCH_interp.json")
    doc: dict = {}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["kernels"] = results
    doc["repeats"] = REPEATS
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    # one distilled, timestamped point per run; the helper caps the history
    # and preserves the full per-kernel snapshot written above
    point = {
        "ts_s": time.time(),
        "geomean_compile_over_predecode": round(
            _geomean([r["compile_speedup"] for r in results.values()]), 3
        ),
        "by_kernel": {
            name: {
                "predecode_ips": r["predecode_ips"],
                "compile_ips": r["compile_ips"],
                "compile_loop_based_ips": r["compile_loop_based_ips"],
            }
            for name, r in results.items()
        },
    }
    append_point(str(path), point)
    return rows


def test_interp_speed_table(speed_rows, benchmark):
    emit_table(
        "interp_speed",
        "Interpreter throughput: pre-decoded vs. compiled engine "
        f"(Minstr/s, wall clock, median of {REPEATS} runs)",
        [
            "kernel",
            "instructions",
            "predecode Mi/s",
            "compile Mi/s",
            "compile loop-based Mi/s",
            "cmp/pre",
        ],
        speed_rows,
    )
    record(benchmark)


def test_compile_speedup_geomean_at_least_3x(speed_rows, benchmark):
    """The compile engine's acceptance bar: >= 3x geomean over predecode."""
    speedups = [float(row[5].rstrip("x")) for row in speed_rows]
    geomean = _geomean(speedups)
    assert geomean >= 3.0, f"compile/predecode geomean too low: {geomean:.2f}"
    record(benchmark)


def test_bench_json_written(speed_rows, benchmark):
    data = json.loads(artifact_path("BENCH_interp.json").read_text())
    assert set(data["kernels"]) == set(KERNELS)
    for entry in data["kernels"].values():
        for column in ("predecode_ips", "compile_ips", "compile_loop_based_ips"):
            assert entry[column] > 0
    record(benchmark)


def test_bench_trajectory_appended(speed_rows, benchmark):
    data = json.loads(artifact_path("BENCH_interp.json").read_text())
    trajectory = data["trajectory"]
    assert 1 <= len(trajectory) <= TRAJECTORY_LIMIT
    latest = trajectory[-1]
    assert latest["geomean_compile_over_predecode"] > 0
    assert set(latest["by_kernel"]) == set(KERNELS)
    record(benchmark)
