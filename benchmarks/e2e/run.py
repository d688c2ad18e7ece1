"""End-to-end serving benchmark for the AccTEE metering gateway.

From the repository root::

    python3 benchmarks/e2e/run.py [run] [--workload W] [--seed S] [--seconds N]
                                  [--trace 0|1] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR

(``python -m benchmarks.e2e`` takes the same arguments.)  Without
``--workload`` every workload runs.  Every run measures ``--seconds`` of
timed rounds, untraced (``run_seconds`` in ``BENCHMARK.json`` by default).
``--trace 0`` reports their end-to-end metrics; ``--trace 1`` adds a
quarter as many traced rounds and reports the per-layer metrics; without
``--trace`` a run reports both.  Each measurement runs in a fresh
interpreter.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any wrong answer, receipt or
epoch exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.compare import main as compare  # noqa: E402
from benchmarks.e2e.workloads import PINNED_ENV, WORKLOADS  # noqa: E402

#: ``setup_s`` is the median of this many fresh-interpreter set-ups.
SETUP_SAMPLES = 3
#: Wall-clock budget for one workload's measurement, all children included.
RUN_BUDGET_S = 170.0
#: ``--smoke``: one short round per workload and a single set-up.
SMOKE_ROUND_S = 0.5


class ChildFailed(Exception):
    pass


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(argv: list[str], deadline: float) -> dict:
    """Run ``benchmarks.e2e.serve`` in a fresh interpreter; its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.serve", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed("timed out")
    finally:
        try:  # the worker processes share the child's session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exited with status {proc.returncode}")
    return json.loads(lines[-1])


def measure(name: str, args, spec: dict) -> dict:
    """One workload: its main run plus extra set-up samples."""
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[name]
    if args.smoke:
        rounds, round_s = 1, min(workload.round_s, SMOKE_ROUND_S)
    else:
        rounds, round_s = max(1, round(args.seconds / workload.round_s)), workload.round_s
    common = [
        "--workload", name, "--seed", str(args.seed), "--round-seconds", repr(round_s),
    ]
    if args.tamper_reference:
        common.append("--tamper-reference")
    end_to_end = args.trace != "1"
    per_layer = args.trace != "0"
    stem = f"{name}-trace{args.trace if args.trace is not None else 'both'}-seed{args.seed}"
    main = common + ["--rounds", str(rounds)]
    if per_layer:
        main += ["--traced-rounds", str(max(1, rounds // 4))]
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        if per_layer:
            main += ["--trace-out", str(Path(args.out) / f"{stem}.trace.json")]
    child = run_child(main, deadline)

    result = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cores_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "correct": True,
        "attempted": child["attempted"],
        "failed": child["failed"],
    }
    values = {**child["metrics"], **child.get("layers", {})}
    expected = (spec["end_to_end"] if end_to_end else []) + (
        spec["per_layer"] if per_layer else []
    )
    result.update(child["diagnostics"])
    if end_to_end:
        setups = [(child["setup_s"], child["raw_setup_s"])]
        for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
            extra = run_child(common + ["--setup-only"], deadline)
            setups.append((extra["setup_s"], extra["raw_setup_s"]))
        values["setup_s"] = (statistics.median(s for s, _raw in setups), len(setups))
        result["unscaled"]["setup_s"] = statistics.median(raw for _s, raw in setups)
    if per_layer:
        result["self_time_ms"] = child["self_time_ms"]
    missing = [m["name"] for m in expected if m["name"] not in values]
    if missing:
        raise ChildFailed(f"no value for {', '.join(missing)}")
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]][0], "unit": m["unit"], "n": values[m["name"]][1]}
        for m in expected
    }
    if args.out:
        (Path(args.out) / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_table(result: dict) -> None:
    header = (
        f"{result['workload']}  seed {result['seed']}"
        f"  generator lag p99 {result['gen_lag_p99_ms']:.3f} ms"
        f"  latency_p90_ms {result['latency_p90_ms']:.4f}"
    )
    if result.get("latency_p99_ms") is not None:
        header += f"  latency_p99_ms {result['latency_p99_ms']:.4f}"
    print(header)
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:9s} n={m['n']}")
    for name, t in list(result.get("self_time_ms", {}).items())[:8]:
        print(f"  self time  {name:34s} {t['self_ms']:10.2f} ms over {t['count']} spans")


def run(args, spec: dict) -> int:
    pinned = [var for var in PINNED_ENV if var in os.environ]
    if pinned:
        print(
            f"refusing to run: {', '.join(pinned)} set; each changes the program "
            "being measured",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program is not under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        try:
            results.append(measure(name, args, spec))
        except ChildFailed as exc:
            print(f"{name}: measurement failed ({exc})", file=sys.stderr)
            return 1
        print_table(results[-1])
    single = len(results) == 1 and args.trace is not None
    metrics = {
        (k if single else f"{r['workload']}/{k}"): {"value": m["value"], "unit": m["unit"]}
        for r in results
        for k, m in r["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["run"]:
        argv = argv[1:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="timed rounds' total length; compare pairs only runs of equal length",
    )
    parser.add_argument("--trace", choices=("0", "1"), default=None)
    parser.add_argument("--out", default=None, help="directory for result JSONs and traces")
    parser.add_argument("--smoke", action="store_true", help="one short round per workload")
    parser.add_argument("--tamper-reference", action="store_true", help=argparse.SUPPRESS)
    return run(parser.parse_args(argv), spec)


if __name__ == "__main__":
    sys.exit(main())
