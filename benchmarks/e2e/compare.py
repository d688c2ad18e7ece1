"""Compare parent and change: two directories of result JSONs.

    python3 benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR

Runs pair up by workload, trace mode and seed; a pair whose two runs
measured for different ``--seconds`` is refused (exit 2), because run length
sets the receipt totals behind ``rss_mb``.  Per workload and metric the
verdict is one of:

* ``improved`` — the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range; needs at least 10 pairs;
* ``worse`` — the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` (per-layer metrics, which have no
  bound, by the mirror of the gain rule);
* ``unresolved`` — the parent's own spread is wider than the bound, and not
  every change run reads better than every parent run;
* ``unchanged`` — otherwise.

A workload whose change runs fail more requests than its parent runs is
flagged ``worse`` on ``errors``.  Exits 1 if anything is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> dict:
    """``(workload, trace) -> seed -> result`` for every result file."""
    runs: dict = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        result = json.loads(path.read_text())
        if result.get("smoke"):
            continue
        runs[(result["workload"], result["trace"])][result["seed"]] = result
    return runs


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(pairs: list[tuple[float, float]], better: str, bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    parent = [p for p, _c in pairs]
    change = [c for _p, c in pairs]
    base = statistics.median(parent)
    gap = sign * (statistics.median(change) - base)  # > 0: change is better
    spread = iqr(parent)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gap > spread:
        return "improved"
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and -gap > spread:
            return "worse"
        return "unchanged"
    if -gap > bound * abs(base):
        return "worse"
    if spread > bound * abs(base):
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return "unchanged" if all_better else "unresolved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent_runs, change_runs = load(argv[0]), load(argv[1])
    keys = sorted(set(parent_runs) & set(change_runs), key=str)
    paired = {
        key: [
            (parent_runs[key][s], change_runs[key][s])
            for s in sorted(set(parent_runs[key]) & set(change_runs[key]))
        ]
        for key in keys
    }
    for (workload, trace), pairs_of in paired.items():
        for p, c in pairs_of:
            if p["seconds"] != c["seconds"]:
                print(
                    f"{workload} (trace {trace}) seed {p['seed']}: parent ran "
                    f"{p['seconds']} s, change {c['seconds']} s; not comparable",
                    file=sys.stderr,
                )
                return 2
    any_worse = False
    for (workload, trace), pairs_of in paired.items():
        lags = [statistics.median(r["gen_lag_p99_ms"] for r in side) for side in zip(*pairs_of)]
        note = f"{len(pairs_of)} pairs"
        if lags:
            note += f", generator lag p99 parent {lags[0]:.3g} ms, change {lags[1]:.3g} ms"
        if len(pairs_of) < MIN_PAIRS:
            note += f"; fewer than {MIN_PAIRS} pairs, so no gain can be claimed"
        print(f"{workload} (trace {trace}): {note}")
        for name, spec_m in metrics.items():
            pairs = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs_of
                if name in p["metrics"] and name in c["metrics"]
            ]
            if not pairs:
                continue
            v = verdict(pairs, spec_m["better"], spec_m.get("bound"))
            any_worse |= v == "worse"
            parent = [p for p, _c in pairs]
            change = [c for _p, c in pairs]
            print(
                f"  {name:34s} {v:10s} parent {statistics.median(parent):.6g} "
                f"(IQR {iqr(parent):.3g})  change {statistics.median(change):.6g} "
                f"(IQR {iqr(change):.3g})"
            )
        failed = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
                  for side in zip(*pairs_of)] if pairs_of else [0, 0]
        if failed[1] > failed[0]:
            any_worse = True
            print(f"  {'errors':34s} {'worse':10s} parent {failed[0]:.4g}  change {failed[1]:.4g}")
    return 1 if any_worse else 0
