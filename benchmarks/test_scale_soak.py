"""Control-plane scale soak — overhead and memory vs tenant population.

The paper's provider runs *many* tenants on one attested platform; this
experiment measures what the repo's control plane (admission, governed
metrics and their windows, the event log, live SLO evaluation) costs per
request as the tenant population sweeps decades, and gates the curve flat:
per-request overhead at the largest population within ``1.25x`` of the
smallest, every per-tenant structure bounded by its budget, the window
rings' keys bounded by a constant, the heaviest tenant still among the
requests counter's top rows.

CI runs a reduced sweep (up to 10^4 here; the workflow's scale-soak job
drives 10^5, and 10^6 is the nightly/manual leg) — the gates are
identical at every scale because the budgets sit below the smallest
population, so each point exercises the same governed steady state.

Artefacts:

* ``benchmarks/results/scale_soak.txt`` — human-readable table;
* ``BENCH_scale.json`` (repo root, written by ``repro soak``) — the full
  4-decade curve CI asserts against.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_scale_soak.py -q -s``.
"""

from __future__ import annotations

from benchmarks.conftest import emit_table, record
from repro.obs.soak import run_scale_soak

#: Reduced sweep for the in-suite run; the CLI covers the full decades.
TENANT_COUNTS = (1_000, 10_000)
REQUESTS = 20_000


def test_scale_soak_overhead_flat_and_structures_bounded(benchmark):
    result = run_scale_soak(
        tenant_counts=TENANT_COUNTS,
        requests=REQUESTS,
        isolate=False,  # in-suite: keep the run cheap; the CLI isolates
    )
    rows = [
        [
            point["tenants"],
            f"{point['per_request_us']:.1f}",
            f"{point['per_request_us_norm']:.1f}",
            f"{point['rss_mb']:.1f}",
            f"{point['overflow_ratio']:.2f}",
            point["structures"]["admission_resident"],
            point["structures"]["window_keys"],
            point["tenant_cardinality"],
        ]
        for point in result["points"]
    ]
    emit_table(
        "scale_soak",
        "Control-plane overhead vs tenant population "
        f"({REQUESTS} modeled requests per point)",
        ["tenants", "us/req", "us/req(norm)", "rss_mb", "overflow",
         "resident", "window_keys", "~cardinality"],
        rows,
    )
    record(benchmark)

    gates = result["gates"]
    assert gates["bounded_ok"], "per-tenant structures exceeded their budgets"
    assert gates["top_recovered_ok"], "heaviest tenant lost in the sketches"
    assert gates["overhead_ok"], (
        f"overhead ratio {gates['overhead_ratio']:.3f} exceeds "
        f"{gates['max_overhead_ratio']} — control-plane cost is not flat "
        "across tenant decades"
    )
    assert result["ok"]


def test_scale_point_memory_is_o_active_not_o_seen(benchmark):
    """RSS and structure sizes must not scale with ever-seen tenants."""
    small = run_scale_soak(
        tenant_counts=(2_000,), requests=6_000, isolate=False
    )["points"][0]
    large = run_scale_soak(
        tenant_counts=(200_000,), requests=6_000, isolate=False
    )["points"][0]
    record(benchmark)
    # 100x the tenant population: bounded structures must not move at all,
    # and RSS may grow only by the schedule/census slack, never 100x
    for field in ("admission_resident", "window_keys"):
        assert large["structures"][field] <= small["structures"][field] + 1
    assert large["rss_mb"] <= small["rss_mb"] * 1.5 + 16.0
