"""Synthetic million-tenant scale soak for the control plane.

The gateway's *execution* path scales with workers; the question this
harness answers is whether the **control plane** — admission control,
metrics and their windows, the event log, SLO evaluation — stays fast and
bounded as the *tenant population* grows from 10^3 to 10^6.

Real-gateway fan-out cannot get there: each registered tenant mints an
attested AE (pure-python RSA keygen, ~1 s apiece), which is 11 days of
setup at 10^6 tenants.  So the soak drives the same control-plane objects
the gateway uses — an :class:`~repro.service.quota.AdmissionController`
with lazy default-quota tenants, the governed metrics registry whose
windows the SLO signals read, a bounded :class:`~repro.obs.events.EventLog`,
and a live SLO engine over the registry — with
a **modeled request loop**: per request, admit → the gateway's own
lifecycle transitions (:mod:`repro.service.lifecycle`) with a deterministic
modeled latency → settle.  No Wasm executes; what is measured is exactly
the per-request control-plane overhead the gateway adds around execution.

Tenant popularity is Zipf-distributed (rank-``r`` weight ``r^-s``), the
regime the governance layer is designed for: a small head of tenants that
deserves exact series and a huge tail that must spill to sketches.  The
request *count* is fixed across sweep points so per-request overhead is
comparable; the tenant *population* is what sweeps.

Each point reports per-request overhead, process RSS, and the sizes of
every per-tenant structure; :func:`run_scale_soak` gates the curve —
overhead at the largest point within ``max_overhead_ratio`` of the
smallest, every structure bounded by its configured budget, the window
rings' keys by :data:`MAX_WINDOW_KEYS` at any tenant count, the heaviest
tenant recoverable from the requests counter — and the result is what
``repro soak`` writes to ``BENCH_scale.json`` and CI asserts flat.
"""

from __future__ import annotations

import statistics
import time

from repro.obs.events import EventLog, disable_events, enable_events, get_event_log
from repro.obs.instruments import GATEWAY
from repro.obs.metrics import (
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    set_tenant_budget,
)
from repro.obs.sketch import TenantSpill
from repro.obs.slo import Rule, SLOEngine, resolve_signal
from repro.service.lifecycle import LifecycleRecorder
from repro.service.quota import AdmissionController, AdmissionError, TenantQuota

#: Default sweep: one point per tenant-count decade.
DEFAULT_TENANT_COUNTS = (1_000, 10_000, 100_000, 1_000_000)

#: Times the sweep runs, points interleaved; each point reports its median run.
SWEEP_ROUNDS = 9

#: Bound on the registry's window keys at a point: one per outcome plus the
#: latency key at any tenant count (a window keyed by tenant would hold the
#: exact budget, 64 by default).
MAX_WINDOW_KEYS = 8

#: Modeled service-time palette (seconds); tenants cycle through it so
#: latency histograms see spread without a random source.
_MODELED_LATENCY_S = tuple(0.0005 + 0.0002 * i for i in range(7))

#: SLO rules evaluated live during the soak — the point is that evaluation
#: cost is O(top-K), not O(tenants), so they ride inside the timed loop.
_SOAK_RULES = (
    Rule(
        name="soak-p99",
        kind="threshold",
        severity="warn",
        signal="latency_p99_s",
        op=">",
        threshold=0.5,
        window_s=30.0,
    ),
    Rule(
        name="soak-overflow",
        kind="threshold",
        severity="info",
        signal="overflow_ratio",
        op=">",
        threshold=0.99,
        window_s=30.0,
    ),
)


def _zipf_schedule(tenants: int, requests: int, s: float, seed: int) -> list[int]:
    """``requests`` tenant ranks (0-based) sampled from a Zipf(s) popularity.

    Inverse-CDF over precomputed cumulative weights; numpy when available
    (10^6-rank setup in milliseconds), bisect otherwise.  The weight table
    is O(tenants) but strictly *setup* — it is dropped before the timed
    loop, so it never pollutes the RSS the soak is bounding.
    """
    try:
        import numpy as np

        rng = np.random.default_rng(seed)
        weights = np.arange(1, tenants + 1, dtype=np.float64) ** -s
        cumulative = np.cumsum(weights)
        draws = rng.random(requests) * cumulative[-1]
        ranks = np.searchsorted(cumulative, draws, side="left")
        return ranks.tolist()
    except ImportError:
        import bisect
        import random

        rng = random.Random(seed)
        cumulative = []
        total = 0.0
        for rank in range(1, tenants + 1):
            total += rank**-s
            cumulative.append(total)
        return [
            bisect.bisect_left(cumulative, rng.random() * total)
            for _ in range(requests)
        ]


def _vm_rss_mb() -> float:
    """Resident set size in MiB (``/proc`` on linux, ``ru_maxrss`` fallback)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Iterations of one machine-speed probe (about 2 ms): short enough to
#: run after every timed chunk of a point's loop.
_PROBE_ITERS = 300

#: The probe's fixed tenant set: more than the probe governor's budget,
#: so it spills and maintains its summary like the loop's governors.
_PROBE_TENANTS = tuple("probe%d" % i for i in range(97))


def _calibration_us() -> float:
    """Machine-speed probe: µs per iteration of a fixed control-plane mix.

    Sweep points run minutes apart, and on a shared machine the speed the
    process actually gets drifts over that span and within it (frequency
    scaling, co-tenant pressure on shared cores and caches).  A probe runs
    right after each timed chunk of a point's loop and the chunk's cost is
    divided by it, so the soak gate compares tenant-count scaling rather
    than how fast the machine happened to be while a chunk ran.

    The probe does the point loop's kinds of work — lazy admission and
    settlement, a tenant governor's routing and summary maintenance — on
    private objects and a fixed tenant set, so it slows down under
    co-tenant pressure by about as much as the loop does.  (A tight
    dict/str loop does not: it slowed almost 2x when the loop slowed 1.5x,
    and normalising by it moved the overhead ratio by that difference.)  No
    metric instrument runs in it, so ``per_request_us_norm`` compares across
    commits that change the instruments.  Timed in thread CPU time.
    """
    admission = AdmissionController(default_quota=TenantQuota(max_queue_depth=8))
    spill = TenantSpill(budget=64)
    tenants = _PROBE_TENANTS
    started = time.thread_time()
    for i in range(_PROBE_ITERS):
        tenant = tenants[i % len(tenants)]
        admission.admit(tenant)
        spill.admit(tenant)
        admission.settle(tenant, weighted_instructions=1)
    return (time.thread_time() - started) / _PROBE_ITERS * 1e6


def _registry_series_count() -> int:
    """Materialised labelsets across every registered instrument."""
    registry = GATEWAY.registry
    total = 0
    for name in registry.names():
        metric = registry.get(name)
        total += len(metric.to_json())
    return total


def run_scale_point(
    tenants: int,
    requests: int,
    tenant_budget: int,
    top_k: int,
    max_resident: int,
    zipf_s: float,
    seed: int,
    rps: float = 2000.0,
) -> dict:
    """One sweep point: fresh control-plane state, ``requests`` modeled requests."""
    schedule = _zipf_schedule(tenants, requests, zipf_s, seed)

    registry = GATEWAY.registry
    registry.reset()
    previous_budget = set_tenant_budget(tenant_budget, top_k=top_k)
    was_metrics = metrics_enabled()
    previous_log = get_event_log()

    # synthetic event time: two emits per request at a fixed modeled rate,
    # so the registry windows and SLO evaluation behave as they would live
    dt = 1.0 / rps / 2.0
    clock_state = [0.0]

    def clock() -> float:
        clock_state[0] += dt
        return clock_state[0]

    def now() -> float:
        return clock_state[0]

    previous_clock = registry.set_clock(now)
    admission = AdmissionController(
        clock=now,
        default_quota=TenantQuota(max_queue_depth=8),
        max_resident=max_resident,
    )
    # small buffer on purpose: the soak must not hold the whole stream
    log = EventLog(capacity=4096, clock=clock)
    enable_events(log)
    enable_metrics()
    engine = SLOEngine(list(_SOAK_RULES))

    # the gateway's own transition table: same metrics, same event shapes
    recorder = LifecycleRecorder("soak")
    palette = _MODELED_LATENCY_S
    rejected = 0

    # The loop is timed in chunks, each followed (outside its timing) by a
    # machine-speed probe, and the reported costs are medians over chunks:
    # the first chunk absorbs structure warm-up (the tracked set and
    # resident pool filling) and any chunk can be hit by a GC pass or by
    # co-tenant pressure, which the median ignores.  Chunks and probes are
    # timed in this thread's CPU time: the soak loop never blocks, so that
    # is its wall time minus the slices the scheduler gave to other
    # processes.  Chunk boundaries are identical across sweep points
    # (requests is fixed), so points stay comparable.
    chunks = 16
    chunk_len = max(1, len(schedule) // chunks)
    samples: list[tuple[float, float]] = []  # (µs per request, probe µs)
    probe_s = 0.0
    try:
        started = time.perf_counter()
        chunk_started = time.thread_time()
        for i, rank in enumerate(schedule):
            tenant = "t%d" % rank
            try:
                admission.admit(tenant)
            except AdmissionError as exc:
                rejected += 1
                recorder.record("reject", tenant, None, {"code": exc.code})
                continue
            latency = palette[rank % len(palette)]
            recorder.record("admit", tenant, None, {"request_id": i, "trace_id": None})
            recorder.record(
                "settled", tenant, None,
                {"request_id": i, "trace_id": None, "outcome": "ok", "latency_s": latency},
            )
            admission.settle(tenant, weighted_instructions=1_000)
            if i % 2048 == 2047:
                engine.evaluate(GATEWAY)
            if i % chunk_len == chunk_len - 1:
                chunk_us = (time.thread_time() - chunk_started) / chunk_len * 1e6
                probe_started = time.perf_counter()
                samples.append((chunk_us, _calibration_us()))
                probe_s += time.perf_counter() - probe_started
                chunk_started = time.thread_time()
        engine.evaluate(GATEWAY)
        wall_s = time.perf_counter() - started - probe_s
        if not samples:
            samples.append((wall_s / max(1, requests) * 1e6, _calibration_us()))

        spill = GATEWAY.requests.governance()
        top = GATEWAY.requests.top_tenants(10)
        heaviest_rank = min(schedule)
        point = {
            "tenants": tenants,
            "requests": requests,
            "rejected": rejected,
            "wall_s": wall_s,
            "per_request_us": statistics.median(c for c, _ in samples),
            "per_request_us_mean": wall_s / max(1, requests) * 1e6,
            "calibration_us": statistics.median(p for _, p in samples),
            # per-request cost in probe iterations: machine-speed free
            "per_request_probes": statistics.median(c / p for c, p in samples),
            "rss_mb": _vm_rss_mb(),
            "tenant_cardinality": spill["cardinality"],
            "overflow_ratio": resolve_signal(GATEWAY, "overflow_ratio", 120.0),
            "structures": {
                "admission_resident": admission.resident(),
                "admission_evictions": admission.evictions,
                "window_keys": registry.window_keys(),
                "spilled_labelsets": spill["spilled_labelsets"],
                "registry_series": _registry_series_count(),
                "event_log_resident": len(log.events()),
            },
            "top_tenants": top,
            "top_recovered": any(
                row["tenant"] == "t%d" % heaviest_rank for row in top
            ),
            "slo_alerts": len(engine.alerts),
        }
        return point
    finally:
        if previous_log is not None:
            enable_events(previous_log)
        else:
            disable_events()
        if not was_metrics:
            disable_metrics()
        set_tenant_budget(previous_budget)
        registry.set_clock(previous_clock)
        registry.reset()


_POINT_CHILD_CODE = (
    "import json, sys\n"
    "from repro.obs.soak import run_scale_point\n"
    "json.dump(run_scale_point(**json.loads(sys.argv[1])), sys.stdout)\n"
)


def _run_point_isolated(kwargs: dict) -> dict:
    """Run one sweep point in a fresh interpreter.

    Sweep points are not independent inside one process: each point's setup
    churns through millions of short-lived objects (the Zipf weight table,
    tenant-id strings), and the allocator state that leaves behind makes
    *later* points measurably slower and their RSS readings cumulative.  A
    fresh process per point makes both the per-request cost and the RSS
    gate genuinely per-point.  A plain subprocess (kwargs in argv, point
    JSON on stdout) rather than ``multiprocessing`` spawn, which would
    re-execute the parent's ``__main__`` and so break under embedded or
    stdin-driven interpreters.
    """
    import json
    import os
    import subprocess
    import sys

    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _POINT_CHILD_CODE, json.dumps(kwargs)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale-soak point subprocess failed (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-500:]}"
        )
    return json.loads(proc.stdout)


def run_scale_soak(
    tenant_counts: tuple[int, ...] = DEFAULT_TENANT_COUNTS,
    requests: int = 50_000,
    tenant_budget: int = 64,
    top_k: int = 64,
    max_resident: int = 256,
    zipf_s: float = 1.1,
    seed: int = 7,
    max_overhead_ratio: float = 1.25,
    rss_ceiling_mb: float | None = None,
    isolate: bool = True,
) -> dict:
    """Sweep tenant counts; gate the overhead curve flat and structures bounded.

    The default budgets sit deliberately *well below* the smallest sweep
    point (64 exact series and 256 resident quota states against 10^3
    tenants), so every point exercises the governed steady state — spill routing,
    sketch maintenance, idle quota eviction.  A budget above the smallest
    population would measure an ungoverned baseline against a governed
    large point and report regime change, not scaling.

    The verdict (``result["ok"]``) requires, with points ordered by tenant
    count:

    * **flat overhead** — drift-normalised per-request cost (each timed
      chunk divided by the machine-speed probe that followed it, reported
      as ``per_request_us_norm``) at the largest point is within
      ``max_overhead_ratio`` of the smallest point's;
    * **bounded structures** at every point — resident admission states
      within ``max_resident`` (each request settles before the next is
      admitted, so no in-flight state holds the population above its
      cap) and the registry's window keys within
      :data:`MAX_WINDOW_KEYS`, a constant independent of the tenant count;
    * **nothing lost** — the heaviest tenant is among the requests
      counter's top rows (exact series or Space-Saving summary) at every
      point;
    * optional **RSS ceiling** — every point's resident set below
      ``rss_ceiling_mb``.

    With ``isolate`` (the default) every point runs in a freshly spawned
    interpreter so neither allocator state nor RSS leaks between points
    (see :func:`_run_point_isolated`); tests drive small sweeps with
    ``isolate=False`` to stay fast.  The sweep is repeated
    :data:`SWEEP_ROUNDS` times with points interleaved, and each point
    reports its median run, so a burst of co-tenant load during one run
    does not decide the overhead gate.
    """
    counts = tuple(sorted(tenant_counts))
    if not counts:
        raise ValueError("need at least one tenant count")
    run_point = (
        _run_point_isolated if isolate else (lambda kw: run_scale_point(**kw))
    )
    # a stretch of co-tenant pressure has to cover most rounds of one
    # point to move the ratio, not just the one run it overlapped
    runs: dict[int, list[dict]] = {count: [] for count in counts}
    for _ in range(SWEEP_ROUNDS):
        for count in counts:
            runs[count].append(
                run_point(
                    dict(
                        tenants=count,
                        requests=requests,
                        tenant_budget=tenant_budget,
                        top_k=top_k,
                        max_resident=max_resident,
                        zipf_s=zipf_s,
                        seed=seed,
                    )
                )
            )
    points = [
        sorted(runs[count], key=lambda p: p["per_request_probes"])[SWEEP_ROUNDS // 2]
        for count in counts
    ]

    # drift-normalised overhead: each point's cost in probe iterations
    # (every chunk divided by the machine-speed probe that followed it),
    # expressed in µs at the smallest point's probe speed, so the gate
    # compares tenant-count scaling rather than which point happened to run
    # during a fast or slow stretch of a shared machine (points run minutes
    # apart in a full sweep).  Raw values stay in the point dicts.
    anchor_cal = points[0]["calibration_us"]
    for p in points:
        p["per_request_us_norm"] = p["per_request_probes"] * anchor_cal
    overhead_ratio = (
        points[-1]["per_request_us_norm"] / points[0]["per_request_us_norm"]
    )
    bounded_ok = all(
        p["structures"]["admission_resident"] <= max_resident
        and p["structures"]["window_keys"] <= MAX_WINDOW_KEYS
        for p in points
    )
    recovered_ok = all(p["top_recovered"] for p in points)
    rss_ok = rss_ceiling_mb is None or all(
        p["rss_mb"] <= rss_ceiling_mb for p in points
    )
    overhead_ok = overhead_ratio <= max_overhead_ratio
    return {
        "bench": "scale_soak",
        "config": {
            "tenant_counts": list(counts),
            "requests": requests,
            "tenant_budget": tenant_budget,
            "top_k": top_k,
            "max_resident": max_resident,
            "zipf_s": zipf_s,
            "seed": seed,
            "isolate": isolate,
            "rounds": SWEEP_ROUNDS,
        },
        "points": points,
        "gates": {
            "overhead_ratio": overhead_ratio,
            "max_overhead_ratio": max_overhead_ratio,
            "overhead_ok": overhead_ok,
            "bounded_ok": bounded_ok,
            "top_recovered_ok": recovered_ok,
            "rss_ceiling_mb": rss_ceiling_mb,
            "rss_ok": rss_ok,
        },
        "ok": overhead_ok and bounded_ok and recovered_ok and rss_ok,
    }
