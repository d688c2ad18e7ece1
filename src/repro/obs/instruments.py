"""The repo's metric families, declared once and shared by every layer.

Three groups, mirroring the system's layers:

* ``acctee_gateway_*`` / ``acctee_ledger_*`` / ``acctee_worker_pool_*`` —
  the metering gateway's serving path (per-tenant request outcomes and
  latency, queue depth, ledger seal duration, worker-pool utilisation);
* ``acctee_cache_*`` — the shared instrumented-module cache;
* ``acctee_sandbox_*`` — per-run resource accounting as signed by the AE
  (weighted instructions, memory peak, I/O bytes).

The full name list is pinned by ``metric_names.txt`` next to this module —
a *contract file*: dashboards and the CI artifact diff rely on these names,
so adding/renaming a metric must update the contract in the same commit
(:func:`check_contract` fails CI otherwise).
"""

from __future__ import annotations

import pathlib

from repro.obs.metrics import (
    BYTES_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
    set_governance_hook,
)

REGISTRY = get_registry()

# -- gateway request path ------------------------------------------------------


class GatewayMetrics:
    """The instruments the request-lifecycle transitions record into
    (:data:`repro.service.lifecycle.TRANSITIONS`), declared in ``registry``:
    the process-wide set below, or a fresh registry an event replay fills.
    The windowed ones are what the SLO signals and ``repro top`` read.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.requests = registry.counter(
            "acctee_gateway_requests",
            "Requests settled by the metering gateway, by tenant and outcome.",
            windowed=True,
        )
        self.latency = registry.histogram(
            "acctee_gateway_request_latency_seconds",
            "Submit-to-receipt latency per request, by tenant.",
            buckets=LATENCY_BUCKETS,
            windowed=True,
        )
        self.retries = registry.counter(
            "acctee_gateway_retries",
            "Request re-dispatches after transient worker failures, by tenant.",
            windowed=True,
        )
        self.faults = registry.counter(
            "acctee_gateway_faults_injected",
            "Faults the chaos plan stamped on requests, by tenant and fault.",
            windowed=True,
        )


GATEWAY = GatewayMetrics(REGISTRY)
GATEWAY_QUEUE_DEPTH = REGISTRY.gauge(
    "acctee_gateway_queue_depth",
    "Admitted in-flight requests per tenant (admission controller view).",
)
LEDGER_SEAL_DURATION = REGISTRY.histogram(
    "acctee_ledger_seal_duration_seconds",
    "Wall time to seal one billing epoch (Merkle root + signature).",
    buckets=LATENCY_BUCKETS,
)
LEDGER_RECEIPTS = REGISTRY.counter(
    "acctee_ledger_receipts",
    "Signed receipts recorded into tenant hash chains, by tenant.",
)
LEDGER_BATCH_SEALS = REGISTRY.counter(
    "acctee_ledger_batch_seals",
    "AE batch seals recorded (one signature per receipt flush window), by tenant.",
)

# -- worker pool ---------------------------------------------------------------

POOL_TASKS = REGISTRY.counter(
    "acctee_worker_pool_tasks",
    "Execution tasks submitted to the worker pool.",
)
POOL_TASKS_IN_FLIGHT = REGISTRY.gauge(
    "acctee_worker_pool_tasks_in_flight",
    "Execution tasks currently queued or running on the pool.",
)
POOL_UTILISATION = REGISTRY.gauge(
    "acctee_worker_pool_utilisation_ratio",
    "In-flight tasks over pool size, clamped to [0, 1].",
)
POOL_EXEC_WALL = REGISTRY.histogram(
    "acctee_worker_pool_exec_wall_seconds",
    "Worker-side wall time per executed task (instantiate + run), by the "
    "engine that ran it.",
    buckets=LATENCY_BUCKETS,
)
POOL_REBUILDS = REGISTRY.counter(
    "acctee_worker_pool_rebuilds",
    "Crashed worker processes replaced, by a respawn or by degrading to threads.",
)

# -- instrumentation cache -----------------------------------------------------

CACHE_HITS = REGISTRY.counter(
    "acctee_cache_hits",
    "Instrumented-module cache hits (IE pass skipped).",
)
CACHE_MISSES = REGISTRY.counter(
    "acctee_cache_misses",
    "Instrumented-module cache misses (IE pass executed).",
)
CACHE_EVICTIONS = REGISTRY.counter(
    "acctee_cache_evictions",
    "LRU evictions from the instrumented-module cache.",
)

# -- telemetry pipeline (event log, SLO engine, drift auditor) -----------------

EVENTS_EMITTED = REGISTRY.counter(
    "acctee_events_emitted",
    "Structured telemetry events emitted, by kind.",
)
EVENTS_DROPPED = REGISTRY.counter(
    "acctee_events_dropped",
    "Events the bounded event-log buffer refused (backpressure drops).",
)
SLO_ALERTS = REGISTRY.counter(
    "acctee_slo_alerts",
    "SLO rule firings, by rule name and severity.",
)
DRIFT_FINDINGS = REGISTRY.counter(
    "acctee_billing_drift_findings",
    "Billing-drift audit findings, by finding code.",
)

# -- sandbox / accounting enclave ----------------------------------------------

SANDBOX_RUNS = REGISTRY.counter(
    "acctee_sandbox_runs",
    "Workload invocations accounted by an accounting enclave.",
)
SANDBOX_INSTRUCTIONS = REGISTRY.counter(
    "acctee_sandbox_weighted_instructions",
    "Weighted instructions metered across all accounted runs.",
)
SANDBOX_PEAK_MEMORY = REGISTRY.histogram(
    "acctee_sandbox_peak_memory_bytes",
    "Peak linear-memory footprint per accounted run.",
    buckets=BYTES_BUCKETS,
)
SANDBOX_IO_BYTES = REGISTRY.counter(
    "acctee_sandbox_io_bytes",
    "Bytes crossing the module boundary via accounted I/O, by direction.",
)

# -- snapshot / warm pools / preemption ----------------------------------------

SNAPSHOTS_TAKEN = REGISTRY.counter(
    "acctee_snapshots_taken",
    "Execution-state snapshots captured, by kind (warm image vs suspend).",
)
SNAPSHOT_BYTES = REGISTRY.histogram(
    "acctee_snapshot_bytes",
    "Encoded snapshot size on the wire (RWSN blob).",
    buckets=BYTES_BUCKETS,
)
WARM_POOL_HITS = REGISTRY.counter(
    "acctee_warm_pool_hits",
    "Requests served from a warm-pool instance (setup cost skipped).",
)
RESUMES_TOTAL = REGISTRY.counter(
    "acctee_resumes_total",
    "Suspended call stacks resumed from a snapshot.",
)
CHECKPOINT_RECEIPTS = REGISTRY.counter(
    "acctee_checkpoint_receipts",
    "Incremental (non-final) checkpoint receipts signed by an AE.",
)

# -- cardinality governance (tenant budgets, spill summaries, quota eviction) --

TENANT_CARDINALITY = REGISTRY.gauge(
    "acctee_tenant_cardinality",
    "Approximate distinct tenant labelsets ever observed, by governed metric.",
)
LABEL_SETS_EVICTED = REGISTRY.counter(
    "acctee_label_sets_evicted",
    "Entries of tenant labelsets denied an exact series (spilled to __other__) "
    "into the spill summary; one evicted from it counts again when it returns, "
    "by metric.",
)
QUOTA_EVICTIONS = REGISTRY.counter(
    "acctee_quota_evictions",
    "Idle lazily-instantiated tenant quota states evicted by the admission LRU.",
)


def _governance_hook(metric_name: str, cardinality: int, evicted_delta: int) -> None:
    """Surface per-instrument governance state as metrics.

    The governance instruments themselves carry only a ``metric`` label —
    never ``tenant`` — so this cannot recurse into another spill decision.
    """
    TENANT_CARDINALITY.set(cardinality, metric=metric_name)
    if evicted_delta:
        LABEL_SETS_EVICTED.inc(evicted_delta, metric=metric_name)


set_governance_hook(_governance_hook)

# -- the name contract ---------------------------------------------------------

CONTRACT_PATH = pathlib.Path(__file__).with_name("metric_names.txt")


def contract_names() -> list[str]:
    """The checked-in metric-name contract, one name per line."""
    lines = CONTRACT_PATH.read_text().splitlines()
    return sorted(line.strip() for line in lines if line.strip() and not line.startswith("#"))


def check_contract() -> list[str]:
    """Return drift messages (empty = registry matches the contract file).

    Both directions are hard errors: a *registered* name the file lacks
    breaks the promise that dashboards can rely on the file, and an *extra*
    (unregistered) name in the file is a dashboard pointed at a metric that
    no longer exists — historically the easier drift to ship, because
    nothing at runtime ever touches it.
    """
    expected = set(contract_names())
    actual = set(REGISTRY.names())
    problems = []
    for name in sorted(actual - expected):
        problems.append(
            f"missing: metric {name!r} is registered but missing from metric_names.txt"
        )
    for name in sorted(expected - actual):
        problems.append(
            f"extra: metric {name!r} is in metric_names.txt but not registered "
            "(stale contract entry)"
        )
    return problems
