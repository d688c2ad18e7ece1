"""The multi-tenant metering gateway (the paper's §3.5 FaaS provider, live).

Where :mod:`repro.core.sandbox` runs one workload for one pair of parties,
this package is the *serving* layer an infrastructure provider actually
operates: many mutually-distrusting tenants, concurrent wall-clock
execution on a worker pool, per-tenant admission control, and a billing
ledger that seals signed receipts into Merkle-rooted epochs any tenant can
audit offline.

Layers (each usable on its own):

* :mod:`repro.service.quota`   — admission control: typed rejections with
  retry-after hints, token-bucket rate limiting, instruction budgets;
* :mod:`repro.service.worker`  — the execution pool: process-based
  parallelism with a threaded fallback, per-process module caches;
* :mod:`repro.service.ledger`  — receipts, epoch seals (Merkle root over
  per-tenant hash chains) and the offline :func:`verify_epoch` auditor;
* :mod:`repro.service.backends`— pluggable execution backends (real Wasm, or
  the FaaS service-time model from :mod:`repro.scenarios.faas`);
* :mod:`repro.service.faults`  — failure semantics: typed request failures,
  deadline/retry/backoff policy, worker-result sanity validation, and the
  deterministic fault-injection plans behind ``repro loadtest --faults``;
* :mod:`repro.service.lifecycle` — the request-lifecycle transition table:
  what each transition records in metrics, events, spans and counts;
* :mod:`repro.service.gateway` — the façade tying it all together;
* :mod:`repro.service.load`    — the load driver behind ``repro loadtest``,
  ``repro serve`` and ``repro top``.
"""

from repro.service.backends import ExecutionBackend, WasmBackend
from repro.service.faults import (
    DeadlineExceeded,
    FaultPlan,
    GatewayFailure,
    ResiliencePolicy,
    ResultRejected,
    RetriesExhausted,
    WorkerCrashed,
    validate_raw,
)
from repro.service.gateway import GatewayResponse, MeteringGateway
from repro.service.ledger import (
    BillingLedger,
    DuplicateReceipt,
    EpochSeal,
    EpochVerification,
    Receipt,
    verify_epoch,
)
from repro.service.quota import (
    AdmissionController,
    AdmissionError,
    InstructionBudgetExhausted,
    MemoryCapExceeded,
    QueueFull,
    RateLimited,
    TenantQuota,
    UnknownTenant,
)
from repro.service.load import run_loadtest
from repro.service.worker import ExecutionTask, WorkerPool

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "BillingLedger",
    "DeadlineExceeded",
    "DuplicateReceipt",
    "EpochSeal",
    "EpochVerification",
    "ExecutionBackend",
    "ExecutionTask",
    "FaultPlan",
    "GatewayFailure",
    "GatewayResponse",
    "InstructionBudgetExhausted",
    "MemoryCapExceeded",
    "MeteringGateway",
    "QueueFull",
    "RateLimited",
    "Receipt",
    "ResiliencePolicy",
    "ResultRejected",
    "RetriesExhausted",
    "TenantQuota",
    "UnknownTenant",
    "WasmBackend",
    "WorkerCrashed",
    "WorkerPool",
    "run_loadtest",
    "validate_raw",
    "verify_epoch",
]
