"""Per-tenant billing-drift audit: meter readings vs receipts vs seals.

The pipeline's last line of defence.  Metrics say how the gateway is doing
and alerts say when it is misbehaving; the *drift auditor* says whether the
bills are right.  It reconciles, per tenant, three independently-produced
records of the same work:

1. the **event log** — what the serving path *says* it billed (``receipt``
   events, stamped with the emitting gateway's id);
2. the **ledger chain** — the AE-signed receipts themselves (signatures,
   hash links, plausibility of the signed vectors);
3. the **admission ledger** — slots admitted, settled and still in flight.

Cross-checking catches what each record alone cannot: a corrupted meter
reading that slipped past validation shows up as an implausible *signed*
vector; a double-billed retry as more receipts than distinct request ids;
a lost settle callback as ``admitted - in_flight != settled``; a receipt the
gateway recorded but never narrated (or vice versa) as an event/ledger total
mismatch.  Findings are typed (:data:`FINDING_CODES`) and split into
``error`` (billing is wrong) and ``warn`` (billing is incomplete — e.g.
receipts not yet sealed into an epoch) severities; only errors gate CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.instruments import DRIFT_FINDINGS

#: Every code an audit can produce, with the failing reconciliation.
FINDING_CODES = {
    "double-billed": "more receipts than distinct billed request ids",
    "implausible-receipt": "a signed vector no honest run produces (negative component)",
    "bad-signature": "a receipt's AE signature does not verify",
    "chain-broken": "receipt sequence numbers or hash links do not chain",
    "unsettled-admissions": "admitted - in_flight != settled (slot leak)",
    "event-ledger-mismatch": "event-log billing narrative disagrees with the ledger",
    "unsealed-receipts": "receipts not yet covered by any epoch seal",
    "pending-batch": "batched receipts still awaiting their AE batch seal (flush)",
}

#: The finding code for each kind of :class:`~repro.core.resource_log.ChainProblem`.
_CHAIN_CODES = {
    "chain": "chain-broken",
    "signature": "bad-signature",
    "batch": "bad-signature",
    "pending": "pending-batch",
}

#: Codes that mean billing is *wrong* (everything else is a warning).
ERROR_CODES = (
    "double-billed",
    "implausible-receipt",
    "bad-signature",
    "chain-broken",
    "unsettled-admissions",
    "event-ledger-mismatch",
)


@dataclass(frozen=True)
class DriftFinding:
    """One reconciliation failure for one tenant."""

    code: str
    tenant: str
    severity: str  # "error" | "warn"
    detail: str

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "tenant": self.tenant,
            "severity": self.severity,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class DriftReport:
    """The audit verdict: per-tenant findings plus coverage counters."""

    findings: tuple[DriftFinding, ...]
    tenants_checked: int
    receipts_checked: int
    events_checked: int

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding exists (warnings pass)."""
        return not any(f.severity == "error" for f in self.findings)

    def errors(self) -> list[DriftFinding]:
        return [f for f in self.findings if f.severity == "error"]

    def warnings(self) -> list[DriftFinding]:
        return [f for f in self.findings if f.severity == "warn"]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "tenants_checked": self.tenants_checked,
            "receipts_checked": self.receipts_checked,
            "events_checked": self.events_checked,
            "findings": [f.to_json() for f in self.findings],
        }


def _plausible(vector) -> list[str]:
    """Component-wise plausibility of a *signed* vector.

    Mirrors :func:`repro.service.faults.validate_raw` but runs on the
    receipt side of the trust boundary: a negative component here means an
    implausible reading was *signed into a receipt* — validation was off or
    bypassed, and the bill is provably wrong.
    """
    problems = []
    for name in (
        "weighted_instructions",
        "peak_memory_bytes",
        "memory_integral_page_instructions",
        "io_bytes_in",
        "io_bytes_out",
    ):
        value = getattr(vector, name)
        if value < 0:
            problems.append(f"{name}={value}")
    return problems


def _finding(findings: list, code: str, tenant: str, detail: str) -> None:
    severity = "error" if code in ERROR_CODES else "warn"
    findings.append(
        DriftFinding(code=code, tenant=tenant, severity=severity, detail=detail)
    )
    DRIFT_FINDINGS.inc(code=code)


def _narrative(
    events, gateway_id: str | None
) -> tuple[dict[str, int], dict[str, int], int]:
    """One pass over the event stream: the billing narrative per tenant and
    the number of (gateway-filtered) events scanned."""
    event_receipts: dict[str, int] = {}
    event_instructions: dict[str, int] = {}
    checked = 0
    for event in events:
        if gateway_id is not None and event.fields.get("gateway") != gateway_id:
            continue
        checked += 1
        if event.kind != "receipt":
            continue
        tenant = str(event.fields.get("tenant"))
        event_receipts[tenant] = event_receipts.get(tenant, 0) + 1
        event_instructions[tenant] = event_instructions.get(tenant, 0) + int(
            event.fields.get("weighted_instructions", 0)
        )
    return event_receipts, event_instructions, checked


def audit_billing(
    ledger,
    admission=None,
    events=None,
    gateway_id: str | None = None,
) -> DriftReport:
    """Reconcile one gateway's billing records; returns a :class:`DriftReport`.

    ``ledger`` is the :class:`~repro.service.ledger.BillingLedger`;
    ``admission`` (optional) the
    :class:`~repro.service.quota.AdmissionController` for the slot
    invariant; ``events`` (optional) an iterable of telemetry
    :class:`~repro.obs.events.Event` records to cross-check against — when
    ``gateway_id`` is given, only events stamped with that id count (so one
    shared event log can audit each sweep point of a multi-gateway run
    separately).
    """
    # deferred: repro.core's package init reaches back into repro.obs via
    # the instrumentation enclave — a module-level import here would make
    # the cycle unresolvable when repro.obs loads first
    from repro.core.resource_log import verify_chain

    findings: list[DriftFinding] = []
    event_receipts: dict[str, int] = {}
    event_instructions: dict[str, int] = {}
    events_checked = 0
    if events is not None:
        event_receipts, event_instructions, events_checked = _narrative(
            events, gateway_id
        )
    tenants = ledger.tenants()  # sorted
    receipts_checked = sum(
        _audit_tenant(
            ledger,
            admission,
            tenant,
            findings,
            events is not None,
            event_receipts,
            event_instructions,
            verify_chain,
        )
        for tenant in tenants
    )

    return DriftReport(
        findings=tuple(findings),
        tenants_checked=len(tenants),
        receipts_checked=receipts_checked,
        events_checked=events_checked,
    )


def _audit_tenant(
    ledger,
    admission,
    tenant: str,
    findings: list[DriftFinding],
    have_events: bool,
    event_receipts: dict[str, int],
    event_instructions: dict[str, int],
    verify_chain,
) -> int:
    """Reconcile one tenant's records; appends findings, returns receipts seen."""
    # read oldest-first, so a seal landing mid-audit cannot make the
    # receipt snapshot look shorter than the sealed count or its batches
    sealed = ledger.sealed_upto(tenant)
    batches = ledger.batches(tenant)
    receipts = ledger.receipts(tenant)

    # exactly-once: every receipt carries a distinct request id
    with_ids = [r for r in receipts if r.request_id is not None]
    billed = ledger.billed_requests(tenant)
    if len(with_ids) != billed:
        _finding(
            findings,
            "double-billed",
            tenant,
            f"{len(with_ids)} receipts with request ids but only "
            f"{billed} distinct requests billed",
        )

    # chain, signatures and batch seals; sealing flushed every batch window,
    # so a receipt below the seal is never legitimately pending
    chain_problems, _head = verify_chain(
        [r.entry for r in receipts], ledger.ae_key(tenant), batches, complete_upto=sealed
    )
    for problem in chain_problems:
        _finding(findings, _CHAIN_CODES[problem.kind], tenant, problem.detail)

    # plausibility of every signed vector
    for i, receipt in enumerate(receipts):
        problems = _plausible(receipt.entry.vector)
        if problems:
            _finding(
                findings,
                "implausible-receipt",
                tenant,
                f"receipt {i} (request {receipt.request_id}): signed vector "
                "has impossible components: " + ", ".join(problems),
            )

    # admission slot conservation: every admit settles exactly once
    if admission is not None:
        stats = admission.stats(tenant)
        if stats["admitted"] - stats["in_flight"] != stats["settled"]:
            _finding(
                findings,
                "unsettled-admissions",
                tenant,
                f"admitted={stats['admitted']} in_flight={stats['in_flight']} "
                f"settled={stats['settled']}",
            )

    # event narrative vs ledger: same receipt count, same billed total
    if have_events:
        narrated = event_receipts.get(tenant, 0)
        if narrated != len(receipts):
            _finding(
                findings,
                "event-ledger-mismatch",
                tenant,
                f"event log narrates {narrated} receipts, ledger holds "
                f"{len(receipts)}",
            )
        else:
            ledger_total = sum(
                r.entry.vector.weighted_instructions for r in receipts
            )
            narrated_total = event_instructions.get(tenant, 0)
            if narrated_total != ledger_total:
                _finding(
                    findings,
                    "event-ledger-mismatch",
                    tenant,
                    f"event log narrates {narrated_total} weighted "
                    f"instructions, ledger totals {ledger_total}",
                )

    # completeness: receipts outside any sealed epoch are un-auditable
    unsealed = len(receipts) - sealed
    if unsealed > 0:
        _finding(
            findings,
            "unsealed-receipts",
            tenant,
            f"{unsealed} receipts not yet sealed into an epoch",
        )

    return len(receipts)
