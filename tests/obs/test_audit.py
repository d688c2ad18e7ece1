"""Billing-drift audit: ledger vs events vs admissions, unit and end-to-end."""

import dataclasses
import pathlib

import pytest

from repro.core.resource_log import ResourceUsageLog, ResourceVector
from repro.obs.audit import ERROR_CODES, FINDING_CODES, audit_billing
from repro.obs.events import Event, disable_events
from repro.service.load import run_loadtest
from repro.service.ledger import BillingLedger

RULES = str(pathlib.Path(__file__).parents[2] / "examples" / "slo_rules.json")


@pytest.fixture(autouse=True)
def _events_off():
    disable_events()
    yield
    disable_events()


def _vector(instructions: int = 100) -> ResourceVector:
    return ResourceVector(
        weighted_instructions=instructions,
        peak_memory_bytes=65536,
        memory_integral_page_instructions=instructions,
        io_bytes_in=0,
        io_bytes_out=0,
        label="kernel",
    )


def _ledger(rsa_keypair, vectors, owner: str = "gw-test") -> BillingLedger:
    ledger = BillingLedger(owner=owner)
    ae_log = ResourceUsageLog(signing_key=rsa_keypair)
    ledger.register_tenant("t0", rsa_keypair.public)
    for i, vector in enumerate(vectors):
        entry = ae_log.append(vector, b"\x01" * 32, b"\x02" * 32)
        ledger.record("t0", entry, request_id=i)
    return ledger


def _receipt_events(ledger: BillingLedger, gateway: str = "gw-test") -> list[Event]:
    events = []
    for i, receipt in enumerate(ledger.receipts("t0")):
        events.append(Event(seq=i + 1, ts_s=float(i), kind="receipt", fields={
            "gateway": gateway,
            "tenant": "t0",
            "request_id": receipt.request_id,
            "weighted_instructions": receipt.entry.vector.weighted_instructions,
        }))
    return events


def _codes(report) -> set:
    return {f.code for f in report.findings}


# -- unit: each finding code ---------------------------------------------------


def test_every_error_code_is_documented():
    assert set(ERROR_CODES) < set(FINDING_CODES)
    assert "unsealed-receipts" in FINDING_CODES  # the one warn-severity code


def test_clean_sealed_ledger_audits_ok(rsa_keypair):
    ledger = _ledger(rsa_keypair, [_vector(100), _vector(200)])
    ledger.seal_epoch()
    report = audit_billing(ledger, events=_receipt_events(ledger),
                           gateway_id="gw-test")
    assert report.ok
    assert report.findings == ()
    assert report.tenants_checked == 1
    assert report.receipts_checked == 2


def test_unsealed_receipts_warn_but_do_not_fail(rsa_keypair):
    ledger = _ledger(rsa_keypair, [_vector()])
    report = audit_billing(ledger)
    assert _codes(report) == {"unsealed-receipts"}
    assert report.ok  # warnings pass; only errors gate
    assert report.warnings() and not report.errors()


def test_implausible_signed_vector_is_an_error(rsa_keypair):
    # validation off: a corrupted (negated) counter gets signed into a receipt
    ledger = _ledger(rsa_keypair, [_vector(100), _vector(-13525)])
    ledger.seal_epoch()
    report = audit_billing(ledger)
    assert not report.ok
    [finding] = report.errors()
    assert finding.code == "implausible-receipt"
    assert "weighted_instructions=-13525" in finding.detail


def test_double_billing_detected(rsa_keypair):
    ledger = _ledger(rsa_keypair, [_vector(), _vector()])
    ledger.seal_epoch()
    # simulate two receipts riding one request id (the arrival-path guard
    # normally refuses this, so forge the internal state it protects)
    ledger._billed_requests["t0"].discard(1)
    report = audit_billing(ledger)
    assert "double-billed" in _codes(report)
    assert not report.ok


def test_broken_chain_detected(rsa_keypair):
    ledger = _ledger(rsa_keypair, [_vector(), _vector(), _vector()])
    ledger.seal_epoch()
    chain = ledger._receipts["t0"]
    tampered = dataclasses.replace(chain[1].entry, sequence=7)
    chain[1] = dataclasses.replace(chain[1], entry=tampered)
    report = audit_billing(ledger)
    assert "chain-broken" in _codes(report)
    assert not report.ok


def test_bad_signature_detected(rsa_keypair):
    ledger = _ledger(rsa_keypair, [_vector(), _vector()])
    ledger.seal_epoch()
    chain = ledger._receipts["t0"]
    forged = dataclasses.replace(chain[1].entry, signature=b"not-the-ae")
    chain[1] = dataclasses.replace(chain[1], entry=forged)
    report = audit_billing(ledger)
    assert "bad-signature" in _codes(report)
    assert not report.ok


def test_unsettled_admissions_detected(rsa_keypair):
    class LeakyAdmission:
        def stats(self, tenant_id):
            return {"admitted": 5, "in_flight": 0, "settled": 4,
                    "rejected": 0, "spent_instructions": 400}

    ledger = _ledger(rsa_keypair, [_vector()])
    ledger.seal_epoch()
    report = audit_billing(ledger, admission=LeakyAdmission())
    assert "unsettled-admissions" in _codes(report)
    assert not report.ok


def test_event_ledger_receipt_count_mismatch(rsa_keypair):
    ledger = _ledger(rsa_keypair, [_vector(), _vector()])
    ledger.seal_epoch()
    events = _receipt_events(ledger)[:1]  # one receipt never narrated
    report = audit_billing(ledger, events=events, gateway_id="gw-test")
    [finding] = report.errors()
    assert finding.code == "event-ledger-mismatch"
    assert "narrates 1 receipts" in finding.detail


def test_event_ledger_total_mismatch(rsa_keypair):
    ledger = _ledger(rsa_keypair, [_vector(100)])
    ledger.seal_epoch()
    events = _receipt_events(ledger)
    events[0] = Event(seq=1, ts_s=0.0, kind="receipt", fields={
        **events[0].fields, "weighted_instructions": 999,
    })
    report = audit_billing(ledger, events=events, gateway_id="gw-test")
    [finding] = report.errors()
    assert finding.code == "event-ledger-mismatch"
    assert "999" in finding.detail


def test_gateway_id_scopes_the_event_crosscheck(rsa_keypair):
    """One shared event stream: another gateway's receipts must not count."""
    ledger = _ledger(rsa_keypair, [_vector(), _vector()])
    ledger.seal_epoch()
    mine = _receipt_events(ledger, gateway="gw-test")
    theirs = _receipt_events(ledger, gateway="gw-other")  # would double-count
    report = audit_billing(ledger, events=mine + theirs, gateway_id="gw-test")
    assert report.ok
    assert report.events_checked == len(mine)


def test_report_json_shape(rsa_keypair):
    ledger = _ledger(rsa_keypair, [_vector()])
    report = audit_billing(ledger)
    doc = report.to_json()
    assert set(doc) == {"ok", "tenants_checked", "receipts_checked",
                        "events_checked", "findings"}
    assert doc["findings"][0]["code"] == "unsealed-receipts"


# -- end to end: the pipeline audits a real gateway run ------------------------


def test_loadtest_pipeline_reports_clean_drift():
    result = run_loadtest(
        worker_counts=(1,), requests=8, pool="thread", backend="modeled",
        time_scale=0.0, verify_serial=False, quota_probe=False, pipeline=True,
    )
    telemetry = result["telemetry"]
    assert telemetry["drift_ok"] is True
    assert telemetry["ok"] is True
    for point in result["sweep"]:
        drift = point["drift"]
        assert drift["ok"] is True
        assert not [f for f in drift["findings"] if f["severity"] == "error"]
        assert drift["receipts_checked"] > 0


def test_corrupt_receipt_detected_end_to_end(tmp_path):
    """The acceptance path: a FaultPlan `corrupt` fault with result validation
    disabled signs a negated meter reading into a receipt; the drift auditor
    must catch the implausible signed vector and fail the telemetry gate."""
    events_path = tmp_path / "events.jsonl"
    result = run_loadtest(
        worker_counts=(2,), requests=14, pool="thread", backend="wasm",
        kernels=("trisolv", "bicg"), verify_serial=False, quota_probe=False,
        faults="corrupt:5", fault_seed=1, validate_results=False,
        events_out=str(events_path), slo_rules=RULES,
    )
    telemetry = result["telemetry"]
    assert telemetry["drift_ok"] is False
    assert telemetry["ok"] is False
    codes = {
        finding["code"]
        for point in result["sweep"]
        for finding in point["drift"]["findings"]
    }
    assert "implausible-receipt" in codes
    # the chaos liveness rule saw the injections
    fired = {alert["rule"] for alert in telemetry["slo"]["alerts"]}
    assert "faults-observed" in fired
    # and no paging rule fired: corruption is a billing failure, not an outage
    assert telemetry["slo"]["gating"] is False
    assert events_path.exists()


def test_validation_prevents_the_same_corruption(tmp_path):
    """Identical chaos with `validate_results` on: corrupted readings are
    refused before the AE signs, so the bills stay clean."""
    result = run_loadtest(
        worker_counts=(1,), requests=8, pool="thread", backend="wasm",
        kernels=("trisolv",), verify_serial=False, quota_probe=False,
        faults="corrupt:3", fault_seed=1, validate_results=True, pipeline=True,
    )
    telemetry = result["telemetry"]
    assert telemetry["drift_ok"] is True
    assert telemetry["ok"] is True
    # the gateway really did reject readings rather than seeing no corruption
    rejected = sum(
        point["faults"]["results_rejected"] for point in result["sweep"]
    )
    assert rejected > 0

