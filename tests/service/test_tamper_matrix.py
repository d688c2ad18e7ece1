"""One tamper matrix across every receipt-chain verifier.

Each tampering is applied to a sealed tenant chain, signed per receipt
(``seal_window=None``) or in batches (``seal_window=16``), and handed to
the three auditors that share :func:`repro.core.resource_log.verify_chain`:
the AE log's own :meth:`ResourceUsageLog.verify`, the offline
:func:`verify_epoch`, and the drift auditor :func:`audit_billing` after the
seal.  Every one must reject every tampering (the drift auditor as an
error finding, not a warning) and accept the untouched chain.
"""

from dataclasses import replace

import pytest

from repro.core.resource_log import LogBatch, ResourceUsageLog, ResourceVector
from repro.obs.audit import audit_billing
from repro.service.ledger import BillingLedger, Receipt, verify_epoch
from repro.tcrypto.hashing import sha256
from repro.tcrypto.merkle import MerkleTree
from repro.tcrypto.rsa import rsa_generate, rsa_sign

RECEIPTS = 20  # with a window of 16: one full batch and one flushed at the seal
TENANT = "t0"


@pytest.fixture(scope="module")
def keys():
    return rsa_generate(512, seed=0x7A3), rsa_generate(512, seed=0x57A)


def _vector(i: int) -> ResourceVector:
    return ResourceVector(
        weighted_instructions=100 + i,
        peak_memory_bytes=65536,
        memory_integral_page_instructions=i,
        io_bytes_in=0,
        io_bytes_out=0,
        label=f"req-{i}",
    )


def _sealed_ledger(ae_key, window):
    """A tenant chain recorded the way the gateway records it, then sealed."""
    log = ResourceUsageLog(ae_key, batch_window=window)
    ledger = BillingLedger(owner="gw-matrix")
    ledger.register_tenant(TENANT, ae_key.public)
    for i in range(RECEIPTS):
        entry = log.append(_vector(i), b"\x01" * 32, b"\x02" * 32)
        ledger.record(TENANT, entry, request_id=i)
        for batch in log.drain_batches():
            ledger.record_batch(TENANT, batch)
    log.flush()
    for batch in log.drain_batches():
        ledger.record_batch(TENANT, batch)
    return ledger, ledger.seal_epoch()


def _reseal_tail(entries, batches, signer, root=None):
    """Strip the tail's signature and cover its window with a new batch
    signed by ``signer`` (over ``root`` when given, else the true root)."""
    entries = entries[:-1] + [replace(entries[-1], signature=b"")]
    kept = [b for b in batches if b.end_sequence < len(entries)]
    start = kept[-1].end_sequence if kept else len(entries) - 1
    if root is None:
        root = MerkleTree([e.body() for e in entries[start:]]).root
    batch = LogBatch(start, len(entries), root, b"")
    return entries, kept + [replace(batch, signature=rsa_sign(signer, batch.body()))]


def _edit_tail_vector(entries, batches, keys):
    tail = entries[-1]
    forged = replace(tail, vector=replace(tail.vector, weighted_instructions=1))
    return entries[:-1] + [forged], batches


def _strip_tail_signature(entries, batches, keys):
    stripped = replace(entries[-1], signature=b"")
    last = len(entries) - 1
    return entries[:-1] + [stripped], [b for b in batches if b.end_sequence <= last]


def _reorder(entries, batches, keys):
    return [entries[0], entries[2], entries[1], *entries[3:]], batches


def _drop_interior(entries, batches, keys):
    return [entries[0], *entries[2:]], batches


def _truncate_tail(entries, batches, keys):
    return entries[:-1], batches


def _forge_batch_root(entries, batches, keys):
    return _reseal_tail(entries, batches, keys[0], root=sha256(b"forged"))


def _stranger_batch(entries, batches, keys):
    return _reseal_tail(entries, batches, keys[1])


TAMPERINGS = {
    "vector-edit": _edit_tail_vector,
    "tail-signature-stripped": _strip_tail_signature,
    "reorder": _reorder,
    "interior-drop": _drop_interior,
    "tail-truncation": _truncate_tail,
    "forged-batch-root": _forge_batch_root,
    "stranger-batch": _stranger_batch,
}
MODES = {"per-receipt": None, "batched": 16}


def _verdicts(keys, window, tamper=None):
    """(log.verify, verify_epoch, post-seal audit) on the (tampered) chain."""
    ae_key = keys[0]
    ledger, seal = _sealed_ledger(ae_key, window)
    receipts = ledger.receipts(TENANT)
    entries = [r.entry for r in receipts]
    batches = ledger.batches(TENANT)
    if tamper is not None:
        entries, batches = tamper(entries, batches, keys)
    request_ids = {r.entry.sequence: r.request_id for r in receipts}
    tampered = [Receipt(TENANT, e, request_ids.get(e.sequence)) for e in entries]

    log = ResourceUsageLog()
    log.entries, log.batches = entries, batches
    span = seal.span_for(TENANT)
    log_ok = log.verify(
        ae_key.public, expected_head=span.end_hash, expected_entries=RECEIPTS
    )

    epoch = verify_epoch(
        seal,
        {TENANT: tampered},
        {TENANT: ae_key.public},
        ledger.public_key,
        batches_by_tenant={TENANT: batches},
    )

    ledger._receipts[TENANT] = tampered
    ledger._batches[TENANT] = batches
    report = audit_billing(ledger)
    return log_ok, epoch, report


@pytest.mark.parametrize("mode", MODES)
def test_untouched_chain_passes_every_verifier(keys, mode):
    log_ok, epoch, report = _verdicts(keys, MODES[mode])
    assert log_ok
    assert epoch.ok, epoch.errors
    assert report.ok and report.findings == (), [f.to_json() for f in report.findings]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("tampering", TAMPERINGS)
def test_every_verifier_rejects_the_tampering(keys, mode, tampering):
    log_ok, epoch, report = _verdicts(keys, MODES[mode], TAMPERINGS[tampering])
    assert not log_ok
    assert not epoch.ok
    codes = {f.code for f in report.errors()}
    assert codes & {"chain-broken", "bad-signature"}, [
        f.to_json() for f in report.findings
    ]
