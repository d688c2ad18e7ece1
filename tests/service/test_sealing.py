"""Batched Merkle receipt sealing: one AE signature per flush window.

The batched protocol replaces one RSA signature per receipt with one
signature over the Merkle root of a window of receipt bodies, plus
per-receipt inclusion proofs.  These tests pin what must survive the
optimisation: offline verifiability (chain, batches, inclusion proofs,
tamper detection), epoch seals across shards, drift-audit cleanliness,
exactly-once billing under chaos, and checkpoint receipts riding inside
batches.
"""

import pytest

from repro.core.accounting_enclave import AccountingEnclave
from repro.core.resource_log import (
    LogBatch,
    ResourceUsageLog,
    ResourceVector,
    verify_batched_entry,
    verify_log_batches,
)
from repro.core.sandbox import SandboxConfig
from repro.service import MeteringGateway
from repro.service.backends import SimulatedFaaSBackend
from repro.service.load import run_loadtest
from repro.tcrypto.rsa import rsa_generate

MINIC_SQUARE = "int square(int x) { return x * x; }"
MINIC_SUM = (
    "int total(int n) { int s; int i; s = 0; "
    "for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
)

TENANTS = ("alice", "bob", "carol", "dave")

KEY = rsa_generate(512, seed=7)
WL_HASH = b"\x11" * 32
WT_DIGEST = b"\x22" * 32


def _vector(i: int) -> ResourceVector:
    return ResourceVector(
        weighted_instructions=100 + i,
        peak_memory_bytes=65536,
        memory_integral_page_instructions=0,
        io_bytes_in=0,
        io_bytes_out=0,
        label=f"req-{i}",
    )


def _batched_log(window: int, entries: int) -> ResourceUsageLog:
    log = ResourceUsageLog(signing_key=KEY, batch_window=window)
    for i in range(entries):
        log.append(_vector(i), WL_HASH, WT_DIGEST)
    return log


# -- log-level batching --------------------------------------------------------


class TestBatchedLog:
    def test_window_auto_seals_and_flush_covers_tail(self):
        log = _batched_log(window=4, entries=10)
        # two full windows sealed automatically, two entries pending
        assert [(b.start_sequence, b.end_sequence) for b in log.batches] == [
            (0, 4),
            (4, 8),
        ]
        assert all(not e.signature for e in log.entries)
        problems, pending = verify_log_batches(log.entries, log.batches, KEY.public)
        assert problems == []
        assert pending == 2
        # strict verify refuses a log with uncovered entries...
        assert not log.verify(KEY.public)
        flushed = log.flush()
        assert [(b.start_sequence, b.end_sequence) for b in flushed] == [(8, 10)]
        # ...and passes once the tail is flushed
        assert log.verify(KEY.public)
        assert log.flush() == []  # idempotent: nothing left to seal

    def test_batches_do_not_break_the_hash_chain(self):
        batched = _batched_log(window=3, entries=6)
        signed = ResourceUsageLog(signing_key=KEY)
        for i in range(6):
            signed.append(_vector(i), WL_HASH, WT_DIGEST)
        # entry bodies (and so the hash chain) are identical either way:
        # the batch signature replaces the per-entry one without touching
        # what is hashed or what a later entry links to
        for a, b in zip(batched.entries, signed.entries):
            assert a.body() == b.body()
        assert batched.head_hash != ResourceUsageLog.GENESIS

    def test_inclusion_proof_verifies_and_rejects_tampering(self):
        log = _batched_log(window=4, entries=8)
        for sequence in (0, 3, 5):
            batch, proof = log.batch_proof(sequence)
            entry = log.entries[sequence]
            assert verify_batched_entry(entry, batch, proof, KEY.public)
            # a different entry under the same proof must not verify
            other = log.entries[(sequence + 1) % 8]
            assert not verify_batched_entry(other, batch, proof, KEY.public)
            # a tampered root breaks both the proof and the signature
            forged = LogBatch(
                start_sequence=batch.start_sequence,
                end_sequence=batch.end_sequence,
                merkle_root=b"\x00" * 32,
                signature=batch.signature,
            )
            assert not verify_batched_entry(entry, forged, proof, KEY.public)
        with pytest.raises(LookupError):
            log.batch_proof(99)  # pending/unknown entries have no proof

    def test_tampered_entry_fails_the_batch_root(self):
        log = _batched_log(window=4, entries=4)
        entries = list(log.entries)
        entries[2] = log.entries[3]  # swap in a different (valid) entry
        problems, _pending = verify_log_batches(entries, log.batches, KEY.public)
        assert any("Merkle root" in p or "outside" in p for p in problems)

    def test_wrong_key_fails_batch_signature(self):
        log = _batched_log(window=2, entries=2)
        stranger = rsa_generate(512, seed=99).public
        problems, _pending = verify_log_batches(log.entries, log.batches, stranger)
        assert any("signature" in p for p in problems)

    def test_accounting_enclave_threads_the_window_through(self):
        config = SandboxConfig()
        ae = AccountingEnclave(
            ie_public_key=KEY.public,
            ie_measurement=b"\x01" * 32,
            weight_table=config.weight_table(),
            key_seed=5,
            batch_window=3,
        )
        assert ae.log.batch_window == 3


# -- gateway end to end --------------------------------------------------------


def _batched_gateway(**kwargs):
    kwargs.setdefault("backend", SimulatedFaaSBackend(workers=4, time_scale=0.0))
    kwargs.setdefault("seal_window", 4)
    gw = MeteringGateway(workers=2, pool="thread", **kwargs)
    for tenant in TENANTS:
        gw.register_tenant(tenant, minic=MINIC_SQUARE)
    return gw


class TestGatewayBatchedSealing:
    def test_cross_shard_epoch_verifies_with_batches(self):
        gw = _batched_gateway()
        try:
            futures = [
                gw.submit(tenant, "square", i)
                for i in range(6)
                for tenant in TENANTS
            ]
            for f in futures:
                f.result(timeout=30)
            seal = gw.seal_epoch()
            verdict = gw.verify_epoch(seal)
            assert verdict.ok, verdict.errors
            # the tenants span shards, every receipt is batch-sealed, and
            # epoch sealing flushed every pending window
            shards = {gw._tenants[t].shard for t in TENANTS}
            assert len(shards) > 1
            for tenant in TENANTS:
                entries = [r.entry for r in gw.ledger.receipts(tenant)]
                assert entries and all(not e.signature for e in entries)
                batches = gw.ledger.batches(tenant)
                assert batches
                ae = gw._tenants[tenant].ae
                problems, pending = verify_log_batches(
                    entries, batches, ae.log_public_key
                )
                assert problems == [] and pending == 0
        finally:
            gw.shutdown()

    def test_inclusion_proof_audit_of_gateway_receipts(self):
        gw = _batched_gateway()
        try:
            for i in range(5):
                gw.execute("alice", "square", i)
            gw.seal_epoch()
            ae = gw._tenants["alice"].ae
            for receipt in gw.ledger.receipts("alice"):
                batch, proof = ae.log.batch_proof(receipt.entry.sequence)
                assert verify_batched_entry(
                    receipt.entry, batch, proof, ae.log_public_key
                )
        finally:
            gw.shutdown()

    def test_drift_auditor_clean_on_batched_run(self):
        from repro.obs.audit import audit_billing
        from repro.obs.events import EventLog, disable_events, enable_events

        log = enable_events(EventLog())
        try:
            gw = _batched_gateway()
            try:
                for i in range(6):
                    gw.execute("alice", "square", i)
                gw.seal_epoch()
                report = audit_billing(
                    gw.ledger,
                    gw.admission,
                    events=log.events(),
                    gateway_id=gw.gateway_id,
                )
                assert report.ok, [f.to_json() for f in report.findings]
                assert not report.warnings()
            finally:
                gw.shutdown()
        finally:
            disable_events()

    def test_pending_batch_is_a_warning_not_an_error(self):
        from repro.obs.audit import audit_billing

        gw = _batched_gateway()
        try:
            for i in range(2):  # below the window: no batch sealed yet
                gw.execute("alice", "square", i)
            report = audit_billing(gw.ledger)
            assert report.ok  # pending-batch must not fail the gate
            assert any(f.code == "pending-batch" for f in report.warnings())
        finally:
            gw.shutdown()

    def test_signature_economy_one_seal_per_window(self):
        gw = _batched_gateway(seal_window=4)
        try:
            for i in range(8):
                gw.execute("alice", "square", i)
            gw.seal_epoch()
            entries = [r.entry for r in gw.ledger.receipts("alice")]
            batches = gw.ledger.batches("alice")
            assert sum(1 for e in entries if e.signature) == 0
            assert len(batches) == 2  # 8 receipts / window of 4
        finally:
            gw.shutdown()

    def test_checkpoint_receipts_ride_inside_batches(self):
        gw = MeteringGateway(
            workers=2, pool="thread", preempt_after=150, seal_window=4
        )
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            for _ in range(2):
                gw.execute("alice", "total", 40)
            seal = gw.seal_epoch()
            assert gw.verify_epoch(seal).ok
            receipts = gw.ledger.receipts("alice")
            checkpoints = [r for r in receipts if isinstance(r.request_id, str)]
            assert checkpoints, "preemption produced no checkpoint receipts"
            assert all(not r.entry.signature for r in receipts)
            ae = gw._tenants["alice"].ae
            problems, pending = verify_log_batches(
                [r.entry for r in receipts],
                gw.ledger.batches("alice"),
                ae.log_public_key,
            )
            assert problems == [] and pending == 0
        finally:
            gw.shutdown()

    def test_unbatched_default_is_byte_identical_per_receipt_signing(self):
        gw = MeteringGateway(workers=1, pool="thread")
        try:
            gw.register_tenant("alice", minic=MINIC_SQUARE)
            gw.execute("alice", "square", 2)
            ae = gw._tenants["alice"].ae
            assert ae.log.batch_window is None
            assert all(e.signature for e in ae.log.entries)
            assert gw.ledger.batches("alice") == []
        finally:
            gw.shutdown()


class TestChaosWithBatchedSealing:
    def test_chaos_loadtest_stays_exactly_once_with_batching(self):
        result = run_loadtest(
            worker_counts=(2,),
            requests=12,
            pool="thread",
            kernels=("trisolv",),
            backend="modeled",
            time_scale=0.0,
            faults="crash:4",
            seal_window=4,
        )
        [point] = result["sweep"]
        assert point["epoch_ok"], point["epoch_errors"]
        assert point["billing"]["exactly_once"], point["billing"]
        sigs = point["signatures"]
        assert sigs["per_receipt"] == 0
        assert sigs["batch_seals"] > 0
        assert sigs["per_request"] < 1.0
