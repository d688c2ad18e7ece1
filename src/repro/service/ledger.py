"""The billing ledger: signed receipts sealed into auditable epochs.

Every request the gateway serves yields a *receipt* — the log entry the
tenant's accounting enclave signed.  Receipts for one tenant form a hash
chain (the AE's :class:`~repro.core.resource_log.ResourceUsageLog`); the
ledger periodically *seals an epoch* by committing, for every tenant, the
chain segment served since the previous seal, and publishing one Merkle
root over all segments (S-FaaS-style aggregation: one commitment covers
every tenant's bill).

The offline :func:`verify_epoch` auditor re-derives everything from the
receipts alone and catches the three receipt-level attacks the paper's
threat model cares about:

* **tampered** receipts — a signature or entry hash no longer verifies;
* **reordered** receipts — sequence numbers or ``previous_hash`` links break;
* **dropped** receipts — interior drops break the chain, and a truncated
  *tail* (which a bare hash chain cannot see) contradicts the sealed
  segment-end hash.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, replace

from repro.core.resource_log import (
    LogBatch,
    LogEntry,
    ResourceUsageLog,
    ResourceVector,
    totals_of,
    verify_chain,
)
from repro.obs.events import emit as emit_event
from repro.obs.events import events_enabled
from repro.obs.instruments import (
    LEDGER_BATCH_SEALS,
    LEDGER_RECEIPTS,
    LEDGER_SEAL_DURATION,
)
from repro.obs.trace import span as obs_span
from repro.tcrypto.hashing import sha256
from repro.tcrypto.merkle import MerkleProof, MerkleTree, verify_proof
from repro.tcrypto.rsa import RSAKeyPair, RSAPublicKey, rsa_generate, rsa_sign, rsa_verify


class DuplicateReceipt(ValueError):
    """A second receipt arrived for a request id already billed — the
    exactly-once invariant caught a double-billing attempt (e.g. a retry
    racing its own first attempt)."""


@dataclass(frozen=True)
class Receipt:
    """One request's signed accounting entry, attributed to a tenant.

    ``request_id`` ties the receipt to the gateway request it bills
    (retries reuse the id, so at most one receipt ever carries it);
    ``None`` for receipts recorded outside a gateway request path.
    Checkpoint receipts for a preempted request bill under the derived
    string id ``"<id>#cpN"`` — the bare integer id stays reserved for the
    request's single final receipt.

    ``trace_id`` is billing provenance, *outside* the signed body: it links
    the receipt to the distributed trace of the execution that produced it
    (every ``#cpN`` checkpoint of a preempted request carries the same id).
    Keeping it off :class:`~repro.core.resource_log.LogEntry` preserves the
    obs-on/off byte-identical signed-vector guarantee.
    """

    tenant_id: str
    entry: LogEntry
    request_id: int | str | None = None
    trace_id: str | None = None


@dataclass(frozen=True)
class TenantSpan:
    """One tenant's chain segment inside an epoch: entries
    ``[start_sequence, end_sequence)`` linking ``start_hash`` → ``end_hash``."""

    tenant_id: str
    start_sequence: int
    end_sequence: int
    start_hash: bytes
    end_hash: bytes
    ae_key_fingerprint: bytes

    def leaf(self) -> bytes:
        payload = {
            "tenant_id": self.tenant_id,
            "start_sequence": self.start_sequence,
            "end_sequence": self.end_sequence,
            "start_hash": self.start_hash.hex(),
            "end_hash": self.end_hash.hex(),
            "ae_key_fingerprint": self.ae_key_fingerprint.hex(),
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class EpochSeal:
    """The ledger's public commitment to one epoch, signed by the gateway."""

    epoch: int
    previous_seal_hash: bytes
    merkle_root: bytes
    spans: tuple[TenantSpan, ...]
    signature: bytes

    def body(self) -> bytes:
        payload = {
            "epoch": self.epoch,
            "previous_seal_hash": self.previous_seal_hash.hex(),
            "merkle_root": self.merkle_root.hex(),
            "spans": [span.leaf().decode("utf-8") for span in self.spans],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    def seal_hash(self) -> bytes:
        return sha256(self.body())

    def span_for(self, tenant_id: str) -> TenantSpan | None:
        for span in self.spans:
            if span.tenant_id == tenant_id:
                return span
        return None


@dataclass(frozen=True)
class EpochVerification:
    """Outcome of an offline epoch audit."""

    ok: bool
    epoch: int
    receipts_checked: int
    errors: tuple[str, ...] = ()


class BillingLedger:
    """Collects receipts per tenant and seals them into epochs.

    One lock guards every tenant chain, so sealing an epoch under it takes
    a consistent cross-tenant cut.
    """

    GENESIS = ResourceUsageLog.GENESIS

    def __init__(
        self,
        signing_key: RSAKeyPair | None = None,
        owner: str = "",
    ):
        self._signing_key = signing_key or rsa_generate(512, seed=0x1ED6E5)
        #: Telemetry stamp: which gateway this ledger serves.  Events the
        #: ledger emits carry it, so a shared event log can be audited per
        #: gateway (``audit_billing(..., gateway_id=...)``).
        self.owner = owner
        self._lock = threading.Lock()
        self._receipts: dict[str, list[Receipt]] = {}
        self._ae_keys: dict[str, RSAPublicKey] = {}
        self._sealed_upto: dict[str, int] = {}  # sequence already in an epoch
        self._billed_requests: dict[str, set[int | str]] = {}  # request ids receipted
        self._batches: dict[str, list[LogBatch]] = {}  # batched AE seals per tenant
        self.seals: list[EpochSeal] = []

    @property
    def public_key(self) -> RSAPublicKey:
        return self._signing_key.public

    def register_tenant(self, tenant_id: str, ae_public_key: RSAPublicKey) -> None:
        with self._lock:
            self._receipts.setdefault(tenant_id, [])
            self._ae_keys[tenant_id] = ae_public_key
            self._sealed_upto.setdefault(tenant_id, 0)
            self._billed_requests.setdefault(tenant_id, set())
            self._batches.setdefault(tenant_id, [])

    def record(
        self,
        tenant_id: str,
        entry: LogEntry,
        request_id: int | str | None = None,
        trace_id: str | None = None,
    ) -> Receipt:
        """Append one signed receipt to a tenant's chain (arrival order).

        With ``request_id`` given, enforces exactly-once billing: a second
        receipt for an id already on the chain raises
        :class:`DuplicateReceipt` *before* anything is appended.
        """
        receipt = Receipt(
            tenant_id=tenant_id,
            entry=entry,
            request_id=request_id,
            trace_id=trace_id,
        )
        # narrow critical section: only the chain append and the billed-id
        # set are under the lock — metrics and events emit outside it
        with self._lock:
            chain = self._receipts[tenant_id]
            self._refuse_billed(tenant_id, request_id)
            if entry.sequence != len(chain):
                raise ValueError(
                    f"receipt out of order for {tenant_id!r}: "
                    f"got sequence {entry.sequence}, expected {len(chain)}"
                )
            chain.append(receipt)
            if request_id is not None:
                self._billed_requests[tenant_id].add(request_id)
        LEDGER_RECEIPTS.inc(tenant=tenant_id)
        if events_enabled():  # no entry hash for an event nobody records
            emit_event(
                "receipt",
                gateway=self.owner,
                tenant=tenant_id,
                request_id=request_id,
                sequence=entry.sequence,
                weighted_instructions=entry.vector.weighted_instructions,
                entry_hash=entry.entry_hash(),
                trace_id=trace_id,
            )
        return receipt

    def check_unbilled(self, tenant_id: str, request_id: int | str | None) -> None:
        """Raise :class:`DuplicateReceipt` if ``request_id`` already has a
        receipt — the exactly-once check a signer runs *before* its AE signs,
        so a refused duplicate never leaves the AE's log ahead of the chain."""
        with self._lock:
            self._refuse_billed(tenant_id, request_id)

    def _refuse_billed(self, tenant_id: str, request_id: int | str | None) -> None:
        if request_id is not None and request_id in self._billed_requests[tenant_id]:
            raise DuplicateReceipt(f"request {request_id} already billed for {tenant_id!r}")

    def billed_requests(self, tenant_id: str | None = None) -> int:
        """Distinct request ids with a receipt — one tenant's, or all.

        The offline double-billing check compares this against the raw
        receipt count: they must be equal when every receipt carries an id.
        """
        with self._lock:
            if tenant_id is not None:
                return len(self._billed_requests.get(tenant_id, ()))
            return sum(len(ids) for ids in self._billed_requests.values())

    def receipts(self, tenant_id: str) -> list[Receipt]:
        with self._lock:
            return list(self._receipts[tenant_id])

    def tenants(self) -> list[str]:
        """Registered tenant ids, sorted (the drift auditor's iteration order)."""
        with self._lock:
            return sorted(self._receipts)

    def sealed_upto(self, tenant_id: str) -> int:
        """How many of a tenant's receipts are already inside a sealed epoch."""
        with self._lock:
            return self._sealed_upto.get(tenant_id, 0)

    # -- batched AE seals --------------------------------------------------------

    def record_batch(self, tenant_id: str, batch: LogBatch) -> None:
        """Record one AE batch seal covering a window of a tenant's receipts.

        Batches must arrive contiguously (each starting where the previous
        ended) and never past the recorded chain — the gateway drains them
        from the AE's log in order, under the tenant lock.
        """
        with self._lock:
            batches = self._batches[tenant_id]
            expected = batches[-1].end_sequence if batches else 0
            if batch.start_sequence != expected:
                raise ValueError(
                    f"batch out of order for {tenant_id!r}: starts at "
                    f"{batch.start_sequence}, expected {expected}"
                )
            if batch.end_sequence > len(self._receipts[tenant_id]):
                raise ValueError(
                    f"batch for {tenant_id!r} covers receipts the ledger "
                    "has not recorded"
                )
            batches.append(batch)
        LEDGER_BATCH_SEALS.inc(tenant=tenant_id)
        emit_event(
            "batch_seal",
            gateway=self.owner,
            tenant=tenant_id,
            start_sequence=batch.start_sequence,
            end_sequence=batch.end_sequence,
            receipts=batch.end_sequence - batch.start_sequence,
        )

    def batches(self, tenant_id: str) -> list[LogBatch]:
        """The AE batch seals recorded for one tenant, in coverage order."""
        with self._lock:
            return list(self._batches.get(tenant_id, ()))

    def ae_key(self, tenant_id: str) -> RSAPublicKey:
        return self._ae_keys[tenant_id]

    def totals(self, tenant_id: str) -> ResourceVector:
        """One tenant's aggregate usage across all recorded receipts."""
        return totals_of(r.entry for r in self.receipts(tenant_id))

    # -- epoch sealing -----------------------------------------------------------

    def seal_epoch(self) -> EpochSeal:
        """Seal all unsealed receipts into a new epoch.

        Tenants with no new receipts since the last seal are omitted; an
        epoch with no new receipts at all still seals (empty span list is
        rejected by the Merkle tree, so we commit a sentinel leaf).
        """
        sealed_at = time.perf_counter()
        # a consistent cut across every tenant chain (sealing is rare and
        # off the hot path)
        with self._lock, obs_span("ledger.seal_epoch", epoch=len(self.seals)):
            spans: list[TenantSpan] = []
            for tenant_id in sorted(self._receipts):
                chain = self._receipts[tenant_id]
                start = self._sealed_upto[tenant_id]
                if start >= len(chain):
                    continue
                start_hash = (
                    chain[start].entry.previous_hash if start < len(chain) else self.GENESIS
                )
                spans.append(
                    TenantSpan(
                        tenant_id=tenant_id,
                        start_sequence=start,
                        end_sequence=len(chain),
                        start_hash=start_hash,
                        end_hash=chain[-1].entry.entry_hash(),
                        ae_key_fingerprint=self._ae_keys[tenant_id].fingerprint(),
                    )
                )
                self._sealed_upto[tenant_id] = len(chain)
            leaves = [span.leaf() for span in spans] or [b"empty-epoch"]
            previous = self.seals[-1].seal_hash() if self.seals else self.GENESIS
            unsigned = EpochSeal(
                epoch=len(self.seals),
                previous_seal_hash=previous,
                merkle_root=MerkleTree(leaves).root,
                spans=tuple(spans),
                signature=b"",
            )
            seal = replace(unsigned, signature=rsa_sign(self._signing_key, unsigned.body()))
            self.seals.append(seal)
            duration_s = time.perf_counter() - sealed_at
            LEDGER_SEAL_DURATION.observe(duration_s)
            emit_event(
                "seal",
                gateway=self.owner,
                epoch=seal.epoch,
                spans=len(spans),
                receipts=sum(s.end_sequence - s.start_sequence for s in spans),
                duration_s=duration_s,
            )
            return seal

    def epoch_receipts(self, seal: EpochSeal, tenant_id: str) -> list[Receipt]:
        """The receipts a given seal covers for one tenant."""
        span = seal.span_for(tenant_id)
        if span is None:
            return []
        with self._lock:
            return list(self._receipts[tenant_id][span.start_sequence : span.end_sequence])

    def inclusion_proof(self, seal: EpochSeal, tenant_id: str) -> MerkleProof:
        """Merkle proof that a tenant's span is committed under the seal."""
        for index, span in enumerate(seal.spans):
            if span.tenant_id == tenant_id:
                tree = MerkleTree([s.leaf() for s in seal.spans])
                return tree.proof(index)
        raise KeyError(f"tenant {tenant_id!r} has no span in epoch {seal.epoch}")


def _verify_span(
    span: TenantSpan,
    receipts: list[Receipt],
    ae_key: RSAPublicKey,
    errors: list[str],
    batches: list[LogBatch] = (),
) -> None:
    tid = span.tenant_id
    if ae_key.fingerprint() != span.ae_key_fingerprint:
        errors.append(f"{tid}: accounting key does not match the sealed fingerprint")
        return
    expected = span.end_sequence - span.start_sequence
    if len(receipts) != expected:
        errors.append(
            f"{tid}: {len(receipts)} receipts for a span of {expected} "
            "(dropped or extra receipts)"
        )
        return
    # the epoch seal forced a flush, so the span must be complete: every
    # receipt signed or under a verifying batch that lies inside the span
    problems, head = verify_chain(
        [r.entry for r in receipts],
        ae_key,
        [
            b
            for b in batches
            if span.start_sequence <= b.start_sequence
            and b.end_sequence <= span.end_sequence
        ],
        start_sequence=span.start_sequence,
        start_hash=span.start_hash,
        complete_upto=span.end_sequence,
    )
    errors.extend(f"{tid}: {problem.detail}" for problem in problems)
    if not problems and head != span.end_hash:
        errors.append(f"{tid}: chain head does not match the sealed end hash (truncated tail)")


def verify_epoch(
    seal: EpochSeal,
    receipts_by_tenant: dict[str, list[Receipt]],
    ae_keys: dict[str, RSAPublicKey],
    ledger_public_key: RSAPublicKey,
    previous_seal: EpochSeal | None = None,
    batches_by_tenant: dict[str, list[LogBatch]] | None = None,
) -> EpochVerification:
    """Offline audit of one epoch from first principles.

    ``receipts_by_tenant`` must hold, for each tenant with a span in the
    seal, exactly the receipts the span covers, in chain order.  Either
    party can run this: it needs only public keys and the receipts.
    ``batches_by_tenant`` supplies the AE batch seals for tenants whose
    receipts were signed in batched mode — the verifier recomputes each
    batch's Merkle root from the receipts themselves and checks one batch
    signature per flush window instead of one per receipt.
    """
    errors: list[str] = []
    checked = 0

    if not rsa_verify(ledger_public_key, seal.body(), seal.signature):
        errors.append("epoch seal signature invalid")
    if previous_seal is not None and seal.previous_seal_hash != previous_seal.seal_hash():
        errors.append("epoch does not chain to the given previous seal")

    leaves = [span.leaf() for span in seal.spans] or [b"empty-epoch"]
    if MerkleTree(leaves).root != seal.merkle_root:
        errors.append("Merkle root does not match the sealed spans")

    for span in seal.spans:
        receipts = receipts_by_tenant.get(span.tenant_id)
        key = ae_keys.get(span.tenant_id)
        if receipts is None or key is None:
            errors.append(f"{span.tenant_id}: receipts or accounting key missing")
            continue
        checked += len(receipts)
        batches = (batches_by_tenant or {}).get(span.tenant_id, [])
        _verify_span(span, receipts, key, errors, batches=batches)

    return EpochVerification(
        ok=not errors,
        epoch=seal.epoch,
        receipts_checked=checked,
        errors=tuple(errors),
    )


def audit_tenant(
    seal: EpochSeal,
    proof: MerkleProof,
    span: TenantSpan,
    receipts: list[Receipt],
    ae_key: RSAPublicKey,
    ledger_public_key: RSAPublicKey,
    batches: list[LogBatch] = (),
) -> bool:
    """A single tenant's audit: my receipts, my span, one Merkle proof.

    Needs nothing about other tenants — the privacy-preserving audit path.
    Pass ``batches`` when the receipts were signed in batched mode.
    """
    if not rsa_verify(ledger_public_key, seal.body(), seal.signature):
        return False
    if not verify_proof(span.leaf(), proof, seal.merkle_root):
        return False
    errors: list[str] = []
    _verify_span(span, receipts, ae_key, errors, batches=list(batches))
    return not errors
