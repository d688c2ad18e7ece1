"""Signed resource usage logs: the artefact both parties trust (Fig. 1).

A :class:`ResourceUsageLog` is an append-only sequence of
:class:`ResourceVector` entries, hash-chained and signed by the accounting
enclave's run key (whose public half is bound to the enclave identity via
remote attestation).  Either party can verify the chain offline.

Two signing modes:

* **per-entry** (the default) — every entry carries its own RSA signature,
  as in the paper's base protocol;
* **batched** (``batch_window=N``) — entries are appended with an empty
  signature and, every ``N`` entries (or on an explicit :meth:`flush`),
  one signature is produced over the Merkle root of the pending entry
  bodies (:class:`LogBatch`).  This is the S-FaaS-style aggregation the
  metering gateway uses to take the RSA operation off the request path:
  one signature per flush window instead of one per request, with
  per-entry inclusion proofs (:meth:`batch_proof` /
  :func:`verify_batched_entry`) so a single receipt stays individually
  auditable.  The hash chain is unaffected — entry bodies (and therefore
  entry hashes) never include the signature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable

from repro.tcrypto.hashing import sha256
from repro.tcrypto.merkle import MerkleProof, MerkleTree, verify_proof
from repro.tcrypto.rsa import RSAKeyPair, RSAPublicKey, rsa_sign, rsa_verify

#: The ``previous_hash`` of every chain's first entry.
GENESIS = b"\x00" * 32


@dataclass(frozen=True)
class ResourceVector:
    """One accounting sample: the three resources the paper meters (§3.5)."""

    weighted_instructions: int
    peak_memory_bytes: int
    memory_integral_page_instructions: int
    io_bytes_in: int
    io_bytes_out: int
    label: str = ""

    @property
    def io_bytes_total(self) -> int:
        return self.io_bytes_in + self.io_bytes_out

    def to_json(self) -> dict:
        return {
            "weighted_instructions": self.weighted_instructions,
            "peak_memory_bytes": self.peak_memory_bytes,
            "memory_integral_page_instructions": self.memory_integral_page_instructions,
            "io_bytes_in": self.io_bytes_in,
            "io_bytes_out": self.io_bytes_out,
            "label": self.label,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ResourceVector":
        return cls(**data)


@dataclass(frozen=True)
class LogEntry:
    """A resource vector chained to its predecessor and signed."""

    sequence: int
    vector: ResourceVector
    workload_hash: bytes
    weight_table_digest: bytes
    previous_hash: bytes
    signature: bytes

    def body(self) -> bytes:
        # memoised: the chain hash, batch Merkle leaves and every verify
        # pass all re-serialize the same immutable fields
        cached = self.__dict__.get("_body")
        if cached is not None:
            return cached
        payload = {
            "sequence": self.sequence,
            "vector": self.vector.to_json(),
            "workload_hash": self.workload_hash.hex(),
            "weight_table_digest": self.weight_table_digest.hex(),
            "previous_hash": self.previous_hash.hex(),
        }
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        object.__setattr__(self, "_body", encoded)
        return encoded

    def entry_hash(self) -> bytes:
        return sha256(self.body())


@dataclass(frozen=True)
class LogBatch:
    """One AE signature over the Merkle root of a window of entry bodies.

    Covers entries ``[start_sequence, end_sequence)``.  The signed body is
    domain-tagged (``"kind": "receipt-batch"``) so a batch signature can
    never be confused with a per-entry signature over the same key.
    """

    start_sequence: int
    end_sequence: int  # exclusive
    merkle_root: bytes
    signature: bytes

    def body(self) -> bytes:
        payload = {
            "kind": "receipt-batch",
            "start_sequence": self.start_sequence,
            "end_sequence": self.end_sequence,
            "merkle_root": self.merkle_root.hex(),
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")


def verify_batched_entry(
    entry: LogEntry,
    batch: LogBatch,
    proof: MerkleProof,
    public_key: RSAPublicKey,
) -> bool:
    """Audit one receipt against its batch: proof + batch signature.

    The privacy-preserving single-receipt path: a tenant holding one entry,
    its batch and an inclusion proof needs nothing else to check the AE
    really signed (a commitment to) this receipt.
    """
    if not batch.start_sequence <= entry.sequence < batch.end_sequence:
        return False
    if proof.leaf_index != entry.sequence - batch.start_sequence:
        return False
    if not verify_proof(entry.body(), proof, batch.merkle_root):
        return False
    return rsa_verify(public_key, batch.body(), batch.signature)


def verify_log_batches(
    entries: list[LogEntry],
    batches: list[LogBatch],
    public_key: RSAPublicKey,
    complete_upto: int = 0,
) -> tuple[list[str], int]:
    """Check that every unsigned entry is covered by a verifying batch.

    ``entries`` is a contiguous chain segment (any base sequence);
    ``batches`` the batches claimed to cover it.  Returns ``(problems,
    pending)`` where ``pending`` counts uncovered unsigned entries at or
    past both ``complete_upto`` and the end of the last verifying batch —
    awaiting a flush, incomplete rather than wrong.  Any other uncovered
    unsigned entry, root mismatch or bad batch signature is a problem.
    """
    problems: list[str] = []
    covered: set[int] = set()
    base = entries[0].sequence if entries else 0
    last_end = base
    for batch in batches:
        lo, hi = batch.start_sequence - base, batch.end_sequence - base
        if lo < 0 or hi > len(entries) or lo >= hi:
            problems.append(
                f"batch [{batch.start_sequence}, {batch.end_sequence}) falls "
                "outside the provided entries"
            )
            continue
        segment = entries[lo:hi]
        root = MerkleTree([e.body() for e in segment]).root
        if root != batch.merkle_root:
            problems.append(
                f"batch [{batch.start_sequence}, {batch.end_sequence}): "
                "Merkle root does not match the covered entries (tampered)"
            )
            continue
        if not rsa_verify(public_key, batch.body(), batch.signature):
            problems.append(
                f"batch [{batch.start_sequence}, {batch.end_sequence}): "
                "batch signature does not verify"
            )
            continue
        covered.update(range(batch.start_sequence, batch.end_sequence))
        last_end = max(last_end, batch.end_sequence)
    pending = 0
    bound = max(last_end, complete_upto)
    for entry in entries:
        if entry.signature or entry.sequence in covered:
            continue
        if entry.sequence >= bound:
            pending += 1
        else:
            problems.append(
                f"entry {entry.sequence} is unsigned and not covered by any batch"
            )
    return problems, pending


@dataclass(frozen=True)
class ChainProblem:
    """One thing :func:`verify_chain` found wrong with a chain segment.

    ``kind`` is ``"chain"`` (sequence numbers, hash links, a segment short
    of its completeness bound), ``"signature"`` (an entry's own signature),
    ``"batch"`` (a batch seal, or an unsigned entry no verifying batch
    covers) or ``"pending"`` (unsigned entries past the completeness bound,
    awaiting a flush: incomplete rather than wrong).
    """

    kind: str
    detail: str


def verify_chain(
    entries: list[LogEntry],
    public_key: RSAPublicKey,
    batches: list[LogBatch] = (),
    start_sequence: int = 0,
    start_hash: bytes = GENESIS,
    complete_upto: int | None = None,
) -> tuple[list[ChainProblem], bytes]:
    """The receipt-chain verifier every auditor shares.

    Walks ``entries`` as the segment that starts at ``start_sequence`` and
    links to ``start_hash``: sequence numbers, ``previous_hash`` links and
    per-entry signatures (stopping at the first failure), then every
    claimed batch seal (:func:`verify_log_batches`).  Entries below
    ``complete_upto`` (default: the segment's end) must all be present and
    signed or batch-covered.  Returns the problems found and the hash of
    the last entry the walk accepted; callers add their own policy (an
    expected head or count, a sealed end hash, finding codes).
    """
    problems: list[ChainProblem] = []
    previous = start_hash
    for offset, entry in enumerate(entries):
        sequence = start_sequence + offset
        if entry.sequence != sequence:
            problems.append(ChainProblem(
                "chain", f"entry {offset} has sequence {entry.sequence}, expected {sequence}"
            ))
            break
        if entry.previous_hash != previous:
            problems.append(ChainProblem(
                "chain", f"chain broken at sequence {sequence} (reordered or dropped)"
            ))
            break
        if entry.signature and not rsa_verify(public_key, entry.body(), entry.signature):
            problems.append(ChainProblem(
                "signature", f"signature invalid at sequence {sequence} (tampered)"
            ))
            break
        previous = entry.entry_hash()
    end = start_sequence + len(entries)
    bound = end if complete_upto is None else complete_upto
    if end < bound:
        problems.append(ChainProblem(
            "chain", f"chain ends at sequence {end}, short of {bound} (truncated tail)"
        ))
    batch_problems, pending = verify_log_batches(entries, batches, public_key, bound)
    problems += [ChainProblem("batch", detail) for detail in batch_problems]
    if pending:
        problems.append(ChainProblem(
            "pending", f"{pending} unsigned entries await their batch seal"
        ))
    return problems, previous


def totals_of(entries: Iterable[LogEntry]) -> ResourceVector:
    """Aggregate log entries into one vector: peak memory is the max, every
    other resource the sum."""
    vectors = [e.vector for e in entries]
    return ResourceVector(
        weighted_instructions=sum(v.weighted_instructions for v in vectors),
        peak_memory_bytes=max((v.peak_memory_bytes for v in vectors), default=0),
        memory_integral_page_instructions=sum(
            v.memory_integral_page_instructions for v in vectors
        ),
        io_bytes_in=sum(v.io_bytes_in for v in vectors),
        io_bytes_out=sum(v.io_bytes_out for v in vectors),
        label="totals",
    )


class ResourceUsageLog:
    """The mutually trusted, verifiable log of a workload's resource usage."""

    GENESIS = GENESIS

    def __init__(
        self,
        signing_key: RSAKeyPair | None = None,
        batch_window: int | None = None,
    ):
        if batch_window is not None and batch_window < 1:
            raise ValueError("batch_window must be >= 1")
        self._signing_key = signing_key
        self._batch_window = batch_window
        self.entries: list[LogEntry] = []
        #: Batches sealed so far (batched mode only), in coverage order.
        self.batches: list[LogBatch] = []
        self._batch_from = 0  # first sequence not yet covered by a batch
        self._undrained: list[LogBatch] = []

    @property
    def batch_window(self) -> int | None:
        return self._batch_window

    @property
    def head_hash(self) -> bytes:
        if not self.entries:
            return self.GENESIS
        return self.entries[-1].entry_hash()

    def append(
        self,
        vector: ResourceVector,
        workload_hash: bytes,
        weight_table_digest: bytes,
    ) -> LogEntry:
        """Sign and append one accounting sample (producer side).

        In batched mode the entry is appended with an empty signature and
        the pending window is sealed automatically once it reaches
        ``batch_window`` entries — one RSA signature per window, not per
        entry.
        """
        if self._signing_key is None:
            raise RuntimeError("this log handle is verify-only")
        unsigned = LogEntry(
            sequence=len(self.entries),
            vector=vector,
            workload_hash=workload_hash,
            weight_table_digest=weight_table_digest,
            previous_hash=self.head_hash,
            signature=b"",
        )
        if self._batch_window is not None:
            self.entries.append(unsigned)
            if len(self.entries) - self._batch_from >= self._batch_window:
                self._seal_batch()
            return unsigned
        entry = replace(unsigned, signature=rsa_sign(self._signing_key, unsigned.body()))
        self.entries.append(entry)
        return entry

    # -- batched sealing ---------------------------------------------------------

    def _seal_batch(self) -> LogBatch:
        pending = self.entries[self._batch_from :]
        tree = MerkleTree([e.body() for e in pending])
        unsigned = LogBatch(
            start_sequence=self._batch_from,
            end_sequence=len(self.entries),
            merkle_root=tree.root,
            signature=b"",
        )
        batch = replace(unsigned, signature=rsa_sign(self._signing_key, unsigned.body()))
        self.batches.append(batch)
        self._undrained.append(batch)
        self._batch_from = len(self.entries)
        return batch

    def flush(self) -> list[LogBatch]:
        """Seal all pending entries into a (possibly short) batch.

        The epoch-seal path calls this so batches never straddle an epoch
        boundary.  No-op when nothing is pending or batching is off.
        """
        if self._batch_window is None or self._batch_from >= len(self.entries):
            return []
        return [self._seal_batch()]

    def drain_batches(self) -> list[LogBatch]:
        """Batches sealed since the last drain (consumer handoff)."""
        out = self._undrained
        self._undrained = []
        return out

    def batch_proof(self, sequence: int) -> tuple[LogBatch, MerkleProof]:
        """The covering batch and inclusion proof for one entry."""
        for batch in self.batches:
            if batch.start_sequence <= sequence < batch.end_sequence:
                segment = self.entries[batch.start_sequence : batch.end_sequence]
                tree = MerkleTree([e.body() for e in segment])
                return batch, tree.proof(sequence - batch.start_sequence)
        raise KeyError(f"entry {sequence} is not covered by any sealed batch")

    def verify(
        self,
        public_key: RSAPublicKey,
        expected_head: bytes | None = None,
        expected_entries: int | None = None,
    ) -> bool:
        """Check the hash chain and every signature (either party).

        The chain alone cannot detect *truncation* — dropping a suffix
        leaves a shorter but internally consistent log.  Callers who learned
        the expected head hash (or entry count) out of band — e.g. from an
        epoch seal or a progress report — pass it via ``expected_head`` /
        ``expected_entries`` to close that hole.

        Batched logs verify too: an entry with an empty signature must be
        covered by a verifying :class:`LogBatch` — entries still pending a
        flush make the log *incomplete*, so verification fails until
        :meth:`flush` runs.
        """
        problems, head = verify_chain(self.entries, public_key, self.batches)
        if problems:
            return False
        if expected_head is not None and head != expected_head:
            return False
        if expected_entries is not None and len(self.entries) != expected_entries:
            return False
        return True

    def totals(self) -> ResourceVector:
        """Aggregate all entries into one vector (sum/max as appropriate)."""
        return totals_of(self.entries)
