"""JSON serialisation of the protocol artefacts exchanged between parties.

The two parties exchange three kinds of artefacts out of band: the
instrumentation *evidence*, attestation *verification reports* and the
signed *resource usage log*.  This module gives each a stable JSON encoding
plus an offline verifier, so either party can archive a log and re-check it
later (or hand it to an auditor) without any live enclave.
"""

from __future__ import annotations

import json

from repro.core.instrumentation_enclave import InstrumentationEvidence
from repro.core.resource_log import LogBatch, LogEntry, ResourceUsageLog, ResourceVector
from repro.tcrypto.rsa import RSAPublicKey


# -- public keys ---------------------------------------------------------------


def public_key_to_json(key: RSAPublicKey) -> dict:
    return {"n": hex(key.n), "e": key.e}


def public_key_from_json(data: dict) -> RSAPublicKey:
    return RSAPublicKey(n=int(data["n"], 16), e=int(data["e"]))


# -- evidence --------------------------------------------------------------------


def evidence_to_json(evidence: InstrumentationEvidence) -> dict:
    return {
        "input_hash": evidence.input_hash.hex(),
        "output_hash": evidence.output_hash.hex(),
        "level": evidence.level,
        "weight_table_digest": evidence.weight_table_digest.hex(),
        "counter_global_index": evidence.counter_global_index,
        "ie_measurement": evidence.ie_measurement.hex(),
        "signature": evidence.signature.hex(),
    }


def evidence_from_json(data: dict) -> InstrumentationEvidence:
    return InstrumentationEvidence(
        input_hash=bytes.fromhex(data["input_hash"]),
        output_hash=bytes.fromhex(data["output_hash"]),
        level=data["level"],
        weight_table_digest=bytes.fromhex(data["weight_table_digest"]),
        counter_global_index=int(data["counter_global_index"]),
        ie_measurement=bytes.fromhex(data["ie_measurement"]),
        signature=bytes.fromhex(data["signature"]),
    )


# -- resource logs ------------------------------------------------------------------


def log_to_json(log: ResourceUsageLog, public_key: RSAPublicKey | None = None) -> dict:
    """Serialise a log and its batch seals (optionally bundling the signer's
    public key)."""
    out: dict = {
        "entries": [
            {
                "sequence": entry.sequence,
                "vector": entry.vector.to_json(),
                "workload_hash": entry.workload_hash.hex(),
                "weight_table_digest": entry.weight_table_digest.hex(),
                "previous_hash": entry.previous_hash.hex(),
                "signature": entry.signature.hex(),
            }
            for entry in log.entries
        ],
        "batches": [
            {
                "start_sequence": batch.start_sequence,
                "end_sequence": batch.end_sequence,
                "merkle_root": batch.merkle_root.hex(),
                "signature": batch.signature.hex(),
            }
            for batch in log.batches
        ],
    }
    if public_key is not None:
        out["public_key"] = public_key_to_json(public_key)
    return out


def log_from_json(data: dict) -> tuple[ResourceUsageLog, RSAPublicKey | None]:
    """Deserialise a log into a verify-only handle (no signing key)."""
    log = ResourceUsageLog(signing_key=None)
    for raw in data["entries"]:
        log.entries.append(
            LogEntry(
                sequence=int(raw["sequence"]),
                vector=ResourceVector.from_json(raw["vector"]),
                workload_hash=bytes.fromhex(raw["workload_hash"]),
                weight_table_digest=bytes.fromhex(raw["weight_table_digest"]),
                previous_hash=bytes.fromhex(raw["previous_hash"]),
                signature=bytes.fromhex(raw["signature"]),
            )
        )
    for raw in data.get("batches", ()):  # absent from per-entry-signed exports
        log.batches.append(
            LogBatch(
                start_sequence=int(raw["start_sequence"]),
                end_sequence=int(raw["end_sequence"]),
                merkle_root=bytes.fromhex(raw["merkle_root"]),
                signature=bytes.fromhex(raw["signature"]),
            )
        )
    key = None
    if "public_key" in data:
        key = public_key_from_json(data["public_key"])
    return log, key


def dump_log(log: ResourceUsageLog, public_key: RSAPublicKey, path: str) -> None:
    """Write a log + key bundle to a JSON file."""
    with open(path, "w") as handle:
        json.dump(log_to_json(log, public_key), handle, indent=2)


def verify_log_file(path: str, public_key: RSAPublicKey | None = None) -> tuple[bool, ResourceVector]:
    """Offline verification of a dumped log; returns (ok, totals).

    If no key is passed, the bundled key is used — callers who obtained the
    expected key through attestation should pass it explicitly so that a
    bundle with a substituted key fails.
    """
    with open(path) as handle:
        data = json.load(handle)
    log, bundled = log_from_json(data)
    key = public_key or bundled
    if key is None:
        return False, log.totals()
    return log.verify(key), log.totals()
