"""Tests for protocol artefact serialisation and offline verification."""

import json

import pytest

from repro.core.serialization import (
    dump_log,
    evidence_from_json,
    evidence_to_json,
    log_from_json,
    log_to_json,
    public_key_from_json,
    public_key_to_json,
    verify_log_file,
)
from repro.core.instrumentation_enclave import InstrumentationEnclave, verify_evidence
from repro.core.resource_log import ResourceUsageLog, ResourceVector
from repro.minic import compile_source
from repro.tcrypto.rsa import rsa_generate


@pytest.fixture(scope="module")
def signed_log():
    key = rsa_generate(512, seed=4321)
    log = ResourceUsageLog(key)
    for i in range(3):
        log.append(
            ResourceVector(
                weighted_instructions=1000 + i,
                peak_memory_bytes=65536,
                memory_integral_page_instructions=0,
                io_bytes_in=i,
                io_bytes_out=2 * i,
                label=f"call-{i}",
            ),
            b"\x11" * 32,
            b"\x22" * 32,
        )
    return log, key


def test_public_key_roundtrip():
    key = rsa_generate(512, seed=42)
    restored = public_key_from_json(public_key_to_json(key.public))
    assert restored == key.public


def test_evidence_roundtrip_still_verifies():
    ie = InstrumentationEnclave()
    result, evidence = ie.instrument(compile_source("int f(void) { return 1; }"))
    restored = evidence_from_json(json.loads(json.dumps(evidence_to_json(evidence))))
    assert restored == evidence
    assert verify_evidence(restored, result.module, ie.evidence_public_key, ie.mrenclave)


def test_log_roundtrip_verifies(signed_log):
    log, key = signed_log
    restored, bundled = log_from_json(log_to_json(log, key.public))
    assert bundled == key.public
    assert restored.verify(key.public)
    assert restored.totals() == log.totals()


def test_restored_log_is_verify_only(signed_log):
    log, key = signed_log
    restored, _ = log_from_json(log_to_json(log))
    with pytest.raises(RuntimeError):
        restored.append(log.entries[0].vector, b"\x00" * 32, b"\x00" * 32)


def test_dump_and_verify_file(tmp_path, signed_log):
    log, key = signed_log
    path = tmp_path / "log.json"
    dump_log(log, key.public, str(path))
    ok, totals = verify_log_file(str(path))
    assert ok
    assert totals.weighted_instructions == sum(1000 + i for i in range(3))


def test_tampered_file_fails(tmp_path, signed_log):
    log, key = signed_log
    path = tmp_path / "log.json"
    dump_log(log, key.public, str(path))
    data = json.loads(path.read_text())
    data["entries"][0]["vector"]["weighted_instructions"] = 10**12
    path.write_text(json.dumps(data))
    ok, _ = verify_log_file(str(path))
    assert not ok


def test_substituted_bundled_key_fails_with_explicit_key(tmp_path, signed_log):
    """An attacker re-signs the bundle under their own key; the verifier who
    pins the attested key catches it even though self-verification passes."""
    log, key = signed_log
    attacker = rsa_generate(512, seed=31337)
    forged = ResourceUsageLog(attacker)
    for entry in log.entries:
        forged.append(entry.vector, entry.workload_hash, entry.weight_table_digest)
    path = tmp_path / "forged.json"
    dump_log(forged, attacker.public, str(path))
    self_ok, _ = verify_log_file(str(path))
    assert self_ok  # internally consistent...
    pinned_ok, _ = verify_log_file(str(path), public_key=key.public)
    assert not pinned_ok  # ...but not under the attested key


def test_verify_without_any_key_fails(tmp_path, signed_log):
    log, _ = signed_log
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps(log_to_json(log)))
    ok, _ = verify_log_file(str(path))
    assert not ok


def test_batched_log_roundtrip_verifies(tmp_path, signed_log):
    """A window-4 log's batch seals survive export, so the file verifies
    offline; a forged Merkle root in the file does not."""
    source, key = signed_log
    log = ResourceUsageLog(key, batch_window=4)
    for i in range(6):
        entry = source.entries[i % len(source.entries)]
        log.append(entry.vector, entry.workload_hash, entry.weight_table_digest)
    log.flush()
    assert len(log.batches) == 2 and log.verify(key.public)
    restored, _ = log_from_json(json.loads(json.dumps(log_to_json(log))))
    assert restored.batches == log.batches
    assert restored.verify(key.public)
    path = tmp_path / "batched.json"
    dump_log(log, key.public, str(path))
    assert verify_log_file(str(path))[0]
    data = json.loads(path.read_text())
    data["batches"][0]["merkle_root"] = "00" * 32
    path.write_text(json.dumps(data))
    assert not verify_log_file(str(path))[0]
