"""The instrumentation enclave (IE): instruments workloads and signs evidence.

Per the paper's Fig. 3 workflow, instrumentation is disaggregated from
execution: the IE runs once per workload, produces the instrumented
WebAssembly together with *instrumentation evidence* — a signed statement
binding the input hash, output hash, instrumentation level and weight table
— and the accounting enclave later accepts a workload only with valid
evidence.  Caching the instrumented module across invocations is therefore
safe (paper §3.3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.instrument import InstrumentationResult, instrument_module
from repro.instrument.weights import UNIT_WEIGHTS, WeightTable
from repro.sgx.enclave import Enclave
from repro.tcrypto.hashing import sha256
from repro.tcrypto.rsa import RSAKeyPair, RSAPublicKey, rsa_generate, rsa_sign, rsa_verify
from repro.wasm.binary import encode_module
from repro.wasm.module import Module


@dataclass(frozen=True)
class InstrumentationEvidence:
    """Cryptographic evidence that the IE produced a given instrumented module."""

    input_hash: bytes
    output_hash: bytes
    level: str
    weight_table_digest: bytes
    counter_global_index: int
    ie_measurement: bytes
    signature: bytes

    def body(self) -> bytes:
        payload = {
            "input_hash": self.input_hash.hex(),
            "output_hash": self.output_hash.hex(),
            "level": self.level,
            "weight_table_digest": self.weight_table_digest.hex(),
            "counter_global_index": self.counter_global_index,
            "ie_measurement": self.ie_measurement.hex(),
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")


class InstrumentationEnclave(Enclave):
    """Runs the instrumentation pass and signs the result.

    The enclave's measurement covers the pass implementation and the weight
    table, so both parties can audit the public code, recompute the expected
    measurement, and then trust any module carrying valid evidence.
    """

    CODE_VERSION = b"acctee-sim instrumentation enclave v1"

    def __init__(
        self,
        weight_table: WeightTable | None = None,
        level: str = "loop-based",
        key_bits: int = 512,
        key_seed: int = 11,
    ):
        self.weight_table = weight_table or UNIT_WEIGHTS
        self.level = level
        super().__init__(
            "instrumentation-enclave",
            (self.CODE_VERSION, self.weight_table.digest(), level.encode("utf-8")),
        )
        self._signing_key: RSAKeyPair = rsa_generate(key_bits, seed=key_seed)

    @property
    def evidence_public_key(self) -> RSAPublicKey:
        return self._signing_key.public

    def instrument(self, module: Module) -> tuple[InstrumentationResult, InstrumentationEvidence]:
        """Instrument a module and emit signed evidence over input and output."""
        input_hash = sha256(encode_module(module))
        result = instrument_module(module, self.level, self.weight_table)
        output_hash = sha256(encode_module(result.module))
        unsigned = InstrumentationEvidence(
            input_hash=input_hash,
            output_hash=output_hash,
            level=self.level,
            weight_table_digest=self.weight_table.digest(),
            counter_global_index=result.counter_global_index,
            ie_measurement=self.mrenclave,
            signature=b"",
        )
        return result, replace(unsigned, signature=rsa_sign(self._signing_key, unsigned.body()))


def verify_evidence(
    evidence: InstrumentationEvidence,
    instrumented_module: Module,
    ie_public_key: RSAPublicKey,
    expected_ie_measurement: bytes,
) -> bool:
    """Accounting-enclave-side check before accepting a workload.

    Verifies the IE identity, the signature, and that the module in hand is
    byte-identical to the one the evidence covers.
    """
    if evidence.ie_measurement != expected_ie_measurement:
        return False
    if not rsa_verify(ie_public_key, evidence.body(), evidence.signature):
        return False
    return sha256(encode_module(instrumented_module)) == evidence.output_hash
