"""Enclaves, measurements, local-attestation reports and sealing.

An :class:`Enclave` is identified by the measurement of its code parts (the
MRENCLAVE analogue).  A :class:`SGXPlatform` represents one machine: it holds
the symmetric platform key that backs local attestation (in real SGX, the
report key derived by EREPORT/EGETKEY) and the EPC model shared by all
enclaves on the machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.sgx.epc import EPCModel
from repro.tcrypto.hashing import measurement as measure_parts, sha256
from repro.tcrypto.hmac import hmac_sha256, verify_hmac


@dataclass(frozen=True)
class Report:
    """A local-attestation report: enclave identity + user data, platform-MACed.

    Only enclaves on the same platform can produce or verify these (they
    share the platform key through EGETKEY in real SGX).
    """

    mrenclave: bytes
    report_data: bytes
    platform_id: bytes
    mac: bytes

    def body(self) -> bytes:
        return b"||".join((self.mrenclave, self.report_data, self.platform_id))


class SGXPlatform:
    """One SGX-capable machine: platform key, EPC, and its resident enclaves."""

    def __init__(self, platform_id: str = "machine-0", seed: int = 0):
        self.platform_id = platform_id.encode("utf-8")
        rng = random.Random(seed ^ 0x5347585F)
        self._platform_key = sha256(
            b"platform-report-key" + self.platform_id + rng.randbytes(32)
        )
        self.epc = EPCModel()
        self.enclaves: list["Enclave"] = []

    def launch(self, enclave: "Enclave") -> None:
        enclave._platform = self
        self.enclaves.append(enclave)

    def destroy(self, enclave: "Enclave") -> None:
        """Tear a resident enclave down (EREMOVE): it and its keys leave."""
        self.enclaves.remove(enclave)
        enclave._platform = None

    # -- local attestation primitives (EREPORT / report-key verify) -------------

    def create_report(self, enclave: "Enclave", report_data: bytes) -> Report:
        if enclave._platform is not self:
            raise ValueError("enclave is not resident on this platform")
        body = b"||".join((enclave.mrenclave, report_data, self.platform_id))
        return Report(
            mrenclave=enclave.mrenclave,
            report_data=report_data,
            platform_id=self.platform_id,
            mac=hmac_sha256(self._platform_key, body),
        )

    def verify_report(self, report: Report) -> bool:
        if report.platform_id != self.platform_id:
            return False
        return verify_hmac(self._platform_key, report.body(), report.mac)


class Enclave:
    """A loaded enclave: measured code plus private in-enclave state.

    ``code_parts`` is whatever byte material defines the enclave's identity —
    for AccTEE's accounting enclave that is the runtime code plus its
    configuration; both parties can recompute the expected measurement from
    the published sources (paper §3.3).
    """

    def __init__(self, name: str, code_parts: tuple[bytes, ...]):
        self.name = name
        self.code_parts = tuple(code_parts)
        self.mrenclave = measure_parts(*self.code_parts)
        self._platform: SGXPlatform | None = None
        self._sealed_store: dict[str, bytes] = {}

    @property
    def platform(self) -> SGXPlatform:
        if self._platform is None:
            raise RuntimeError(f"enclave {self.name!r} has not been launched")
        return self._platform

    # -- local attestation -------------------------------------------------------

    def report(self, report_data: bytes = b"") -> Report:
        """EREPORT: produce a report this platform's enclaves can verify."""
        if len(report_data) > 64:
            report_data = sha256(report_data)
        return self.platform.create_report(self, report_data)

    def verify_local(self, report: Report, expected_mrenclave: bytes) -> bool:
        """Verify a report from a sibling enclave on the same platform."""
        return (
            self.platform.verify_report(report)
            and report.mrenclave == expected_mrenclave
        )

    # -- sealing -------------------------------------------------------------------

    def _seal_key(self) -> bytes:
        # MRENCLAVE-policy sealing: key bound to platform and enclave identity
        return sha256(
            b"seal" + self.platform._platform_key + self.mrenclave
        )

    def seal(self, label: str, data: bytes) -> bytes:
        """Seal data to this enclave identity on this platform.

        Returns the sealed blob (MAC || data); only the same enclave identity
        on the same platform can unseal it.
        """
        blob = hmac_sha256(self._seal_key(), label.encode() + data) + data
        self._sealed_store[label] = blob
        return blob

    def unseal(self, label: str, blob: bytes) -> bytes:
        mac, data = blob[:32], blob[32:]
        if not verify_hmac(self._seal_key(), label.encode() + data, mac):
            raise ValueError("sealed blob fails authentication")
        return data
