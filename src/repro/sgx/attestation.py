"""Remote attestation: quoting enclave, quotes and the IAS-like verifier.

Protocol (paper §2.2): a challenger sends a nonce; the application enclave
embeds it (with any user data, e.g. a fresh public key) in a local report;
the *quoting enclave* on the same platform verifies the report and signs a
*quote* with its provisioned attestation key; the challenger submits the
quote to the attestation service, which checks that the key belongs to a
registered, up-to-date platform and returns a signed verification report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.sgx.enclave import Enclave, Report, SGXPlatform
from repro.tcrypto.hashing import sha256
from repro.tcrypto.rsa import RSAKeyPair, RSAPublicKey, rsa_generate, rsa_sign, rsa_verify


class AttestationError(Exception):
    """Raised when attestation verification fails."""


@dataclass(frozen=True)
class Quote:
    """A signed attestation quote covering an enclave report."""

    mrenclave: bytes
    report_data: bytes
    platform_id: bytes
    qe_key_fingerprint: bytes
    signature: bytes

    def signed_body(self) -> bytes:
        return b"||".join(
            (self.mrenclave, self.report_data, self.platform_id, self.qe_key_fingerprint)
        )


@dataclass(frozen=True)
class VerificationReport:
    """The attestation service's signed verdict on a quote (IAS report)."""

    quote: Quote
    ok: bool
    advisory: str
    timestamp: float
    signature: bytes

    def signed_body(self) -> bytes:
        return b"||".join(
            (
                self.quote.signed_body(),
                b"OK" if self.ok else b"INVALID",
                self.advisory.encode("utf-8"),
                repr(self.timestamp).encode("ascii"),
            )
        )


class QuotingEnclave(Enclave):
    """The architectural enclave that turns local reports into signed quotes."""

    CODE = (b"acctee-sim quoting enclave v1",)

    def __init__(self, key_bits: int = 512, seed: int = 1):
        super().__init__("quoting-enclave", self.CODE)
        self._attestation_key: RSAKeyPair = rsa_generate(key_bits, seed=seed)

    @property
    def attestation_public_key(self) -> RSAPublicKey:
        return self._attestation_key.public

    def quote(self, report: Report) -> Quote:
        """Verify a sibling enclave's report and sign a quote over it."""
        if not self.platform.verify_report(report):
            raise AttestationError("local report verification failed")
        quote = Quote(
            mrenclave=report.mrenclave,
            report_data=report.report_data,
            platform_id=report.platform_id,
            qe_key_fingerprint=self._attestation_key.public.fingerprint(),
            signature=b"",
        )
        return replace(quote, signature=rsa_sign(self._attestation_key, quote.signed_body()))


@dataclass
class _RegisteredPlatform:
    public_key: RSAPublicKey
    tcb_up_to_date: bool = True


class AttestationService:
    """The IAS analogue: registers platforms and verifies quotes.

    Workload providers trust this service's signing key (out of band, like
    Intel's IAS root certificate) and accept a quote only with a positively
    signed verification report.
    """

    def __init__(self, key_bits: int = 512, seed: int = 2, clock=time.time):
        self._service_key = rsa_generate(key_bits, seed=seed)
        self._platforms: dict[bytes, _RegisteredPlatform] = {}
        self._clock = clock

    @property
    def public_key(self) -> RSAPublicKey:
        return self._service_key.public

    def provision(self, qe: QuotingEnclave, tcb_up_to_date: bool = True) -> None:
        """Register a quoting enclave's attestation key (EPID provisioning)."""
        fingerprint = qe.attestation_public_key.fingerprint()
        self._platforms[fingerprint] = _RegisteredPlatform(
            qe.attestation_public_key, tcb_up_to_date
        )

    def revoke(self, qe: QuotingEnclave) -> None:
        self._platforms.pop(qe.attestation_public_key.fingerprint(), None)

    def mark_tcb_outdated(self, qe: QuotingEnclave) -> None:
        entry = self._platforms.get(qe.attestation_public_key.fingerprint())
        if entry is not None:
            entry.tcb_up_to_date = False

    def verify_quote(self, quote: Quote) -> VerificationReport:
        """Check a quote and return a signed verification report."""
        entry = self._platforms.get(quote.qe_key_fingerprint)
        if entry is None:
            ok, advisory = False, "UNKNOWN_PLATFORM"
        elif not rsa_verify(entry.public_key, quote.signed_body(), quote.signature):
            ok, advisory = False, "INVALID_SIGNATURE"
        elif not entry.tcb_up_to_date:
            ok, advisory = False, "GROUP_OUT_OF_DATE"
        else:
            ok, advisory = True, "OK"
        report = VerificationReport(
            quote=quote, ok=ok, advisory=advisory, timestamp=self._clock(), signature=b""
        )
        return replace(report, signature=rsa_sign(self._service_key, report.signed_body()))


def verify_service_report(
    service_public_key: RSAPublicKey, report: VerificationReport
) -> bool:
    """Challenger-side check of an attestation service verdict."""
    return rsa_verify(service_public_key, report.signed_body(), report.signature)


def remote_attest(
    enclave: Enclave,
    qe: QuotingEnclave,
    service: AttestationService,
    nonce: bytes,
    user_data: bytes = b"",
) -> VerificationReport:
    """Run the full remote-attestation round trip for ``enclave``.

    The nonce and user data are bound into the report data, so a verifier
    checking ``report_data == sha256(nonce || user_data)`` gets freshness and
    a channel binding in one step.
    """
    report_data = sha256(nonce + user_data)
    report = enclave.report(report_data)
    quote = qe.quote(report)
    return service.verify_quote(quote)


def challenge_enclave(
    enclave: Enclave,
    qe: QuotingEnclave,
    service: AttestationService,
    nonce: bytes,
    user_data: bytes = b"",
) -> bool:
    """The challenger's whole attestation check, for either party.

    Runs :func:`remote_attest` and accepts only a verdict that is ``ok``,
    signed by ``service``, for ``enclave``'s measurement, and whose report
    data hashes this nonce and ``user_data`` (freshness plus the binding of,
    e.g., the AE's log-signing key).
    """
    verdict = remote_attest(enclave, qe, service, nonce, user_data)
    return (
        verdict.ok
        and verify_service_report(service.public_key, verdict)
        and verdict.quote.mrenclave == enclave.mrenclave
        and verdict.quote.report_data == sha256(nonce + user_data)
    )
