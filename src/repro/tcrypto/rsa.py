"""RSA key generation and PKCS#1 v1.5-style SHA-256 signatures.

This is a from-scratch RSA used by the simulated SGX quoting enclave and the
instrumentation enclave to sign quotes, evidence blobs and resource usage
logs.  Key sizes are configurable so tests can use small (fast) keys while
examples use 2048-bit keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.tcrypto.hashing import sha256
from repro.tcrypto.primes import generate_prime

# DER prefix for a SHA-256 DigestInfo, as in PKCS#1 v1.5 (RFC 8017 §9.2).
_SHA256_DIGEST_INFO = bytes.fromhex(
    "3031300d060960864801650304020105000420"
)


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> bytes:
        """Stable identifier for the key (hash of its encoding)."""
        n_bytes = self.n.to_bytes(self.byte_length, "big")
        e_bytes = self.e.to_bytes((self.e.bit_length() + 7) // 8 or 1, "big")
        return sha256(len(n_bytes).to_bytes(4, "big") + n_bytes + e_bytes)


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key pair; ``public`` may be shared, nothing else may be.

    Besides ``d`` it keeps the primes and the Chinese Remainder Theorem
    (CRT) exponents, so signing does two half-size exponentiations instead
    of one full-size one (RFC 8017 §5.1.2).
    """

    public: RSAPublicKey
    d: int
    p: int
    q: int
    dp: int  # d mod (p - 1)
    dq: int  # d mod (q - 1)
    qinv: int  # q^-1 mod p

    @property
    def n(self) -> int:
        return self.public.n


def rsa_generate(bits: int = 2048, seed: int | None = None) -> RSAKeyPair:
    """Generate an RSA key pair with a modulus of roughly ``bits`` bits."""
    if bits < 128:
        raise ValueError("RSA modulus must be at least 128 bits")
    rng = random.Random(seed)
    e = 65537
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        d = pow(e, -1, phi)
        return RSAKeyPair(
            public=RSAPublicKey(n=n, e=e), d=d, p=p, q=q,
            dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p),
        )


def _emsa_pkcs1_encode(message: bytes, em_len: int) -> int:
    """EMSA-PKCS1-v1_5 encoding of SHA-256(message) as an integer."""
    t = _SHA256_DIGEST_INFO + sha256(message)
    if em_len < len(t) + 11:
        raise ValueError("RSA modulus too small for SHA-256 signature")
    ps = b"\xff" * (em_len - len(t) - 3)
    em = b"\x00\x01" + ps + b"\x00" + t
    return int.from_bytes(em, "big")


def rsa_sign(key: RSAKeyPair, message: bytes) -> bytes:
    """Sign ``message`` (PKCS#1 v1.5 with SHA-256)."""
    k = key.public.byte_length
    m = _emsa_pkcs1_encode(message, k)
    # CRT: equal to pow(m, d, n) for every m < n, about 3x cheaper
    s1 = pow(m, key.dp, key.p)
    s2 = pow(m, key.dq, key.q)
    s = s2 + (key.qinv * (s1 - s2) % key.p) * key.q
    return s.to_bytes(k, "big")


def rsa_verify(public: RSAPublicKey, message: bytes, signature: bytes) -> bool:
    """Verify a signature produced by :func:`rsa_sign`."""
    k = public.byte_length
    if len(signature) != k:
        return False
    s = int.from_bytes(signature, "big")
    if s >= public.n:
        return False
    m = pow(s, public.e, public.n)
    try:
        expected = _emsa_pkcs1_encode(message, k)
    except ValueError:
        return False
    return m == expected
