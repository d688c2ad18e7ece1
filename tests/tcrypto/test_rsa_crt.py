"""CRT signing: byte-identical to the textbook ``pow(m, d, n)`` signature."""

import random

import pytest

from repro.tcrypto.rsa import _emsa_pkcs1_encode, rsa_generate, rsa_sign, rsa_verify


def textbook_sign(key, message: bytes) -> bytes:
    k = key.public.byte_length
    return pow(_emsa_pkcs1_encode(message, k), key.d, key.n).to_bytes(k, "big")


@pytest.mark.parametrize(
    "bits,seeds", [(512, (1, 2, 3, 17, 4242)), (2048, (7,))]
)
def test_crt_signature_matches_textbook_exponentiation(bits, seeds):
    for seed in seeds:
        key = rsa_generate(bits, seed=seed)
        assert key.p * key.q == key.n
        rng = random.Random(f"crt:{bits}:{seed}")
        messages = [b"", b"receipt"] + [rng.randbytes(rng.randrange(1, 300)) for _ in range(6)]
        for message in messages:
            signature = rsa_sign(key, message)
            assert signature == textbook_sign(key, message)
            assert rsa_verify(key.public, message, signature)
