"""Unit tests for RSA key generation and raw operations."""

import math
import random

import pytest

from repro.crypto.rsa import generate_keypair
from repro.crypto.signature import _emsa_encode, sign
from repro.crypto.keys import (
    private_key_from_dict,
    private_key_to_dict,
    public_key_from_dict,
    public_key_to_dict,
)
from repro.errors import ValidationError
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.proxy import issue_proxy
from repro.util.gbtime import VirtualClock

# A two-prime key file as every home initialised before multi-prime keys
# holds it (512-bit, seed 2003 under the two-prime generator).
TWO_PRIME_KEY = {
    "kty": "RSA",
    "n": "cfd4913023787a8cec23849121198f41fb81103be272540eec27d78afa26329b"
    "56183b1df954a73858811405788a1592c1f433e698321227294c4406bd7e351b",
    "e": "10001",
    "d": "51de12333c45c140b1e46bdc1f85ca00dbe9c35353a865a45b32769db05c4ba2"
    "5e8441587d182e24c551356e321d5970428d6ee1da61fbef776737d247282b01",
    "p": "fda4f2edc8e094ae0f9af1371cbe25da5b789af8cbf9808250f227c38b6f12d1",
    "q": "d1c2b17e0731e0e8d004e395e132143c723f22194225c8c3abf09bbb64404c2b",
}


def test_keypair_roundtrip_encrypt_decrypt(keypair_a):
    m = 123456789
    c = keypair_a.public.encrypt_int(m)
    assert c != m
    assert keypair_a.private.decrypt_int(c) == m


def test_sign_then_verify_raw(keypair_a):
    m = 987654321
    s = keypair_a.private.decrypt_int(m)
    assert keypair_a.public.encrypt_int(s) == m


def test_modulus_has_requested_bits():
    kp = generate_keypair(bits=512, rng=random.Random(5))
    assert kp.public.n.bit_length() == 512
    assert kp.public.byte_length == 64


def test_keygen_deterministic_under_seed():
    kp1 = generate_keypair(bits=512, rng=random.Random(99))
    kp2 = generate_keypair(bits=512, rng=random.Random(99))
    assert kp1.public == kp2.public
    assert kp1.private == kp2.private


def test_distinct_seeds_give_distinct_keys():
    kp1 = generate_keypair(bits=512, rng=random.Random(1))
    kp2 = generate_keypair(bits=512, rng=random.Random(2))
    assert kp1.public.n != kp2.public.n


def test_keygen_rejects_bad_sizes():
    with pytest.raises(ValidationError):
        generate_keypair(bits=128)
    with pytest.raises(ValidationError):
        generate_keypair(bits=513)


def test_encrypt_rejects_out_of_range(keypair_a):
    with pytest.raises(ValidationError):
        keypair_a.public.encrypt_int(keypair_a.public.n)
    with pytest.raises(ValidationError):
        keypair_a.public.encrypt_int(-1)


def test_private_key_consistency(keypair_a):
    priv = keypair_a.private
    assert len(priv.primes) == 3
    assert len(set(priv.primes)) == 3
    assert math.prod(priv.primes) == priv.n
    for p in priv.primes:
        assert (priv.e * priv.d) % (p - 1) == 1


@pytest.mark.parametrize("bits", [256, 512, 1024])
def test_crt_matches_reference_exponentiation(bits):
    for seed in range(3):
        priv = generate_keypair(bits=bits, rng=random.Random(seed)).private
        values = random.Random(seed + 100)
        for c in [0, 1, 2, priv.n - 1] + [values.randrange(priv.n) for _ in range(5)]:
            assert priv.decrypt_int(c) == pow(c, priv.d, priv.n)


def test_two_prime_key_file_loads_and_signs():
    priv = private_key_from_dict(TWO_PRIME_KEY)
    n, d = int(TWO_PRIME_KEY["n"], 16), int(TWO_PRIME_KEY["d"], 16)
    assert priv.primes == (int(TWO_PRIME_KEY["p"], 16), int(TWO_PRIME_KEY["q"], 16))
    message = {"op": "transfer", "amount_micro": 4_500_000}
    expected = pow(_emsa_encode(message, priv.byte_length), d, n)
    assert sign(priv, message) == expected.to_bytes(priv.byte_length, "big")


def _flip_bit(hex_value: str, bit: int) -> str:
    return f"{int(hex_value, 16) ^ (1 << bit):x}"


@pytest.mark.parametrize("bit", [0, 1, 77])
def test_key_file_with_corrupt_prime_refused(keypair_a, bit):
    two_prime = dict(TWO_PRIME_KEY, q=_flip_bit(TWO_PRIME_KEY["q"], bit))
    with pytest.raises(ValidationError):
        private_key_from_dict(two_prime)
    data = private_key_to_dict(keypair_a.private)
    data["primes"] = [data["primes"][0], _flip_bit(data["primes"][1], bit), data["primes"][2]]
    with pytest.raises(ValidationError):
        private_key_from_dict(data)


def test_key_file_with_inconsistent_parts_refused(keypair_a):
    data = private_key_to_dict(keypair_a.private)
    with pytest.raises(ValidationError):  # a repeated prime
        private_key_from_dict(dict(data, primes=[data["primes"][0]] * 3))
    with pytest.raises(ValidationError):  # a prime missing
        private_key_from_dict(dict(data, primes=data["primes"][:2]))
    with pytest.raises(ValidationError):  # d does not invert e
        private_key_from_dict(dict(data, d=_flip_bit(data["d"], 3)))
    with pytest.raises(ValidationError):  # e altered under the same d
        private_key_from_dict(dict(TWO_PRIME_KEY, e="3"))


def test_repr_shows_no_private_integer(keypair_a):
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=VirtualClock(),
        rng=random.Random(1), keypair=keypair_a,
    )
    alice = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_a)
    proxy = issue_proxy(alice, clock=VirtualClock(), keypair=keypair_a)
    priv = keypair_a.private
    secrets = [priv.d, *priv.primes]
    for shown in (repr(keypair_a), repr(alice), repr(proxy), repr(priv)):
        for secret in secrets:
            assert str(secret) not in shown
            assert f"{secret:x}" not in shown
            assert f"{secret:X}" not in shown


def test_fingerprint_stable_and_distinct(keypair_a, keypair_b):
    assert keypair_a.public.fingerprint() == keypair_a.public.fingerprint()
    assert keypair_a.public.fingerprint() != keypair_b.public.fingerprint()
    assert len(keypair_a.public.fingerprint()) == 16


def test_public_key_dict_roundtrip(keypair_a):
    data = public_key_to_dict(keypair_a.public)
    assert public_key_from_dict(data) == keypair_a.public


def test_private_key_dict_roundtrip(keypair_a):
    data = private_key_to_dict(keypair_a.private)
    assert private_key_from_dict(data) == keypair_a.private


def test_malformed_key_dicts_rejected():
    with pytest.raises(ValidationError):
        public_key_from_dict({"kty": "EC", "n": "1", "e": "1"})
    with pytest.raises(ValidationError):
        public_key_from_dict({"n": "1"})
    with pytest.raises(ValidationError):
        private_key_from_dict({"kty": "RSA", "n": "zz"})


@pytest.mark.parametrize(
    "n_bits, e, refused",
    [
        (4096, 65537, None),
        (4097, 65537, "over 4096 bits"),
        (512, 65536, "exponent"),  # even
        (512, 1, "exponent"),  # below 3
        (512, 2**32 + 1, "exponent"),  # 2**32 and up
        (512, 2**32 - 1, None),
        (512, 3, None),
    ],
)
def test_public_key_parse_bounds_the_verify_cost(n_bits, e, refused):
    n = (1 << (n_bits - 1)) | 1
    data = {"kty": "RSA", "n": f"{n:x}", "e": f"{e:x}"}
    if refused is None:
        assert public_key_from_dict(data).bits == n_bits
    else:
        with pytest.raises(ValidationError, match=refused):
            public_key_from_dict(data)


def test_keygen_refuses_a_modulus_the_parser_would_refuse():
    with pytest.raises(ValidationError, match="at most 4096 bits"):
        generate_keypair(bits=4098, rng=random.Random(1))
