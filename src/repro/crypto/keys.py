"""Key (de)serialization to canonical-JSON-friendly dicts.

Public keys travel inside certificates; private keys only ever persist to
local key stores. Integers are hex-encoded strings to keep payloads compact
and hashable by the canonical serializer.
"""

from __future__ import annotations

import math

from repro.crypto.rsa import MAX_BITS, RSAPrivateKey, RSAPublicKey
from repro.errors import ValidationError

__all__ = [
    "public_key_to_dict",
    "public_key_from_dict",
    "private_key_to_dict",
    "private_key_from_dict",
]


def public_key_to_dict(key: RSAPublicKey) -> dict:
    return {"kty": "RSA", "n": f"{key.n:x}", "e": f"{key.e:x}"}


def public_key_from_dict(data: dict) -> RSAPublicKey:
    """Parse a public key, refusing any whose size would let its sender
    choose the cost of a verification: a modulus over ``MAX_BITS``, or an
    exponent that is even, below 3, or 2**32 and up."""
    try:
        if data["kty"] != "RSA":
            raise ValidationError(f"unsupported key type {data['kty']!r}")
        n, e = int(data["n"], 16), int(data["e"], 16)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed public key: {exc}") from exc
    if n.bit_length() > MAX_BITS:
        raise ValidationError(f"public key modulus over {MAX_BITS} bits")
    if e < 3 or e % 2 == 0 or e >= 2**32:
        raise ValidationError("public key exponent must be odd, at least 3 and below 2**32")
    return RSAPublicKey(n=n, e=e)


def private_key_to_dict(key: RSAPrivateKey) -> dict:
    return {
        "kty": "RSA",
        "n": f"{key.n:x}",
        "e": f"{key.e:x}",
        "d": f"{key.d:x}",
        "primes": [f"{p:x}" for p in key.primes],
    }


def private_key_from_dict(data: dict) -> RSAPrivateKey:
    """Load a key file (older two-prime files hold ``p``/``q``); DESIGN §20."""
    try:
        if data["kty"] != "RSA":
            raise ValidationError(f"unsupported key type {data['kty']!r}")
        hexes = data["primes"] if "primes" in data else [data["p"], data["q"]]
        key = RSAPrivateKey(
            n=int(data["n"], 16),
            e=int(data["e"], 16),
            d=int(data["d"], 16),
            primes=tuple(int(p, 16) for p in hexes),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed private key: {exc}") from exc
    # a CRT signature made with a corrupt prime leaks the other factors
    primes = key.primes
    if len(primes) < 2 or len(set(primes)) != len(primes) or math.prod(primes) != key.n:
        raise ValidationError("private key primes do not multiply to n")
    if any(p < 3 or key.e * key.d % (p - 1) != 1 for p in primes):
        raise ValidationError("private exponent does not invert e modulo p-1")
    return key
