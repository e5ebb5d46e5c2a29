"""RSA key generation and raw modular operations.

Three-prime RSA (RFC 8017 §3.2, DESIGN §20) over Miller–Rabin primes with a
k-prime CRT private operation. Padding/encoding live in
:mod:`repro.crypto.signature`; this module only provides the trapdoor
permutation and key structures.

Default modulus size is 1024 bits — small enough that seeded key generation
in pure Python stays well under a second, large enough to exercise real
multi-precision paths. Sizes are configurable per call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.crypto.primes import generate_prime
from repro.errors import ValidationError

__all__ = [
    "RSAPublicKey",
    "RSAPrivateKey",
    "RSAKeyPair",
    "generate_keypair",
    "encrypt_bytes",
    "decrypt_bytes",
    "DEFAULT_BITS",
    "MAX_BITS",
]

DEFAULT_BITS = 1024
#: the largest modulus the bank makes or accepts: a peer's key sizes an
#: exponentiation run with the GIL held, before anything is authenticated
MAX_BITS = 4096
_PUBLIC_EXPONENT = 65537
_PRIMES = 3  # the published maximum for 1,024-bit moduli (DESIGN §20)


@dataclass(frozen=True)
class RSAPublicKey:
    """Public half: modulus *n* and exponent *e*."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def encrypt_int(self, m: int) -> int:
        """Raw public operation m^e mod n (also signature verification)."""
        if not 0 <= m < self.n:
            raise ValidationError("message representative out of range")
        return pow(m, self.e, self.n)

    def fingerprint(self) -> str:
        """Short stable identifier for the key (first 16 hex of SHA-256)."""
        import hashlib

        digest = hashlib.sha256(f"{self.n:x}:{self.e:x}".encode("ascii")).hexdigest()
        return digest[:16]


@dataclass(frozen=True)
class RSAPrivateKey:
    """Private half: *d* and the prime factors of *n*, for CRT private ops."""

    n: int
    e: int
    d: int = field(repr=False)
    primes: tuple[int, ...] = field(repr=False)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def public_key(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    @cached_property
    def _crt(self) -> tuple[tuple[int, int, int], ...]:
        # (r_i, d mod (r_i - 1), (r_1 ... r_{i-1})^-1 mod r_i) per prime; cached_property
        # writes to __dict__ directly, which frozen dataclasses permit
        terms, product = [], 1
        for r in self.primes:
            terms.append((r, self.d % (r - 1), pow(product, -1, r)))
            product *= r
        return tuple(terms)

    def decrypt_int(self, c: int) -> int:
        """Raw private operation c^d mod n via CRT (also signing)."""
        if not 0 <= c < self.n:
            raise ValidationError("ciphertext representative out of range")
        m, product = 0, 1
        for r, d_r, coeff in self._crt:
            # Garner: lift m (correct mod product) to be correct mod product*r
            m += product * ((pow(c, d_r, r) - m) * coeff % r)
            product *= r
        return m


@dataclass(frozen=True)
class RSAKeyPair:
    private: RSAPrivateKey
    public: RSAPublicKey


def encrypt_bytes(public: RSAPublicKey, plaintext: bytes, rng: Optional[random.Random] = None) -> bytes:
    """PKCS#1-v1.5-style public-key encryption of a short message.

    Used by the GSI handshake to ship the pre-master secret. The message
    representative is ``0x00 0x02 <nonzero random pad> 0x00 <plaintext>``.
    """
    k = public.byte_length
    if len(plaintext) > k - 11:
        raise ValidationError(f"message too long for {public.bits}-bit RSA encryption")
    r = rng if rng is not None else random.Random()
    pad = bytes(r.randrange(1, 256) for _ in range(k - len(plaintext) - 3))
    em = b"\x00\x02" + pad + b"\x00" + plaintext
    c = pow(int.from_bytes(em, "big"), public.e, public.n)
    return c.to_bytes(k, "big")


def decrypt_bytes(private: RSAPrivateKey, ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt_bytes`; raises on malformed padding."""
    k = private.byte_length
    if len(ciphertext) != k:
        raise ValidationError("ciphertext length does not match modulus")
    m = private.decrypt_int(int.from_bytes(ciphertext, "big"))
    em = m.to_bytes(k, "big")
    if not em.startswith(b"\x00\x02"):
        raise ValidationError("malformed encryption padding")
    try:
        sep = em.index(b"\x00", 2)
    except ValueError:
        raise ValidationError("malformed encryption padding") from None
    if sep < 10:
        raise ValidationError("malformed encryption padding")
    return em[sep + 1 :]


def generate_keypair(bits: int = DEFAULT_BITS, rng: Optional[random.Random] = None) -> RSAKeyPair:
    """Generate a three-prime RSA keypair with modulus of exactly *bits* bits.

    Pass a seeded ``random.Random`` for reproducible keys in tests and
    simulations; an unseeded one is created otherwise.
    """
    if bits < 256:
        raise ValidationError("modulus must be at least 256 bits")
    if bits > MAX_BITS:
        raise ValidationError(f"modulus must be at most {MAX_BITS} bits")
    if bits % 2 != 0:
        raise ValidationError("modulus bit size must be even")
    r = rng if rng is not None else random.Random()
    sizes = [bits // _PRIMES] * (_PRIMES - 1)
    sizes.append(bits - sum(sizes))
    e = _PUBLIC_EXPONENT
    while True:
        primes = tuple(generate_prime(size, r) for size in sizes)
        n = math.prod(primes)
        phi = math.prod(p - 1 for p in primes)
        if n.bit_length() != bits or len(set(primes)) != _PRIMES or phi % e == 0:
            continue
        private = RSAPrivateKey(n=n, e=e, d=pow(e, -1, phi), primes=primes)
        return RSAKeyPair(private=private, public=private.public_key())
