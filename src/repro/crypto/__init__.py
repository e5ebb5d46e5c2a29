"""From-scratch cryptographic substrate.

The paper relies on Globus GSI — PKI with X509v3 certificates, GSS-API
authentication, and SSL-based symmetric encryption. No external crypto
library is available here, so this package implements the needed primitives
directly:

* :mod:`repro.crypto.primes` — Miller–Rabin testing and prime generation;
* :mod:`repro.crypto.rsa` — RSA key generation and raw modular operations;
* :mod:`repro.crypto.signature` — PKCS#1-v1.5-style RSA/SHA-256 signatures;
* :mod:`repro.crypto.hashes` — SHA-256 helpers and PayWord hash chains;
* :mod:`repro.crypto.cipher` — authenticated stream cipher (SHAKE-256
  keystream, encrypt-then-HMAC) standing in for the GSS/SSL channel crypto;
* :mod:`repro.crypto.keys` — key (de)serialization.

These are *reproduction-grade* implementations: correct constructions at
reduced default key sizes (1024-bit) so tests run fast. They are not
intended to protect real funds.
"""

from repro.crypto.primes import is_probable_prime, generate_prime
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSAPrivateKey, generate_keypair
from repro.crypto.signature import sign, verify, Signed
from repro.crypto.hashes import sha256, HashChain
from repro.crypto.cipher import ChannelCipher, seal, open_sealed
from repro.crypto.keys import (
    public_key_to_dict,
    public_key_from_dict,
    private_key_to_dict,
    private_key_from_dict,
)

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "RSAKeyPair",
    "RSAPublicKey",
    "RSAPrivateKey",
    "generate_keypair",
    "sign",
    "verify",
    "Signed",
    "sha256",
    "HashChain",
    "ChannelCipher",
    "seal",
    "open_sealed",
    "public_key_to_dict",
    "public_key_from_dict",
    "private_key_to_dict",
    "private_key_from_dict",
]
