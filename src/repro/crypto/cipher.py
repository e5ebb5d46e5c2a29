"""Authenticated symmetric channel cipher.

Stands in for the GSS/SSL symmetric encryption the paper gets from Globus
I/O ("GSS API also provides symmetric data encryption based on SSL
technologies to securely exchange sensitive financial information",
sec 3.1). Construction:

* keystream: ``SHAKE-256(enc_key || nonce)`` squeezed to the plaintext's
  length and XORed over it: a FIPS 202 XOF yields a record's whole stream in
  one stdlib call, where SHA-256 counter mode paid one call per 32 bytes;
* integrity: HMAC-SHA-256 over ``nonce || seq_be8 || ciphertext`` with an
  independent MAC key (encrypt-then-MAC);
* key separation: both keys derive from a shared master secret via
  HMAC-based expansion with distinct labels.

Sequence numbers bind each message to its position in the conversation so
replayed or reordered records are rejected — the property the bank's
payment messages need.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from typing import Optional

from repro.errors import ChannelError, ValidationError

__all__ = ["derive_keys", "ChannelCipher", "seal", "open_sealed"]

_NONCE_LEN = 16
_TAG_LEN = 32


def derive_keys(master_secret: bytes) -> tuple[bytes, bytes]:
    """Derive independent (encryption, MAC) keys from a master secret."""
    if len(master_secret) < 16:
        raise ValidationError("master secret must be at least 16 bytes")
    # labels name the keystream: a SHA-256 counter-mode peer fails at the MAC
    enc = hmac.new(master_secret, b"gridbank-enc-shake256", hashlib.sha256).digest()
    mac = hmac.new(master_secret, b"gridbank-mac-shake256", hashlib.sha256).digest()
    return enc, mac


def _keystream(enc_key: bytes, nonce: bytes, length: int) -> bytes:
    return hashlib.shake_256(enc_key + nonce).digest(length)


def _xor(data: bytes, stream: bytes) -> bytes:
    # single big-int XOR: ~10x faster than a byte-wise generator for
    # kilobyte-sized records on the hot protect/unprotect path
    x = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return x.to_bytes(len(data), "big")


def seal(enc_key: bytes, mac_key: bytes, seq: int, plaintext: bytes, rng: Optional[random.Random] = None) -> bytes:
    """Encrypt-then-MAC one record: ``nonce || ciphertext || tag``."""
    r = rng if rng is not None else random.Random()
    nonce = r.getrandbits(8 * _NONCE_LEN).to_bytes(_NONCE_LEN, "big")
    ciphertext = _xor(plaintext, _keystream(enc_key, nonce, len(plaintext)))
    tag = hmac.new(mac_key, nonce + seq.to_bytes(8, "big") + ciphertext, hashlib.sha256).digest()
    return nonce + ciphertext + tag


def open_sealed(enc_key: bytes, mac_key: bytes, seq: int, record: bytes) -> bytes:
    """Verify and decrypt one record; raises :class:`ChannelError` on tamper."""
    if len(record) < _NONCE_LEN + _TAG_LEN:
        raise ChannelError("sealed record too short")
    nonce = record[:_NONCE_LEN]
    ciphertext = record[_NONCE_LEN:-_TAG_LEN]
    tag = record[-_TAG_LEN:]
    expected = hmac.new(mac_key, nonce + seq.to_bytes(8, "big") + ciphertext, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise ChannelError("record MAC verification failed")
    return _xor(ciphertext, _keystream(enc_key, nonce, len(ciphertext)))


class ChannelCipher:
    """Stateful record protection for one direction of a channel.

    Each side holds two of these (send/receive) sharing the master secret.
    The sequence number travels in clear at the head of each record but is
    bound by the MAC; the receiver accepts only strictly increasing
    sequence numbers, so replayed or stale records are rejected while
    records lost in transit (network faults) merely leave a gap.
    """

    def __init__(self, master_secret: bytes, rng: Optional[random.Random] = None) -> None:
        self._enc_key, self._mac_key = derive_keys(master_secret)
        self._send_seq = 0
        self._recv_seq = 0  # next acceptable sequence number
        self._rng = rng if rng is not None else random.Random()

    def protect(self, plaintext: bytes) -> bytes:
        record = seal(self._enc_key, self._mac_key, self._send_seq, plaintext, self._rng)
        header = self._send_seq.to_bytes(8, "big")
        self._send_seq += 1
        return header + record

    def unprotect(self, record: bytes) -> bytes:
        if len(record) < 8:
            raise ChannelError("record too short for sequence header")
        seq = int.from_bytes(record[:8], "big")
        if seq < self._recv_seq:
            raise ChannelError(f"replayed or stale record (seq {seq} < {self._recv_seq})")
        plaintext = open_sealed(self._enc_key, self._mac_key, seq, record[8:])
        self._recv_seq = seq + 1
        return plaintext

    @property
    def sent(self) -> int:
        return self._send_seq

    @property
    def received(self) -> int:
        return self._recv_seq
